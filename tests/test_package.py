import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lzse

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

EXPORTS = sorted([
    "Copy", "Ibst", "Text", "build_access_index", "build_suffix_index", "decode",
    "deserialize", "extract_field_streams", "grammar_to_lzse", "greedy_factorize",
    "h0", "lz77_factorize", "lzss_factorize", "repair_compress", "serialize",
    "validate",
])


def test_benchmark_worker_imports_resolve():
    # the benchmark's worker is read, not imported: every name it takes
    # from an lzse module must still be there
    tree = ast.parse(WORKER.read_text())
    seen = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "lzse":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                seen += 1
    assert seen > 0


def test_top_level_exports():
    # the worker's names from `lzse` itself, plus Text for the README sketch
    assert sorted(lzse.__all__) == EXPORTS
    assert all(hasattr(lzse, name) for name in EXPORTS)
    star: dict = {}
    exec("from lzse import *", star)
    assert sorted(name for name in star if name != "__builtins__") == EXPORTS
    # dir() lists the names before any has been resolved
    src = str(Path(lzse.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", "import lzse; print(*dir(lzse))"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert set(EXPORTS) <= set(run.stdout.split()), run.stderr
    with pytest.raises(AttributeError):
        lzse.no_such_name


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check of the package may be one
    package = Path(lzse.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# What the program runs: each CLI command in byte and token mode, both
# compress methods, stats forked and inline, usage and data errors, the
# one-shot reads' deep-chain fallback and the four modes of the benchmark's
# worker, imported from its path.  A profiler appends each function's file,
# first line and name to a file of the process that first runs it, as it
# runs: the forked stats child leaves through os._exit, so it could not
# report at exit.
REACH_SCRIPT = r"""if True:
    import contextlib, importlib.util, os, random, sys
    from array import array
    package, worker_path, work = sys.argv[1:4]
    seen = set()
    logs = {}

    def profile(frame, event, arg):
        if event != "call" or frame.f_code in seen:
            return
        code = frame.f_code
        seen.add(code)
        if code.co_filename.startswith(package):
            pid = os.getpid()
            if pid not in logs:
                logs[pid] = os.open(os.path.join(work, f"reached-{pid}"),
                                    os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(logs[pid], f"{os.path.basename(code.co_filename)} "
                                f"{code.co_firstlineno} {code.co_name}\n".encode())

    sys.setprofile(profile)
    from lzse import archive
    from lzse.cli import main
    from lzse.factorization import Char, Copy, Factorization

    def at(name):
        return os.path.join(work, name)

    def cli(*argv, code=0):
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
                contextlib.redirect_stderr(null):
            got = main(list(argv))
        assert got == code, (argv, got)

    rng = random.Random(7)
    pool = [bytes(rng.randrange(256) for _ in range(48)) for _ in range(8)]
    with open(at("bytes"), "wb") as fh:
        fh.write(b"".join(rng.choice(pool) for _ in range(64)))
    cli("gen", "random", "-n", "1500", "--sigma", "300", "-o", at("tokens"))
    for family, args in (("unary", ["-n", "64"]), ("random", ["-n", "64"]),
                         ("periodic", ["--reps", "9"]), ("orsp", ["-m", "6"]),
                         ("lower-bound", ["-m", "3"])):
        cli("gen", family, *args, "-o", at(family))
    for name in ("bytes", "tokens"):
        src = at(name)
        for method in ("greedy", "repair-se"):
            arc = at(f"{name}.{method}.lzse")
            cli("compress", src, "--method", method, "-o", arc)
            cli("decompress", arc, "-o", arc + ".out")
            cli("access", arc, "-p", "700")
            cli("extract", arc, "-l", "100", "-r", "900")
            cli("verify", arc, "--original", src)
            cli("verify", arc)
        cli("stats", src)
        cli("stats", src, "--json", "--methods", "lzse,repair,repair-se")
        cli("stats", src, "--methods", "lz77,lzss")
    # Re-Pair opens with numpy passes only on 2^16 symbols or more
    cli("gen", "periodic", "--pattern", "abcab", "--reps", "14000", "-o", at("long"))
    cli("compress", at("long"), "--method", "repair-se", "-o", at("long.lzse"))
    cli("stats", at("bytes"), "--methods", "bogus", code=1)
    cli("bogus", code=1)
    with open(at("hostile.lzse"), "wb") as fh:
        fh.write(b"LZSE\x01\x05\x09")
    cli("decompress", at("hostile.lzse"), code=2)
    # position p of this chain lies p - 1 jumps deep, past jump_budget(n) = 32
    chain = Factorization([Char(97)] + [Copy(i, 1) for i in range(1, 200)])
    with open(at("chain.lzse"), "wb") as fh:
        fh.write(archive.serialize(chain))
    cli("access", at("chain.lzse"), "-p", "200")
    cli("extract", at("chain.lzse"), "-l", "150", "-r", "200")

    spec = importlib.util.spec_from_file_location("worker", worker_path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    qdir = at("queries")
    os.mkdir(qdir)
    with open(os.path.join(qdir, "positions.bin"), "wb") as fh:
        fh.write(array("I", range(1, 3073, 7)).tobytes())
    with open(os.path.join(qdir, "ranges.bin"), "wb") as fh:
        fh.write(array("I", [1, 64, 1000, 1200, 2000, 3072]).tobytes())
    arc = at("worker.lzse")
    worker.MODES["trace-build"](at("bytes"), arc)
    worker.MODES["trace-query"](arc, qdir)
    worker.MODES["query"](arc, qdir, "pin", "0", "0", "0.01", "0.01")
    worker.MODES["trace-stats"](at("bytes"))
"""

# Functions that the program never runs but that stay in the package, each
# with its reason.  Dunder methods are exempt: Python's protocols call them
# (equality, repr, hashing, attribute guards), so a library user or a test
# may need one that no command reaches.
UNREACHED_ON_PURPOSE = {
    "suffixindex.RangeArgMin.argmin":
        "the benchmark's worker builds RangeArgMin over idx.lcp and times it; "
        "the test references answer LCP queries through it",
    "suffixindex.RangeArgMin.min":
        "the test references' LCP queries, on the structure the worker builds",
    "text.Text.from_str":
        "public constructor of an exported class; the README's library sketch uses it",
    "text.Text.from_tokens":
        "public constructor of a token-mode Text, the counterpart of from_bytes",
    "text.Text.to_str":
        "public reader of a byte-mode Text; Text's repr prints through it",
    "generators.OrspInstance.is_delimiter":
        "states the token layout of gen_orsp's public result, which `lzse gen orsp` "
        "writes; the ORSP tests hand it to the range-sum evaluator",
}


def _package_functions(package: Path) -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> qualified name of each def in the
    package.  A decorated def's code starts at its first decorator."""
    found = {}

    def visit(node, prefix, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[filename, line, child.name] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}", filename)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", filename)
            else:
                visit(child, prefix, filename)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, path.name)
    return found


def test_every_package_function_is_reached_or_allowed(tmp_path):
    package = Path(lzse.__file__).resolve().parent
    run = subprocess.run(
        [sys.executable, "-c", REACH_SCRIPT, str(package) + os.sep, str(WORKER), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(package.parent)), cwd=tmp_path,
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    logs = list(tmp_path.glob("reached-*"))
    assert len(logs) >= 2, "the forked stats child reported nothing"
    reached = set()
    for log in logs:
        for line in log.read_text().splitlines():
            filename, first, name = line.split(" ")
            reached.add((filename, int(first), name))
    functions = _package_functions(package)
    missing = sorted(set(UNREACHED_ON_PURPOSE) - set(functions.values()))
    assert not missing, f"allow-listed but no longer in src/lzse: {missing}"
    stale = sorted(functions[key] for key in reached & set(functions)
                   if functions[key] in UNREACHED_ON_PURPOSE)
    assert not stale, f"allow-listed but reached, so the entries are stale: {stale}"
    unreached = sorted(qualname for key, qualname in functions.items()
                       if key not in reached and not (key[2].startswith("__")
                                                      and key[2].endswith("__")))
    assert unreached == sorted(UNREACHED_ON_PURPOSE), \
        "unreached functions must leave src/lzse or be allow-listed with a reason: " \
        f"{sorted(set(unreached) - set(UNREACHED_ON_PURPOSE))}"
