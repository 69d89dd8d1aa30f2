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
