import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from lzse import archive, baselines, cli, greedy
from lzse.cli import main
from lzse.factorization import Char, Copy, Factorization
from lzse.grammar import GrammarError
from lzse.text import Text

from helpers import deep_chain, record_index_builds, traced_peak


@pytest.fixture
def sample(tmp_path):
    p = tmp_path / "in.txt"
    p.write_bytes(b"ababbababab")
    return p


def test_compress_decompress_roundtrip(sample, tmp_path, capsys):
    arc = tmp_path / "out.lzse"
    out = tmp_path / "restored.txt"
    assert main(["compress", str(sample), "-o", str(arc)]) == 0
    assert main(["decompress", str(arc), "-o", str(out)]) == 0
    assert out.read_bytes() == sample.read_bytes()


def test_access_and_extract(sample, tmp_path, capsys):
    arc = tmp_path / "out.lzse"
    main(["compress", str(sample), "-o", str(arc)])
    capsys.readouterr()
    assert main(["access", str(arc), "-p", "10"]) == 0
    assert capsys.readouterr().out.strip() == "a"
    assert main(["extract", str(arc), "-l", "5", "-r", "7"]) == 0
    assert capsys.readouterr().out.strip() == "bab"


@pytest.mark.parametrize("token", [False, True], ids=["bytes", "tokens"])
@pytest.mark.parametrize("method", ["greedy", "repair-se"])
def test_access_and_extract_match_decode(method, token, tmp_path, capsysbinary,
                                         monkeypatch):
    rng = random.Random(f"{method}-{token}")
    pool = [[rng.randrange(256) for _ in range(rng.randint(1, 40))] for _ in range(12)]
    symbols = [s for _ in range(150) for s in rng.choice(pool)]
    src = tmp_path / "in"
    if token:
        symbols = [s * 16_777_259 % (1 << 32) for s in symbols]
        with open(src, "wb") as fh:
            archive.write_token_text(fh, Text.from_tokens(symbols))
    else:
        src.write_bytes(bytes(symbols))
    arc = str(tmp_path / "in.lzse")
    assert main(["compress", str(src), "--method", method, "-o", arc]) == 0
    assert main(["decompress", arc, "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_bytes() == src.read_bytes()
    capsysbinary.readouterr()
    built = record_index_builds(monkeypatch)
    n = len(symbols)
    for p in [1, n] + [rng.randint(1, n) for _ in range(30)]:
        assert main(["access", arc, "-p", str(p)]) == 0
        sym = symbols[p - 1]
        line = chr(sym) if not token and 32 <= sym < 127 else str(sym)
        assert capsysbinary.readouterr().out == line.encode() + b"\n"
    for _ in range(30):
        lo = rng.randint(1, n)
        hi = rng.randint(lo, min(n, lo + 600))
        assert main(["extract", arc, "-l", str(lo), "-r", str(hi)]) == 0
        part = symbols[lo - 1:hi]
        expected = (" ".join(map(str, part)).encode() if token else bytes(part)) + b"\n"
        assert capsysbinary.readouterr().out == expected
    assert built == []


def test_deep_chain_access_and_extract_take_the_fallback(tmp_path, capsys, monkeypatch):
    # position p is p - 1 jumps deep, far past B = 56 at n = 10^4
    arc = tmp_path / "chain.lzse"
    arc.write_bytes(archive.serialize(deep_chain(10 ** 4)))
    built = record_index_builds(monkeypatch)
    assert main(["access", str(arc), "-p", "10000"]) == 0
    assert capsys.readouterr().out == "a\n"
    assert len(built) == 1
    assert main(["extract", str(arc), "-l", "9000", "-r", "10000"]) == 0
    assert capsys.readouterr().out == "a" * 1001 + "\n"
    assert len(built) == 2


@pytest.mark.parametrize("args, err", [
    (["access", "-p", "0"], "position 0 out of range 1..11"),
    (["access", "-p", "12"], "position 12 out of range 1..11"),
    (["access", "-p", "-3"], "position -3 out of range 1..11"),
    (["extract", "-l", "0", "-r", "3"], "range [0, 3] out of bounds 1..11"),
    (["extract", "-l", "5", "-r", "4"], "range [5, 4] out of bounds 1..11"),
    (["extract", "-l", "1", "-r", "12"], "range [1, 12] out of bounds 1..11"),
])
def test_read_commands_out_of_range_exit_2(args, err, sample, tmp_path, capsys):
    arc = str(tmp_path / "out.lzse")
    assert main(["compress", str(sample), "-o", arc]) == 0
    capsys.readouterr()
    assert main([args[0], arc, *args[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_verify(sample, tmp_path, capsys):
    arc = tmp_path / "out.lzse"
    main(["compress", str(sample), "-o", str(arc)])
    assert main(["verify", str(arc), "--original", str(sample)]) == 0
    other = tmp_path / "other.txt"
    other.write_bytes(b"abababababa")
    assert main(["verify", str(arc), "--original", str(other)]) == 2


def test_verify_original_differs_inside_a_copy_factor(sample, tmp_path, capsys, monkeypatch):
    # validate alone decides: it compares each copy's text with its
    # source's, so an original that differs only inside a copy factor
    # fails there, and nothing is decoded
    def no_decode(fact):
        raise AssertionError("verify decoded the archive")

    monkeypatch.setattr(cli, "decode", no_decode)
    arc = tmp_path / "out.lzse"
    main(["compress", str(sample), "-o", str(arc)])
    fact = archive.deserialize(arc.read_bytes())
    i = fact.z
    assert fact.start[i - 1] and fact.length(i) > 1  # a copy factor
    data = bytearray(sample.read_bytes())
    data[fact.pos_r(i) - 1] ^= 1
    other = tmp_path / "other.txt"
    other.write_bytes(data)
    capsys.readouterr()
    assert main(["verify", str(arc), "--original", str(sample)]) == 0
    assert main(["verify", str(arc), "--original", str(other)]) == 2
    assert capsys.readouterr().err == f"FAIL: factor {i}: source mismatch\n"


def test_repair_se_method(sample, tmp_path):
    arc = tmp_path / "r.lzse"
    out = tmp_path / "r.txt"
    assert main(["compress", str(sample), "--method", "repair-se", "-o", str(arc)]) == 0
    assert main(["decompress", str(arc), "-o", str(out)]) == 0
    assert out.read_bytes() == sample.read_bytes()


def test_repair_se_method_token_file(tmp_path):
    tok = tmp_path / "in.tok"
    symbols = [7, (1 << 31) + 5, (1 << 32) - 1, 0] * 6 + [(1 << 31) + 5]
    with open(tok, "wb") as fh:
        archive.write_token_text(fh, Text.from_tokens(symbols))
    arc = tmp_path / "r.lzse"
    out = tmp_path / "r.tok"
    assert main(["compress", str(tok), "--method", "repair-se", "-o", str(arc)]) == 0
    assert main(["decompress", str(arc), "-o", str(out)]) == 0
    assert out.read_bytes() == tok.read_bytes()


def test_stats_json(sample, capsys):
    rc = main(["stats", str(sample), "--methods",
               "lz77,lzss,lzse,repair,repair-se", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 11
    assert set(report["methods"]) == {"lz77", "lzss", "lzse", "repair", "repair-se"}
    assert report["methods"]["lzse"]["factors"] == 5
    assert report["repair_se_factors_le_repair_size"] is True


def test_stats_unknown_method(sample, capsys):
    assert main(["stats", str(sample), "--methods", "zpaq"]) == 1


def test_stats_no_method(sample, capsys):
    assert main(["stats", str(sample), "--methods", ","]) == 1
    assert capsys.readouterr().err.startswith("no method given")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def child_repair(monkeypatch, effect):
    """Replace Re-Pair by ``effect``, which must run in a forked child."""
    parent = os.getpid()

    def repair(text):
        if os.getpid() == parent:
            raise AssertionError("Re-Pair ran in the parent process")
        return effect()

    monkeypatch.setattr(baselines, "repair_compress", repair)


def raise_(ex):
    raise ex


@pytest.mark.parametrize("effect, err", [
    (lambda: raise_(GrammarError("boom")), "error: boom\n"),
    (lambda: raise_(MemoryError()), "error: MemoryError\n"),
    (lambda: os._exit(1), "error: the Re-Pair child process ended without a "
                          "result (exit code 1)\n"),
], ids=["grammar-error", "memory-error", "child-death"])
def test_stats_child_failure_exits_2(sample, capsys, monkeypatch, effect, err):
    child_repair(monkeypatch, effect)
    assert main(["stats", str(sample), "--json"]) == 2
    assert capsys.readouterr().err == err
    assert_no_child()


def test_stats_parent_failure_kills_child(sample, capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError

    child_repair(monkeypatch, lambda: time.sleep(60))
    monkeypatch.setattr(baselines, "build_suffix_index", exhausted)
    t0 = time.monotonic()
    assert main(["stats", str(sample)]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert time.monotonic() - t0 < 30
    assert_no_child()


def test_stats_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    assert main(["stats", str(empty), "--json"]) == 2
    assert capsys.readouterr().err == "error: cannot build a grammar for the empty text\n"
    assert_no_child()


def test_gen_and_token_roundtrip(tmp_path, capsys):
    tok = tmp_path / "orsp.tok"
    assert main(["gen", "orsp", "-m", "3", "--seed", "7", "-o", str(tok)]) == 0
    arc = tmp_path / "orsp.lzse"
    out = tmp_path / "orsp.out"
    assert main(["compress", str(tok), "-o", str(arc)]) == 0
    assert main(["decompress", str(arc), "-o", str(out)]) == 0
    assert out.read_bytes() == tok.read_bytes()


def test_gen_families(tmp_path):
    for args in (["gen", "unary", "-n", "32", "-o", str(tmp_path / "u")],
                 ["gen", "random", "-n", "64", "--sigma", "4", "--seed", "1",
                  "-o", str(tmp_path / "r")],
                 ["gen", "periodic", "--pattern", "ab", "--reps", "5",
                  "-o", str(tmp_path / "p")],
                 ["gen", "lower-bound", "-m", "3", "-o", str(tmp_path / "lb")]):
        assert main(args) == 0
    assert (tmp_path / "p").read_bytes() == b"ababababab"


def test_gen_random_sigma_above_token_alphabet_exits_2(tmp_path, capsys):
    ok = tmp_path / "ok"
    assert main(["gen", "random", "-n", "64", "--sigma", str(1 << 32), "-o", str(ok)]) == 0
    capsys.readouterr()
    over = tmp_path / "over"
    assert main(["gen", "random", "-n", "64", "--sigma", str(1 << 33), "-o", str(over)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sigma 8589934592 is above")
    assert "Traceback" not in err
    assert not over.exists()


def test_usage_and_data_errors(tmp_path, capsys):
    assert main(["bogus"]) == 1
    assert main(["compress", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.lzse"
    bad.write_bytes(b"GARBAGE")
    assert main(["decompress", str(bad)]) == 2


def test_token_symbol_above_32_bits_exits_2(tmp_path, capsys):
    arc = tmp_path / "wide.lzse"
    arc.write_bytes(bytes.fromhex("4c5a534501010202008080808080010101"))
    for args in (["access", str(arc), "-p", "2"], ["verify", str(arc)],
                 ["decompress", str(arc), "-o", str(tmp_path / "out")]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: factor 1: symbol 34359738368 exceeds 32 bits")
        assert "Traceback" not in err


def test_huge_n_archive_access_and_extract(tmp_path, capsys):
    # 70 factors doubling up to n = 2**69; decompressing it would not fit
    # in memory, so only the index commands run on it
    fact = Factorization([Char(97), Copy(1, 1)] + [Copy(1, k) for k in range(2, 70)])
    assert fact.n == 1 << 69
    arc = tmp_path / "huge.lzse"
    arc.write_bytes(archive.serialize(fact))
    p = 3 * 10 ** 20
    assert main(["access", str(arc), "-p", str(p)]) == 0
    assert capsys.readouterr().out == "a\n"
    assert main(["extract", str(arc), "-l", str(p), "-r", str(p + 5)]) == 0
    assert capsys.readouterr().out == "aaaaaa\n"


def test_decompress_refuses_above_symbol_limit(sample, tmp_path, capsys, monkeypatch):
    fact = Factorization([Char(97), Copy(1, 1)] + [Copy(1, k) for k in range(2, 70)])
    arc = tmp_path / "huge.lzse"
    arc.write_bytes(archive.serialize(fact))
    out = tmp_path / "huge.out"
    assert main(["decompress", str(arc), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: archive decodes to {1 << 69} symbols, above the limit of {1 << 26}\n"
    assert not out.exists()
    small = tmp_path / "small.lzse"
    assert main(["compress", str(sample), "-o", str(small)]) == 0
    monkeypatch.setattr(cli, "MAX_DECOMPRESS_SYMBOLS", 10)
    assert main(["decompress", str(small), "-o", str(out)]) == 2
    assert "above the limit of 10" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_DECOMPRESS_SYMBOLS", 11)
    assert main(["decompress", str(small), "-o", str(out)]) == 0
    assert out.read_bytes() == sample.read_bytes()


def test_extract_refuses_above_symbol_limit(sample, tmp_path, capsys, monkeypatch):
    small = tmp_path / "small.lzse"
    assert main(["compress", str(sample), "-o", str(small)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_DECOMPRESS_SYMBOLS", 10)
    assert main(["extract", str(small), "-l", "1", "-r", "11"]) == 2
    assert capsys.readouterr().err == ("error: extract of 11 symbols is above "
                                       "the limit of 10\n")
    assert main(["extract", str(small), "-l", "2", "-r", "11"]) == 0
    assert capsys.readouterr().out == "babbababab\n"
    monkeypatch.undo()
    # the n = 2**69 archive: refused before the index is built
    fact = Factorization([Char(97), Copy(1, 1)] + [Copy(1, k) for k in range(2, 70)])
    huge = tmp_path / "huge.lzse"
    huge.write_bytes(archive.serialize(fact))
    assert main(["extract", str(huge), "-l", "1", "-r", str(10 ** 12)]) == 2
    assert capsys.readouterr().err == (f"error: extract of {10 ** 12} symbols is "
                                       f"above the limit of {1 << 26}\n")


def test_token_extract_peak_memory_per_symbol(tmp_path, monkeypatch):
    # a token range is written a chunk at a time: a decimal str for every
    # symbol of the range, and their join, take about 80 bytes a symbol
    n = 1 << 18
    symbols = [(1 << 32) - 1 - k % 97 for k in range(n)]
    arc = tmp_path / "tokens.lzse"
    arc.write_bytes(archive.serialize(greedy.greedy_factorize(Text.from_tokens(symbols))))
    out = tmp_path / "out"
    with open(out, "w") as fh:
        monkeypatch.setattr(sys, "stdout", fh)
        status, peak = traced_peak(main, ["extract", str(arc), "-l", "1", "-r", str(n)])
    assert status == 0
    assert out.read_text() == " ".join(map(str, symbols)) + "\n"
    assert peak <= 16 * n


@pytest.mark.parametrize("family,flag,largest,limit,refused", [
    ("unary", "-n", 10, 10, 11),
    ("random", "-n", 10, 10, 11),
    ("periodic", "--reps", 5, 10, 12),  # pattern "ab"
    ("orsp", "-m", 3, 16, 25),          # (m + 1)^2
    ("lower-bound", "-m", 2, 26, 101),
])
def test_gen_refuses_above_symbol_limit(family, flag, largest, limit, refused, tmp_path,
                                        capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DECOMPRESS_SYMBOLS", limit)
    ok = tmp_path / "ok"
    assert main(["gen", family, flag, str(largest), "-o", str(ok)]) == 0
    assert ok.exists()
    capsys.readouterr()
    over = tmp_path / "over"
    assert main(["gen", family, flag, str(largest + 1), "-o", str(over)]) == 2
    assert capsys.readouterr().err == (f"error: gen {family} of up to {refused} "
                                       f"symbols is above the limit of {limit}\n")
    assert not over.exists()


def test_read_commands_do_not_load_numpy(tmp_path):
    script = """if True:
        import sys
        from lzse import archive, cli
        from lzse.factorization import Char, Copy, Factorization
        arc = sys.argv[1]
        fact = Factorization([Char(97), Char(98), Copy(1, 2), Copy(2, 2)])
        with open(arc, "wb") as fh:
            fh.write(archive.serialize(fact))
        for argv in (["decompress", arc, "-o", arc + ".out"],
                     ["access", arc, "-p", "5"],
                     ["extract", arc, "-l", "2", "-r", "7"]):
            assert cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, "a read command loaded numpy"
        loaded = {"lzse." + m for m in ("baselines", "grammar", "greedy",
                                        "suffixindex", "generators")} & set(sys.modules)
        assert not loaded, loaded
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "s.lzse")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[1:] == ["b", "babbab"]
    assert (tmp_path / "s.lzse.out").read_bytes() == b"ababbab"


def test_decompress_does_not_load_the_access_index(tmp_path):
    # decode shares its expansion with extract, whose deep chains import the
    # index on first need; a whole-text expansion never needs it
    script = """if True:
        import sys
        from lzse import archive, cli
        from lzse.factorization import Char, Copy, Factorization
        arc = sys.argv[1]
        fact = Factorization([Char(97)] + [Copy(1, i) for i in range(1, 9)])
        with open(arc, "wb") as fh:
            fh.write(archive.serialize(fact))
        assert cli.main(["decompress", arc, "-o", arc + ".out"]) == 0
        loaded = {"lzse." + m for m in ("access", "dag", "ibst")} & set(sys.modules)
        assert not loaded, loaded
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "u.lzse")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "u.lzse.out").read_bytes() == b"a" * 256


def test_write_commands_do_not_load_numpy(tmp_path):
    script = """if True:
        import sys
        import lzse
        assert not [m for m in sys.modules if m.startswith("lzse.")]
        from lzse import cli
        src = sys.argv[1]
        with open(src, "wb") as fh:
            fh.write(b"ababbababab" * 50)
        assert cli.main(["compress", src, "-o", src + ".g", "--method", "greedy"]) == 0
        loaded = {"numpy"} | {"lzse." + m for m in ("access", "baselines", "grammar",
                                                    "suffixindex")}
        loaded &= set(sys.modules)
        assert not loaded, loaded
        for argv in (["compress", src, "-o", src + ".r", "--method", "repair-se"],
                     ["stats", src, "--methods", "lzse", "--json"],
                     ["stats", src, "--methods", "lzse,repair,repair-se"]):
            assert cli.main(argv) == 0, argv
            assert "numpy" not in sys.modules, argv
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "in.txt")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "in.txt.g").exists() and (tmp_path / "in.txt.r").exists()


_garbage = st.one_of(
    st.binary(max_size=32),
    st.tuples(st.sampled_from([b"LZSE", b"LZTK", b"LZSE\x01", b"LZTK\x01"]),
              st.binary(max_size=28)).map(b"".join),
    # well-formed token texts of up to six tokens
    st.integers(0, 6).flatmap(lambda k: st.binary(min_size=4 * k, max_size=4 * k)
                              .map(lambda b: b"LZTK\x01" + bytes([k]) + b)),
)


@settings(max_examples=150, deadline=None)
@given(_garbage)
def test_garbage_input_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in")
        with open(path, "wb") as fh:
            fh.write(data)
        arc = os.path.join(tmp, "in.lzse")
        for argv in (["compress", path, "-o", arc],
                     ["decompress", path, "-o", os.path.join(tmp, "out")],
                     ["access", path, "-p", "1"],
                     ["extract", path, "-l", "1", "-r", "3"],
                     ["verify", path],
                     ["stats", path, "--json"]):
            assert main(argv) in (0, 2), argv
        if os.path.exists(arc):
            # whatever compress accepted, its archive restores
            restored = os.path.join(tmp, "restored")
            assert main(["decompress", arc, "-o", restored]) == 0
            assert cli._read_text(restored) == cli._read_text(path)


def test_memory_error_exits_2(sample, tmp_path, capsys, monkeypatch):
    def exhausted(fact):
        raise MemoryError

    monkeypatch.setattr(cli, "decode", exhausted)
    arc = tmp_path / "out.lzse"
    assert main(["compress", str(sample), "-o", str(arc)]) == 0
    assert main(["decompress", str(arc), "-o", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_internal_error_exits_2(sample, tmp_path, capsys, monkeypatch):
    def broken_parser(text):
        raise RuntimeError("more than two marks on a trie node")

    # compress imports the parser when it runs, so the module's name is patched
    monkeypatch.setattr(greedy, "greedy_factorize", broken_parser)
    assert main(["compress", str(sample), "-o", str(tmp_path / "x.lzse")]) == 2
    assert capsys.readouterr().err.startswith("error: more than two marks")
