import itertools
import json
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from lzse import baselines
from lzse.baselines import (METHODS, Lz77Factor, LzssFactor, extract_field_streams,
                            h0, lz77_factorize, lzss_factorize, size_report)
from lzse.factorization import Char, Factorization
from lzse.generators import gen_orsp
from lzse.grammar import repair_compress
from lzse.greedy import greedy_factorize
from lzse.text import Text

from helpers import (block_repetitive, lz77_decode, lz77_factorize_reference,
                     lzss_decode, lzss_factorize_reference, random_text)


def brute_longest_previous(syms, i):
    best = 0
    for j in range(1, i):
        d = 0
        while i - 1 + d < len(syms) and syms[j - 1 + d] == syms[i - 1 + d]:
            d += 1
        best = max(best, d)
    return best


def test_lzss_examples():
    f = lzss_factorize(Text.from_str("aaaa"))
    assert f == [LzssFactor(0, 0, 97), LzssFactor(1, 3, -1)]  # self-overlap
    assert lzss_decode(f) == Text.from_str("aaaa")
    f2 = lzss_factorize(Text.from_str("abc"))
    assert all(x.length == 0 for x in f2) and len(f2) == 3


def test_lz77_example():
    f = lz77_factorize(Text.from_str("ababab"))
    assert f == [Lz77Factor(0, 0, 97), Lz77Factor(0, 0, 98), Lz77Factor(1, 3, 98)]
    assert lz77_decode(f) == Text.from_str("ababab")


def test_baseline_roundtrips_and_lengths():
    rng = random.Random(23)
    for _ in range(200):
        t = random_text(rng, rng.randint(0, 150), rng.choice([2, 3, 8]))
        syms = t.symbols
        fz = lzss_factorize(t)
        assert lzss_decode(fz) == t
        f7 = lz77_factorize(t)
        assert lz77_decode(f7) == t
        # greedy boundaries must match the brute-force longest previous factor
        i = 1
        for f in fz:
            expected = min(brute_longest_previous(syms, i), len(t) - i + 1)
            assert f.length == expected or (expected == 0 and f.length == 0)
            if f.length:
                for k in range(f.length):  # source validity, overlap allowed
                    assert syms[f.src - 1 + k] == syms[i - 1 + k]
            i += max(1, f.length)


def test_h0_closed_forms():
    assert h0([0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-9)
    assert h0("aaa") == pytest.approx(0.0, abs=1e-9)
    assert h0("abcc") == pytest.approx(1.5, abs=1e-9)
    assert h0([]) == 0.0
    # never exceeds log2 of the number of distinct symbols
    rng = random.Random(1)
    for _ in range(100):
        stream = [rng.randrange(rng.randint(1, 10)) for _ in range(rng.randint(1, 200))]
        assert h0(stream) <= math.log2(len(set(stream))) + 1e-12


def test_field_streams_lzse():
    fact = greedy_factorize(Text.from_str("ababbababab"))
    fs = extract_field_streams("lzse", fact)
    assert fs.streams["source"] == [1, 2, 1]
    assert fs.streams["length"] == [2, 2, 3]
    assert fs.streams["literal"] == [97, 98]
    assert fs.streams["flag"] == [0, 0, 1, 1, 1]


def test_field_streams_all_chars():
    fact = Factorization([Char(c) for c in b"abc"])
    fs = extract_field_streams("lzse", fact)
    assert fs.streams["source"] == [] and fs.streams["length"] == []


def test_field_streams_repair():
    g = repair_compress(Text.from_str("abab"))
    fs = extract_field_streams("repair", g)
    assert fs.streams["left_hand"] == [256]
    assert fs.streams["right_hand"] == [97, 98]
    assert fs.streams["start_children"] == [256, 256]


def test_field_streams_repair_se():
    g = repair_compress(Text.from_str("abab"))
    fs = extract_field_streams("repair-se", g)
    assert fs.streams["source"] and fs.streams["length"]


def test_field_streams_type_mismatch():
    with pytest.raises(TypeError):
        extract_field_streams("lzse", [LzssFactor(0, 0, 97)])
    with pytest.raises(TypeError):
        extract_field_streams("repair", greedy_factorize(Text.from_str("ab")))
    with pytest.raises(ValueError):
        extract_field_streams("bogus", None)


def test_size_report_char_only():
    t = Text.from_str("abc")
    rep = size_report(["lzse"], t)
    entry = rep["methods"]["lzse"]
    litt = entry["streams"]["literal"]
    assert litt["count"] == 3
    assert entry["total_bits"] == pytest.approx(litt["bits"], abs=1e-9)  # flag is 0 bits


def test_size_report_repair_se_bound():
    t = Text.from_str("ababab")
    rep = size_report(["repair", "repair-se"], t)
    assert rep["repair_se_factors_le_repair_size"]
    assert rep["methods"]["repair-se"]["factors"] <= rep["methods"]["repair"]["grammar_size"]


FORK_TEXTS = {
    "random-sigma3": random_text(random.Random(31), 300, 3),
    "periodic": Text.from_str("abracadabra" * 20),
    "tokens": Text.from_tokens([7, (1 << 31) + 5, (1 << 32) - 1, 0] * 30 + [9]),
    "one-symbol": Text.from_str("a"),
    "unary": Text.from_str("a" * 400),
}
SUBSETS = [list(c) for k in range(1, len(METHODS) + 1)
           for c in itertools.combinations(METHODS, k)]


def counting_fork(monkeypatch) -> list[int]:
    """Count os.fork calls made by this process (the children inherit it)."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.parametrize("text", FORK_TEXTS.values(), ids=FORK_TEXTS.keys())
def test_size_report_forked_equals_inline(text, monkeypatch):
    forks = counting_fork(monkeypatch)
    forked = []
    forking = set()
    for s in SUBSETS:
        before = len(forks)
        forked.append(json.dumps(size_report(s, text)))
        if len(forks) > before:
            forking.add(frozenset(s))
    # a fork only when both processes have work: one of the 3 nonempty
    # subsets of the suffix-index methods with one of the 7 of the others
    index_side = [("lz77",), ("lzss",), ("lz77", "lzss")]
    child_side = [c for k in (1, 2, 3)
                  for c in itertools.combinations(("lzse", "repair", "repair-se"), k)]
    assert forking == {frozenset(a + c) for a in index_side for c in child_side}
    assert len(forks) == len(forking) == 21
    monkeypatch.delattr(os, "fork")
    inline = [json.dumps(size_report(s, text)) for s in SUBSETS]
    assert forked == inline
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_size_report_runs_inline_when_fork_fails(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    text = FORK_TEXTS["periodic"]
    expected = size_report(METHODS, text)
    monkeypatch.setattr(os, "fork", no_fork)
    assert size_report(METHODS, text) == expected


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_size_report_repeated_method_once(fork, monkeypatch, tmp_path):
    text = FORK_TEXTS["periodic"]
    expected = size_report(["repair", "lzse", "lz77", "repair-se"], text)
    forks = counting_fork(monkeypatch)
    if not fork:
        monkeypatch.delattr(os, "fork")
    # greedy may parse in the forked child, so each parse appends to a file
    parses = tmp_path / "parses"
    parses.write_bytes(b"")
    real_greedy = baselines.greedy_factorize

    def greedy(t):
        with open(parses, "ab") as fh:
            fh.write(b".")
        return real_greedy(t)

    monkeypatch.setattr(baselines, "greedy_factorize", greedy)
    rep = size_report(["repair", "lzse", "lz77", "repair", "repair-se", "lzse", "lz77"], text)
    assert json.dumps(rep) == json.dumps(expected)
    assert parses.read_bytes() == b"." and len(forks) == int(fork)


def test_orsp_source_stream_entropy():
    rng = random.Random(44)
    for _ in range(20):
        m = rng.randint(2, 64)
        inst = gen_orsp(m, seed=rng.randrange(1 << 30))
        fact = greedy_factorize(inst.text)
        fs = extract_field_streams("lzse", fact)
        assert all(1 <= s <= m for s in fs.streams["source"])
        assert h0(fs.streams["source"]) <= math.log2(m) + 1e-12


def assert_same_as_reference(t: Text) -> None:
    # sources included: both parsers must pick the same occurrence
    assert lz77_factorize(t) == lz77_factorize_reference(t)
    assert lzss_factorize(t) == lzss_factorize_reference(t)


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 26])
def test_neighbour_scan_matches_reference_random(sigma):
    rng = random.Random(900 + sigma)
    for _ in range(120):
        assert_same_as_reference(random_text(rng, rng.randint(0, 200), sigma))


def test_neighbour_scan_matches_reference_tokens():
    rng = random.Random(77)
    symbols = [0, 7, (1 << 31) + 5, (1 << 32) - 1]
    for _ in range(120):
        k = rng.randint(1, 4)
        t = Text.from_tokens(rng.choice(symbols[:k]) for _ in range(rng.randint(0, 150)))
        assert_same_as_reference(t)


@pytest.mark.parametrize("text", [
    Text.from_str("a" * 3000),
    # rank order is position order, so every position stays on the stack
    Text.from_str("a" * 3000 + "b"),
    Text.from_str("ab" * 1500),
    Text.from_str("abcab" * 700),
    block_repetitive(5, 1 << 16),
], ids=["unary", "unary-then-b", "periodic-2", "periodic-5", "block-64KiB"])
def test_neighbour_scan_matches_reference_structured(text):
    assert_same_as_reference(text)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(b"abc"), st.integers(1, 40)),
                max_size=12))
def test_neighbour_scan_matches_reference_runs(runs):
    assert_same_as_reference(Text(bytes(c for c, k in runs for _ in range(k))))
