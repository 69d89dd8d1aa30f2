"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Criterion 2's factor-count clause is asserted exactly as stated;
on a mismatch the measured counts are printed alongside the formula.
"""

import json
import math
import random
import time
from functools import reduce

import pytest

from lzse.access import build_access_index
from lzse.archive import deserialize, serialize
from lzse.baselines import extract_field_streams, h0
from lzse.cli import main as cli_main
from lzse.dag import (compute_path_counts, heavy_paths, max_light_edges_on_path,
                      select_heavy_edges)
from lzse.factorization import Copy, Factorization, decode, validate
from lzse.generators import (gen_lower_bound_family, gen_orsp, gen_periodic,
                             gen_random, gen_unary)
from lzse.grammar import grammar_to_lzse, repair_compress
from lzse.greedy import greedy_factorize
from lzse.ibst import Ibst
from lzse.text import Text

from helpers import (all_binary_texts, brute_path_counts, cfg_to_slp, expand, factor,
                     greedy_factorize_oracle, orsp_solve_from_slp, random_valid_factorization,
                     random_text, subtree_spans, zipf_words_pattern)


def report(line: str) -> None:
    print(line, flush=True)


# -- shared corpora ------------------------------------------------------------

def block_repetitive_megabyte() -> Text:
    rng = random.Random(2024)
    pool = [bytes(rng.randrange(256) for _ in range(256)) for _ in range(64)]
    data = b"".join(pool[rng.randrange(64)] for _ in range(4096))
    assert len(data) == 1 << 20
    return Text.from_bytes(data)


@pytest.fixture(scope="module")
def megabyte_text() -> Text:
    return block_repetitive_megabyte()


@pytest.fixture(scope="module")
def megabyte_fact(megabyte_text) -> Factorization:
    return greedy_factorize(megabyte_text)


# -- criterion 1: greedy oracle equivalence ------------------------------------

def test_criterion_1_greedy_oracle_equivalence():
    t0 = time.time()
    count = 0
    for t in all_binary_texts(12):
        assert greedy_factorize(t).factors == greedy_factorize_oracle(t).factors, \
            t.symbols
        count += 1
    assert count == 8190
    rng = random.Random(4242)
    for _ in range(500):
        t = random_text(rng, rng.randint(1, 2000), rng.choice([2, 4, 16]))
        f = greedy_factorize(t)
        assert f.factors == greedy_factorize_oracle(t).factors, t.symbols
        assert decode(f) == t
    elapsed = time.time() - t0
    assert elapsed < 120, f"runtime {elapsed:.0f}s exceeds 2 minutes"
    report(f"CRITERION 1: PASS — 8190 exhaustive + 500 random strings, "
           f"zero mismatches, {elapsed:.0f}s")


# -- criterion 2: the adversarial family --------------------------------------

def _family_counts():
    rows = []
    for m in range(2, 9):
        fam = gen_lower_bound_family(m)
        g = greedy_factorize(fam.text).z
        rows.append((m, g, 2 * m * m - 2 * m + 7, fam))
    return rows


def test_criterion_2_alternative_and_ratio_trend():
    ratios = []
    for m, g, formula, fam in _family_counts():
        assert validate(fam.alternative, fam.text) is None
        assert decode(fam.alternative) == fam.text
        assert fam.alternative.z == m * m + 6
        ratios.append(g / fam.alternative.z)
    assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
    assert all(r < 2 for r in ratios)
    report(f"CRITERION 2 (alternative + ratio trend): PASS — m^2+6 factors "
           f"validate for m=2..8; greedy/alternative ratios "
           f"{', '.join(f'{r:.3f}' for r in ratios)} rise monotonically toward 2")


def test_criterion_2_greedy_count_formula():
    rows = _family_counts()
    lines = [f"m={m}: greedy={g} formula={formula}" for m, g, formula, _ in rows]
    mismatch = [(m, g, formula) for m, g, formula, _ in rows if g != formula]
    if mismatch:
        report("CRITERION 2 (count formula): FAIL — measured greedy counts "
               "diverge from 2m^2-2m+7: " + "; ".join(lines)
               + ".  A count below the formula means greedy copied across a "
               "block boundary, as it does when a sweep appends its blocks "
               "with j ascending.")
    else:
        report("CRITERION 2 (count formula): PASS")
    assert not mismatch, f"greedy counts diverge from 2m^2-2m+7: {mismatch}"


# -- criterion 3: ORSP family ---------------------------------------------------

def test_criterion_3_orsp():
    rng = random.Random(31337)
    semigroups = [
        (lambda a, b: a + b, lambda s: s + 1),
        (max, lambda s: (s * 13) % 31),
        (lambda a, b: a + b, lambda s: (s,)),
    ]
    max_ops_ratio = 0.0
    for _ in range(50):
        m = rng.randint(1, 64)
        inst = gen_orsp(m, seed=rng.randrange(1 << 30))
        fact = greedy_factorize(inst.text)
        assert fact.z == 3 * m + 1
        copies = [f for f in fact.factors if isinstance(f, Copy)]
        assert len(copies) == m
        for f, (l, r) in zip(copies, inst.queries):
            assert (f.start, f.start + f.count - 1) == (l, r)
        slp = cfg_to_slp(repair_compress(inst.text))
        for op, lift in semigroups:
            res = orsp_solve_from_slp(slp, inst.is_delimiter, op, lift)
            direct = [reduce(op, [lift(k - 1) for k in range(l, r + 1)])
                      for l, r in inst.queries]
            assert res.answers == direct
            assert res.operations <= 4 * slp.size
            max_ops_ratio = max(max_ops_ratio, res.operations / slp.size)
    report(f"CRITERION 3: PASS — 50 ORSP instances, greedy = 3m+1 with exact "
           f"sources, 3 semigroups match direct evaluation, op count <= "
           f"{max_ops_ratio:.2f}*size(slp) (bound 4)")


# -- criterion 4: random access -------------------------------------------------

def _check_access_everywhere(fact: Factorization, label: str,
                             worst: list) -> None:
    text = decode(fact)
    ix = build_access_index(fact)
    n = fact.n
    bound = 2 * math.log2(n) + 2 if n > 1 else 2
    syms = text.symbols
    for p in range(1, n + 1):
        sym, iters, _ = ix.access_counted(p)
        assert sym == syms[p - 1], (label, p)
        assert iters <= bound, (label, p, iters)
        if iters > worst[0]:
            worst[0] = iters
            worst[1] = bound
    nodes, hints = ix.footprint()
    if fact.z:
        assert nodes + hints <= 16 * fact.z, (label, nodes, hints, fact.z)


def test_criterion_4_random_access(megabyte_text, megabyte_fact):
    t0 = time.time()
    worst = [0, 0.0]
    rng = random.Random(555)
    # greedy factorizations, including the 1 MiB block-repetitive text
    _check_access_everywhere(megabyte_fact, "block-1MiB", worst)
    _check_access_everywhere(greedy_factorize(gen_unary(1 << 16)), "unary-64Ki", worst)
    _check_access_everywhere(greedy_factorize(gen_periodic("abracadabra", 3000)),
                             "periodic-33K", worst)
    for _ in range(25):
        t = random_text(rng, rng.randint(1, 2000), rng.choice([2, 4, 26]))
        _check_access_everywhere(greedy_factorize(t), "random", worst)
    # grammar-converted factorizations
    for _ in range(10):
        t = random_text(rng, rng.randint(4, 1500), rng.choice([2, 4]))
        fact = grammar_to_lzse(repair_compress(t))
        _check_access_everywhere(fact, "repair-se", worst)
    zipf = Text.from_bytes(zipf_words_pattern(rng, 1 << 16))
    _check_access_everywhere(grammar_to_lzse(repair_compress(zipf)), "zipf-se", worst)
    # handcrafted non-greedy factorizations
    _check_access_everywhere(gen_lower_bound_family(6).alternative, "family-m6", worst)
    for _ in range(40):
        _check_access_everywhere(random_valid_factorization(rng, max_z=50),
                                 "handcrafted", worst)
    elapsed = time.time() - t0
    assert elapsed < 120, f"runtime {elapsed:.0f}s exceeds 2 minutes"
    report(f"CRITERION 4: PASS — access == decoded text at every position "
           f"(texts up to 1 MiB), worst loop iterations {worst[0]} vs bound "
           f"{worst[1]:.1f}, footprint <= 16z, {elapsed:.0f}s")


# -- criterion 5: IBST properties ----------------------------------------------

def test_criterion_5_ibst():
    rng = random.Random(77)
    t0 = time.time()
    trees = 0
    while trees < 1000:
        m = rng.randint(1, 512 if trees % 50 == 0 else 96)
        bs = [rng.randint(-40, 40)]
        for _ in range(m):
            bs.append(bs[-1] + rng.randint(1, 5))
        tree = Ibst(bs)
        trees += 1
        spans = {v: sub for v, _, sub in subtree_spans(tree)}
        for v in range(tree.m):
            for ch in (tree.left[v], tree.right[v]):
                if ch >= 0:
                    assert 2 * spans[ch] <= spans[v]
        root_span = bs[-1] - bs[0]
        ranges = [(i, min(i + 1 + (i % 7), m)) for i in range(0, m, 3)] or [(0, m)]
        hints = [tree.hint_for(i, j) for i, j in ranges]
        for q in range(bs[0], bs[-1]):
            x, visits = tree.search_counted(q)
            assert bs[x] <= q < bs[x + 1]
            assert visits <= math.log2(root_span / (bs[x + 1] - bs[x])) + 3
        for hint in hints:
            for q in range(bs[hint.i], bs[hint.j]):
                x, visits = tree.search_with_hint_counted(hint, q)
                assert tree.search_counted(q)[0] == x
                ratio = (bs[hint.j] - bs[hint.i]) / (bs[x + 1] - bs[x])
                assert visits <= math.log2(ratio) + 3
    elapsed = time.time() - t0
    report(f"CRITERION 5: PASS — 1000 random trees, hinted == root search at "
           f"every query point, halving and visit bounds hold, {elapsed:.0f}s")


# -- criterion 6: SymCPD --------------------------------------------------------

def test_criterion_6_symcpd():
    rng = random.Random(606)
    for _ in range(400):
        fact = random_valid_factorization(rng, max_z=60)
        s, e, nd = compute_path_counts(fact)
        sb, eb, ndb = brute_path_counts(fact)
        assert (s, e, nd) == (sb, eb, ndb)
        # source/sink accounting
        incoming = set()
        for i, f in enumerate(fact.factors, start=1):
            if isinstance(f, Copy):
                incoming.update(range(f.start, f.start + f.count))
        sources = [i for i in range(1, fact.z + 1) if i not in incoming]
        sinks = [i for i in range(1, fact.z + 1) if not isinstance(factor(fact, i), Copy)]
        assert sum(s[i - 1] for i in sources) == nd
        assert sum(e[i - 1] for i in sinks) == nd
        heavy = select_heavy_edges(fact, s, e)
        dec = heavy_paths(fact, heavy)  # raises on a second incoming heavy edge
        incoming_heavy = [0] * (fact.z + 1)
        for i in range(1, fact.z + 1):
            if heavy[i - 1]:
                incoming_heavy[heavy[i - 1]] += 1
        assert all(c <= 1 for c in incoming_heavy)
        assert max_light_edges_on_path(fact, dec) <= 2 * math.log2(nd) + 1e-9
    report("CRITERION 6: PASS — 400 random DAGs (z <= 60): path counts match "
           "enumeration, source/sink sums equal nD, light edges <= 2 lg nD, "
           "at most one incoming heavy edge")


# -- criterion 7: grammar conversion bound --------------------------------------

def test_criterion_7_grammar_conversion():
    rng = random.Random(700)
    checked = 0
    for _ in range(100):
        if rng.random() < 0.5:
            t = random_text(rng, rng.randint(4, 800), rng.choice([2, 4, 26]))
        else:
            pat = bytes(rng.randrange(rng.choice([2, 4, 26]))
                        for _ in range(rng.randint(2, 40)))
            t = gen_periodic(pat, rng.randint(2, 60))
        g = repair_compress(t)
        fact = grammar_to_lzse(g)
        assert fact.z <= g.size
        assert decode(fact) == expand(g) == t
        assert validate(fact, t) is None
        checked += 1
    # random acyclic grammars, not just repair outputs
    for _ in range(100):
        base = 500
        sigma = rng.choice([2, 3, 6])
        rules = {}
        for k in range(rng.randint(1, 14)):
            pool = list(range(sigma)) + [base + u for u in range(k)]
            rules[base + k] = tuple(rng.choice(pool)
                                    for _ in range(rng.randint(1, 5)))
        from lzse.grammar import Cfg
        g = Cfg(rules, base + len(rules) - 1)
        fact = grammar_to_lzse(g)
        t = expand(g)
        assert fact.z <= g.size
        assert decode(fact) == t
        assert validate(fact, t) is None
        checked += 1
    report(f"CRITERION 7: PASS — {checked} grammars: conversion validates, "
           f"decodes to the expansion, factor count <= grammar size")


# -- criterion 8: entropy --------------------------------------------------------

def test_criterion_8_entropy():
    assert h0([0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-9)
    assert h0([7] * 13) == pytest.approx(0.0, abs=1e-9)
    assert h0(list("abcc")) == pytest.approx(1.5, abs=1e-9)
    assert h0(list("aab")) == pytest.approx(-(2/3) * math.log2(2/3)
                                            - (1/3) * math.log2(1/3), abs=1e-9)
    rng = random.Random(800)
    for _ in range(25):
        m = rng.randint(2, 64)
        inst = gen_orsp(m, seed=rng.randrange(1 << 30))
        fs = extract_field_streams("lzse", greedy_factorize(inst.text))
        assert h0(fs.streams["source"]) <= math.log2(m) + 1e-12
    report("CRITERION 8: PASS — H0 matches closed forms within 1e-9; ORSP "
           "source streams stay within lg m bits")


# -- criterion 9: desk-scale stats ordering --------------------------------------

def test_criterion_9_stats_on_periodic_corpus(tmp_path, capsys):
    rng = random.Random(123)
    pattern = zipf_words_pattern(rng, 256 * 1024)
    corpus = gen_periodic(pattern, 4)
    assert len(corpus) == 1 << 20
    path = tmp_path / "periodic.corpus"
    path.write_bytes(corpus.to_bytes())
    t0 = time.time()
    rc = cli_main(["stats", str(path), "--methods",
                   "lzss,lzse,repair,repair-se", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    rep = json.loads(out)
    elapsed = time.time() - t0
    m = rep["methods"]
    assert rep["repair_se_factors_le_repair_size"] is True
    assert m["repair-se"]["factors"] <= m["repair"]["grammar_size"]
    lzss_len = m["lzss"]["streams"]["length"]["h0"]
    lzse_len = m["lzse"]["streams"]["length"]["h0"]
    rse_len = m["repair-se"]["streams"]["length"]["h0"]
    assert lzse_len < lzss_len
    assert rse_len < lzss_len
    report(f"CRITERION 9: PASS — 1 MiB periodic corpus: repair-se factors "
           f"{m['repair-se']['factors']} <= repair size "
           f"{m['repair']['grammar_size']}; length-stream H0 lzse {lzse_len:.3f} "
           f"and repair-se {rse_len:.3f} < lzss {lzss_len:.3f}, {elapsed:.0f}s")


# -- criterion 10: round trips ----------------------------------------------------

def test_criterion_10_round_trips(tmp_path, megabyte_text, megabyte_fact):
    rng = random.Random(1000)
    corpus = [
        Text.from_str("ababbababab"),
        Text.from_str(""),
        Text.from_str("x"),
        gen_unary(1 << 12),
        gen_periodic("abracadabra", 300),
        gen_random(5000, 4, 9),
        gen_random(5000, 200, 10),
        gen_orsp(40, seed=4).text,
        gen_lower_bound_family(5).text,
    ]
    for text in corpus:
        fact = greedy_factorize(text)
        blob = serialize(fact)
        restored = deserialize(blob)
        assert restored.factors == fact.factors and restored.n == fact.n
        assert decode(restored) == text
    # the 1 MiB factorization, without re-parsing
    blob = serialize(megabyte_fact)
    assert deserialize(blob).factors == megabyte_fact.factors
    # CLI-level byte identity
    src = tmp_path / "roundtrip.bin"
    src.write_bytes(gen_random(40000, 256, 77).to_bytes())
    arc = tmp_path / "roundtrip.lzse"
    out = tmp_path / "roundtrip.out"
    assert cli_main(["compress", str(src), "-o", str(arc)]) == 0
    assert cli_main(["decompress", str(arc), "-o", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()
    assert cli_main(["verify", str(arc), "--original", str(src)]) == 0
    report("CRITERION 10: PASS — archive and CLI round trips are exact on all "
           "corpus files (including the 1 MiB factorization)")
