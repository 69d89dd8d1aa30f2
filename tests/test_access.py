import math
import random

import pytest

from lzse.access import JUMP_FACTOR, access, build_access_index, extract, jump_budget
from lzse.factorization import Char, Copy, Factorization, decode
from lzse.generators import gen_lower_bound_family
from lzse.grammar import grammar_to_lzse, repair_compress
from lzse.greedy import greedy_factorize
from lzse.text import Text

from helpers import (access_naive, block_repetitive, deep_chain, factor, random_text,
                     random_valid_factorization, record_index_builds)

ABAB = Factorization([Char(97), Char(98), Copy(1, 2), Copy(3, 1)])
FIG = Factorization([Char(97), Char(98), Copy(1, 2), Copy(2, 2), Copy(1, 3)])
# heavy edge whose source extends past the heavy child on the right / left
RIGHT_EXIT = Factorization([Char(c) for c in b"abcde"]
                           + [Copy(1, 5), Copy(1, 2), Copy(6, 2)])
LEFT_EXIT = Factorization([Char(c) for c in b"abcde"]
                          + [Copy(1, 2), Copy(1, 5), Copy(6, 2)])


def check_everywhere(fact: Factorization, max_probe: int | None = None):
    ix = build_access_index(fact)
    text = decode(fact)
    n = fact.n
    positions = range(1, n + 1)
    if max_probe is not None and n > max_probe:
        rng = random.Random(n)
        positions = [rng.randint(1, n) for _ in range(max_probe)]
    bound = 2 * math.log2(n) + 2 if n > 1 else 2
    for p in positions:
        sym, iters, _ = ix.access_counted(p)
        assert sym == text[p - 1] == access_naive(fact, p)
        assert iters <= bound
    nodes, hints = ix.footprint()
    if fact.z:
        assert nodes + hints <= 16 * fact.z
    return ix


def test_abab_skip_structure():
    ix = build_access_index(ABAB)
    pid, pos = ix.locator[3]  # factor 4
    skip = ix.path_skips[pid]
    assert skip.path == [4, 3]
    assert skip.L == [0, 0] and skip.R == [2, 2]
    assert skip.ibst.boundaries == [0, 2]  # both side intervals were empty
    # the one interval exits into F3 at offset q - base and jumps on through
    # F3's own source hint
    assert skip.exits == [(3, -1, ix.src_hints[3])]
    assert skip.exits[0][2] is not None


def test_char_exit_has_no_hint():
    # a | =F1 : the path [2, 1] ends at a char factor, so its exit carries
    # no global hint and access stops there
    fact = Factorization([Char(97), Copy(1, 1)])
    ix = build_access_index(fact)
    skip = ix.path_skips[ix.locator[1][0]]
    assert skip.path == [2, 1]
    assert skip.exits == [(1, -1, None)]
    assert [ix.access_counted(p) for p in (1, 2)] == [(97, 0, 2), (97, 1, 2)]


def test_abab_access_path():
    ix = build_access_index(ABAB)
    sym, iters, _ = ix.access_counted(5)
    assert sym == ord("a") and iters == 1
    check_everywhere(ABAB)


def test_char_only_has_trivial_paths():
    fact = Factorization([Char(c) for c in b"abc"])
    ix = build_access_index(fact)
    assert all(skip is None for skip in ix.path_skips)
    check_everywhere(fact)


def test_figure_global_boundaries():
    ix = build_access_index(FIG)
    assert ix.global_ibst.boundaries == [1, 2, 3, 5, 8, 12]
    assert len(ix.paths) == 5  # all singletons
    check_everywhere(FIG)


def test_single_node_path_exit_is_final():
    # a one-factor path always takes its final exit at the query offset, so it
    # carries no skip structure and access jumps straight to its source
    rng = random.Random(36)
    text = random_text(rng, 300, 2)
    for fact in (FIG, greedy_factorize(text)):
        ix = build_access_index(fact)
        expected = decode(fact)
        singles = [pid for pid, path in enumerate(ix.paths) if len(path) == 1]
        assert singles
        for pid in singles:
            assert ix.path_skips[pid] is None
            f = ix.paths[pid][0]
            for p in range(fact.bounds[f - 1], fact.bounds[f]):
                assert ix.access_counted(p)[0] == expected[p - 1]


def test_right_exit_interval():
    ix = build_access_index(RIGHT_EXIT)
    pid, pos = ix.locator[7]  # factor 8
    skip = ix.path_skips[pid]
    assert skip.path == [8, 6]
    assert skip.ibst.boundaries == [0, 5, 7]
    # q = 5 (s = 1, r = 6) lands right of F6 in F8's source: exit at F8,
    # offset 6, jumping into the range of F7 alone
    idx = skip.ibst.search_counted(5)[0]
    assert skip.exits[idx][:2] == (8, -1)
    hint = skip.exits[idx][2]
    assert (hint.i, hint.j) == (6, 7)
    assert skip.exits[0] == (6, -1, ix.src_hints[6])
    check_everywhere(RIGHT_EXIT)


def test_left_exit_interval():
    ix = build_access_index(LEFT_EXIT)
    pid, pos = ix.locator[7]
    skip = ix.path_skips[pid]
    assert skip.path == [8, 7]
    assert skip.ibst.boundaries == [0, 2, 7]
    # q = 0 (s = 1, r = 1) lands left of F7 in F8's source: exit at F8,
    # offset 1, jumping into the range of F6 alone
    idx = skip.ibst.search_counted(0)[0]
    assert skip.exits[idx][:2] == (8, -1)
    hint = skip.exits[idx][2]
    assert (hint.i, hint.j) == (5, 6)
    assert skip.exits[1] == (7, 1, ix.src_hints[7])
    check_everywhere(LEFT_EXIT)


# (symbol, loop iterations, IBST node visits) at every position: a change to
# the index layout must keep what each query costs, not only its answer
PINNED_COUNTS = {
    "ABAB": (ABAB, [(97, 0, 3), (98, 0, 2), (97, 1, 4), (98, 1, 3), (97, 1, 5),
                    (98, 1, 4)]),
    "FIG": (FIG, [(97, 0, 4), (98, 0, 3), (97, 1, 4), (98, 1, 3), (98, 1, 3),
                  (97, 2, 4), (98, 2, 3), (97, 1, 5), (98, 1, 4), (97, 2, 5),
                  (98, 2, 4)]),
    "LEFT_EXIT": (LEFT_EXIT, [(97, 0, 4), (98, 0, 3), (99, 0, 4), (100, 0, 2),
                              (101, 0, 4), (97, 1, 5), (98, 1, 4), (97, 1, 5),
                              (98, 1, 4), (99, 1, 5), (100, 1, 3), (101, 1, 4),
                              (97, 2, 7), (98, 2, 6), (97, 1, 6), (98, 1, 5),
                              (99, 1, 6), (100, 1, 4), (101, 1, 5)]),
    "RIGHT_EXIT": (RIGHT_EXIT, [(97, 0, 4), (98, 0, 3), (99, 0, 2), (100, 0, 4),
                                (101, 0, 3), (97, 1, 5), (98, 1, 4), (99, 1, 3),
                                (100, 1, 5), (101, 1, 4), (97, 1, 5), (98, 1, 4),
                                (97, 1, 6), (98, 1, 5), (99, 1, 4), (100, 1, 6),
                                (101, 1, 5), (97, 2, 7), (98, 2, 6)]),
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_access_counted_pinned(name):
    fact, expected = PINNED_COUNTS[name]
    ix = build_access_index(fact)
    assert [ix.access_counted(p) for p in range(1, fact.n + 1)] == expected


def _skips(rng):
    for _ in range(150):
        fact = random_valid_factorization(rng, max_z=50)
        ix = build_access_index(fact)
        for skip in ix.path_skips:
            if skip is not None:
                yield fact, ix, skip


def test_skip_right_ends():
    # the R recurrence runs from the path's last node back up; it must agree
    # with R_j = L_j + |F_{i_j}| at every node
    count = 0
    for fact, _, skip in _skips(random.Random(51)):
        assert skip.R == [lj + fact.length(f) for lj, f in zip(skip.L, skip.path)]
        count += 1
    assert count > 100


def test_exit_table_matches_jump_chain():
    # follow the in-path jump chain one factor at a time and compare where it
    # leaves the path with the exit table entry found by one skip search
    for fact, ix, skip in _skips(random.Random(52)):
        path = skip.path
        for s, start in enumerate(path, start=1):
            for r in range(1, fact.length(start) + 1):
                j, off = s - 1, r
                while j < len(path) - 1:
                    child = path[j + 1]
                    pos = fact.src_l(path[j]) + off - 1
                    if not fact.pos_l(child) <= pos <= fact.pos_r(child):
                        break
                    j, off = j + 1, pos - fact.pos_l(child) + 1
                q = skip.L[s - 1] + r - 1
                f, base, hint = skip.exits[skip.ibst.search_counted(q)[0]]
                assert (f, q - base) == (path[j], off)
                if not isinstance(factor(fact, f), Copy):
                    assert hint is None
                    continue
                src = factor(fact, f)
                lo, hi = src.start, src.start + src.count - 1
                if j < len(path) - 1:  # left or right of the next path node
                    child = path[j + 1]
                    if fact.src_l(f) + off - 1 < fact.pos_l(child):
                        hi = child - 1
                    else:
                        lo = child + 1
                else:
                    assert hint is ix.src_hints[f]
                assert (hint.i, hint.j) == (lo - 1, hi)
                assert fact.bounds[hint.i] <= fact.src_l(f) + off - 1 < fact.bounds[hint.j]


def test_access_rejects_out_of_range():
    ix = build_access_index(ABAB)
    with pytest.raises(ValueError):
        ix.access(0)
    with pytest.raises(ValueError):
        ix.access(7)


def test_build_rejects_invalid():
    # an invalid factorization never reaches the index: both entry points
    # reject it, and a built one cannot be corrupted past the constructor
    with pytest.raises(ValueError, match="forward reference"):
        build_access_index(Factorization([Char(97), Copy(2, 1)]))
    with pytest.raises(ValueError, match="forward reference"):
        build_access_index(Factorization.from_lists([0, 2], [97, 1]))
    fact = Factorization([Char(97), Copy(1, 1)])
    with pytest.raises(AttributeError):
        fact.factors = [Char(97), Copy(2, 1)]
    with pytest.raises(AttributeError):
        fact.start = (0, 2)
    with pytest.raises(TypeError):
        fact.start[1] = 2
    assert build_access_index(fact).access(2) == 97


def test_extract():
    ix = build_access_index(FIG)
    assert ix.extract(1, 11) == decode(FIG)
    assert ix.extract(5, 7) == Text.from_str("bab")
    assert ix.extract(3, 3) == Text.from_str("a")
    with pytest.raises(ValueError):
        ix.extract(0, 2)
    with pytest.raises(ValueError):
        ix.extract(5, 12)


def test_greedy_factorizations_random():
    rng = random.Random(6)
    for _ in range(60):
        t = random_text(rng, rng.randint(1, 400), rng.choice([2, 4, 26]))
        check_everywhere(greedy_factorize(t))


def test_grammar_converted_factorizations():
    rng = random.Random(16)
    for _ in range(30):
        t = random_text(rng, rng.randint(4, 300), rng.choice([2, 4]))
        fact = grammar_to_lzse(repair_compress(t))
        assert decode(fact) == t
        check_everywhere(fact)


def test_handcrafted_factorizations():
    rng = random.Random(26)
    for _ in range(80):
        check_everywhere(random_valid_factorization(rng, max_z=40))
    fam = gen_lower_bound_family(4)
    check_everywhere(fam.alternative)


def test_unary_deep_chain():
    fact = greedy_factorize(Text.from_str("a" * 4096))
    check_everywhere(fact)


def _hint_families():
    yield "block", greedy_factorize(block_repetitive(12, 1 << 16))
    rng = random.Random(12)
    for _ in range(20):
        t = random_text(rng, rng.randint(1, 2000), rng.choice([2, 4, 26]))
        yield "greedy", greedy_factorize(t)
    for _ in range(10):
        t = random_text(rng, rng.randint(4, 1500), rng.choice([2, 4]))
        yield "repair", grammar_to_lzse(repair_compress(t))


# (IBST nodes, hints) summed per family, as the index built them when every
# copy factor computed its own hint
FOOTPRINTS = {"block": (4164, 3909), "greedy": (9110, 8981), "repair": (1858, 1492)}


def test_source_hints_shared_per_range():
    totals = {}
    for family, fact in _hint_families():
        ix = build_access_index(fact)
        g = ix.global_ibst
        by_range = {}
        for i, f in enumerate(fact.factors, start=1):
            hint = ix.src_hints[i]
            if not isinstance(f, Copy):
                assert hint is None
                continue
            assert hint == g.hint_for(f.start - 1, f.start + f.count - 1)
            assert by_range.setdefault((hint.i, hint.j), hint) is hint
        # a path exit that lands in a copy factor's source range shares its hint
        for skip in ix.path_skips:
            if skip is None:
                continue
            for _, _, hint in skip.exits:
                if hint is not None:
                    assert hint == g.hint_for(hint.i, hint.j)
                    assert by_range.setdefault((hint.i, hint.j), hint) is hint
        nodes, hints = ix.footprint()
        a, b = totals.get(family, (0, 0))
        totals[family] = (a + nodes, b + hints)
    assert totals == FOOTPRINTS


def test_jump_budget_pinned():
    # B = 4 * ceil(lg(n + 1)); CHANGES.md gives the argument for the factor
    assert JUMP_FACTOR == 4
    assert [jump_budget(n) for n in (0, 1, 2, 3, 4, 10 ** 4, 1 << 20, 1 << 69)] == \
        [0, 4, 8, 8, 12, 56, 84, 280]


def _one_shot_families():
    rng = random.Random(18)
    tokens = [0, 300, (1 << 31) + 5, (1 << 32) - 1]
    for _ in range(12):
        t = random_text(rng, rng.randint(1, 600), rng.choice([2, 4, 26]))
        yield greedy_factorize(t)
        yield grammar_to_lzse(repair_compress(t))
        tok = Text.from_tokens(tokens[s % 4] for s in t)
        yield greedy_factorize(tok)
        yield grammar_to_lzse(repair_compress(tok), alphabet_size=tok.alphabet_size)
    yield greedy_factorize(block_repetitive(18, 1 << 14))
    yield gen_lower_bound_family(5).alternative
    for _ in range(20):
        yield random_valid_factorization(rng, max_z=40)


def test_one_shot_reads_match_decode(monkeypatch):
    # none of these chains passes the budget, so no index is built
    built = record_index_builds(monkeypatch)
    rng = random.Random(81)
    for fact in _one_shot_families():
        text = decode(fact)
        n = fact.n
        for p in [1, n] + [rng.randint(1, n) for _ in range(40)]:
            assert access(fact, p) == text[p - 1]
        for _ in range(20):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            part = extract(fact, lo, hi)
            assert part == Text(text.symbols[lo - 1:hi], fact.alphabet_size)
            assert part.alphabet_size == fact.alphabet_size
        assert extract(fact, 1, n) == text
    assert built == []


def test_deep_chain_takes_the_fallback(monkeypatch):
    # position p sits p - 1 jumps deep; past B the index is built once and
    # answers from where the chain stopped
    fact = deep_chain(10 ** 4)
    b = jump_budget(fact.n)
    built = record_index_builds(monkeypatch)
    assert access(fact, b + 1) == 97 and built == []
    assert access(fact, b + 2) == 97 and built == [fact]
    assert access(fact, fact.n) == 97 and len(built) == 2
    # the rest of an extract slices what it emitted; one build serves a call
    del built[:]
    assert extract(fact, b + 2, fact.n) == Text(b"a" * (fact.n - b - 1))
    assert built == [fact]
    assert extract(fact, 1, b + 1) == Text(b"a" * (b + 1)) and len(built) == 1
    # two interleaved chains: the fallback must keep each position's symbol
    fact = Factorization([Char(97), Char(98)] + [Copy(i, 1) for i in range(1, 3000)])
    text = decode(fact)
    del built[:]
    for p in (fact.n - 1, fact.n, 2 * jump_budget(fact.n) + 3):
        assert access(fact, p) == text[p - 1]
    assert len(built) == 3
    assert extract(fact, 1000, 1100) == Text(text.symbols[999:1100])
    ix = build_access_index(fact)
    assert ix.extract(1000, 2999) == Text(text.symbols[999:2999])


def test_one_shot_reads_reject_out_of_range():
    for fact in (ABAB, Factorization([])):
        n = fact.n
        for p in (0, -1, n + 1):
            with pytest.raises(ValueError, match=f"position {p} out of range 1..{n}"):
                access(fact, p)
        for lo, hi in ((0, 2), (3, 2), (1, n + 1)):
            with pytest.raises(ValueError, match=fr"range \[{lo}, {hi}\] out of bounds"):
                extract(fact, lo, hi)
