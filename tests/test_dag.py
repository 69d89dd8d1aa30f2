import math
import random

import pytest

from lzse.dag import (compute_path_counts, heavy_paths, max_light_edges_on_path,
                      select_heavy_edges)
from lzse.factorization import Char, Copy, Factorization
from lzse.greedy import greedy_factorize
from lzse.text import Text

from helpers import (brute_path_counts, heavy_edges_by_range_argmax, random_text,
                     random_valid_factorization)

FIG = Factorization([Char(97), Char(98), Copy(1, 2), Copy(2, 2), Copy(1, 3)])
ABAB = Factorization([Char(97), Char(98), Copy(1, 2), Copy(3, 1)])
# a | b | ab | abab, then one copy whose heavy child F4 (length 4) just
# reaches the middle symbol of its source
HEAVY_HEAD = [Char(97), Char(98), Copy(1, 2), Copy(1, 3)]
MIDPOINT_CASES = {
    # source "a", a single factor
    "single-factor": ([Char(97), Copy(1, 1)], [0, 1]),
    # source abab|ab, length 6: F4 ends at offset 3 = 6 // 2
    "even-left": (HEAVY_HEAD + [Copy(1, 2), Copy(4, 2)], [0, 0, 0, 0, 0, 4]),
    # source b|ab|abab, length 7: F4 starts at offset 3 = 7 // 2
    "odd-right": (HEAVY_HEAD + [Copy(2, 3)], [0, 0, 0, 0, 4]),
    # source abab|bab, length 7: F4 ends at offset 3
    "odd-left": (HEAVY_HEAD + [Copy(2, 2), Copy(4, 2)], [0, 0, 0, 0, 0, 4]),
    # F5's source ab|abab puts F4 under its midpoint, but F6 also copies
    # F4, so e_4 = 2 is outside the e bracket of F5 and F6: both light
    "e-bracket-fails": (HEAVY_HEAD + [Copy(3, 2), Copy(4, 1)], [0] * 6),
}


def test_path_counts_figure():
    s, e, nd = compute_path_counts(FIG)
    assert s == [1, 1, 2, 3, 4]
    assert e == [3, 4, 2, 1, 1]
    assert nd == 7 == s[3] + s[4] == e[0] + e[1]
    assert (s, e, nd) == brute_path_counts(FIG)


def test_path_counts_all_chars():
    f = Factorization([Char(c) for c in b"abc"])
    assert compute_path_counts(f) == ([1, 1, 1], [1, 1, 1], 3)


def test_path_counts_abab():
    s, e, nd = compute_path_counts(ABAB)
    assert s == [1, 1, 2, 2] and e == [1, 1, 1, 1] and nd == 2
    assert (s, e, nd) == brute_path_counts(ABAB)


def test_heavy_selection_abab():
    s, e, _ = compute_path_counts(ABAB)
    heavy = select_heavy_edges(ABAB, s, e)
    assert heavy == [0, 0, 0, 3]  # F4 -> F3 heavy, F3 -> F1 light


def test_heavy_selection_figure_all_light():
    s, e, _ = compute_path_counts(FIG)
    assert select_heavy_edges(FIG, s, e) == [0] * 5


def test_heavy_selection_char_only():
    f = Factorization([Char(0), Char(1)])
    s, e, _ = compute_path_counts(f)
    assert select_heavy_edges(f, s, e) == [0, 0]


def test_heavy_paths_abab():
    s, e, _ = compute_path_counts(ABAB)
    dec = heavy_paths(ABAB, select_heavy_edges(ABAB, s, e))
    assert sorted(map(tuple, dec.paths)) == [(1,), (2,), (4, 3)]
    pid, pos = dec.locator[4 - 1]
    assert dec.paths[pid] == [4, 3] and pos == 1
    assert dec.locator[3 - 1] == (pid, 2)


def test_heavy_paths_all_singletons():
    s, e, _ = compute_path_counts(FIG)
    dec = heavy_paths(FIG, select_heavy_edges(FIG, s, e))
    assert sorted(map(tuple, dec.paths)) == [(1,), (2,), (3,), (4,), (5,)]


def test_heavy_chain_of_three():
    # a | b | ab(1..2) | =F3 | =F4 : the three nested copies chain up
    f = Factorization([Char(97), Char(98), Copy(1, 2), Copy(3, 1), Copy(4, 1)])
    s, e, _ = compute_path_counts(f)
    heavy = select_heavy_edges(f, s, e)
    assert heavy == [0, 0, 0, 3, 4]
    dec = heavy_paths(f, heavy)
    assert [5, 4, 3] in dec.paths and len(dec.paths) == 3


def test_max_light_edges():
    char_only = Factorization([Char(0), Char(1)])
    s, e, _ = compute_path_counts(char_only)
    dec = heavy_paths(char_only, select_heavy_edges(char_only, s, e))
    assert max_light_edges_on_path(char_only, dec) == 0

    s, e, nd = compute_path_counts(ABAB)
    dec = heavy_paths(ABAB, select_heavy_edges(ABAB, s, e))
    assert max_light_edges_on_path(ABAB, dec) == 1
    assert 1 <= 2 * math.log2(nd)

    s, e, nd = compute_path_counts(FIG)
    dec = heavy_paths(FIG, select_heavy_edges(FIG, s, e))
    assert max_light_edges_on_path(FIG, dec) == 2
    assert 2 <= 2 * math.log2(nd)


def test_two_incoming_heavy_edges_rejected():
    f = Factorization([Char(0), Copy(1, 1), Copy(1, 1)])
    with pytest.raises(RuntimeError):
        heavy_paths(f, [0, 1, 1])  # deliberately corrupt heavy-child array


def test_cyclic_heavy_child_rejected():
    f = Factorization([Char(0), Copy(1, 1)])
    with pytest.raises(RuntimeError, match="cycle"):
        heavy_paths(f, [2, 1])  # F1 -> F2 -> F1: no path start, nothing covered


def test_random_counts_match_enumeration():
    rng = random.Random(4)
    for _ in range(250):
        fact = random_valid_factorization(rng, max_z=60)
        s, e, nd = compute_path_counts(fact)
        sb, eb, ndb = brute_path_counts(fact)
        assert s == sb and e == eb and nd == ndb
        heavy = select_heavy_edges(fact, s, e)
        dec = heavy_paths(fact, heavy)
        # vertex-disjoint cover
        seen = [False] * (fact.z + 1)
        for path in dec.paths:
            for v in path:
                assert not seen[v]
                seen[v] = True
        assert all(seen[1:])
        assert max_light_edges_on_path(fact, dec) <= 2 * math.log2(nd) + 1e-9


def _assert_heavy_matches_oracle(fact: Factorization) -> list[int]:
    s, e, _ = compute_path_counts(fact)
    heavy = select_heavy_edges(fact, s, e)
    assert heavy == heavy_edges_by_range_argmax(fact, s, e)
    return heavy


@pytest.mark.parametrize("name", sorted(MIDPOINT_CASES))
def test_heavy_child_under_source_midpoint(name):
    factors, expect = MIDPOINT_CASES[name]
    assert _assert_heavy_matches_oracle(Factorization(factors)) == expect


def test_heavy_edges_match_range_argmax_random():
    rng = random.Random(6)
    heavy_total = 0
    for t in range(400):
        if t % 4 == 3:  # greedy parses have copies over long factor runs
            fact = greedy_factorize(random_text(rng, rng.randint(1, 400),
                                                rng.choice([2, 3, 26])))
        else:
            fact = random_valid_factorization(rng, max_z=80,
                                              copy_bias=rng.choice([0.55, 0.8]))
        heavy_total += sum(1 for j in _assert_heavy_matches_oracle(fact) if j)
    assert heavy_total > 400  # the brackets pass often enough to test


def test_heavy_edges_match_range_argmax_block_repetitive():
    rng = random.Random(2024)
    pool = [bytes(rng.randrange(256) for _ in range(256)) for _ in range(16)]
    text = Text.from_bytes(b"".join(pool[rng.randrange(16)] for _ in range(256)))
    heavy = _assert_heavy_matches_oracle(greedy_factorize(text))
    assert any(heavy)
