import math
import random

import pytest

from lzse.access import EXIT_FINAL, EXIT_LEFT, EXIT_RIGHT, build_access_index
from lzse.factorization import Char, Copy, Factorization, access_naive, decode
from lzse.generators import gen_lower_bound_family
from lzse.grammar import grammar_to_lzse, repair_compress
from lzse.greedy import greedy_factorize
from lzse.text import Text

from helpers import random_text, random_valid_factorization

ABAB = Factorization([Char(97), Char(98), Copy(1, 2), Copy(3, 1)])
FIG = Factorization([Char(97), Char(98), Copy(1, 2), Copy(2, 2), Copy(1, 3)])


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
    res = skip.exit_query(1, 1)
    assert res.position == 2 and res.offset == 1 and res.kind == EXIT_FINAL


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
    # a one-factor path always exits EXIT_FINAL at the query offset, so it
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
    # heavy edge whose source extends past the heavy child on the right
    fact = Factorization([Char(c) for c in b"abcde"]
                         + [Copy(1, 5), Copy(1, 2), Copy(6, 2)])
    ix = build_access_index(fact)
    pid, pos = ix.locator[7]  # factor 8
    skip = ix.path_skips[pid]
    assert skip.path == [8, 6]
    res = skip.exit_query(1, 6)
    assert res.kind == EXIT_RIGHT and res.position == 1 and res.offset == 6
    check_everywhere(fact)


def test_left_exit_interval():
    # mirrored: source extends past the heavy child on the left
    fact = Factorization([Char(c) for c in b"abcde"]
                         + [Copy(1, 2), Copy(1, 5), Copy(6, 2)])
    ix = build_access_index(fact)
    pid, pos = ix.locator[7]
    skip = ix.path_skips[pid]
    assert skip.path == [8, 7]
    res = skip.exit_query(1, 1)
    assert res.kind == EXIT_LEFT and res.position == 1 and res.offset == 1
    check_everywhere(fact)


def test_access_rejects_out_of_range():
    ix = build_access_index(ABAB)
    with pytest.raises(ValueError):
        ix.access(0)
    with pytest.raises(ValueError):
        ix.access(7)


def test_build_rejects_invalid():
    fact = Factorization([Char(97), Copy(1, 1)])
    fact.factors = [Char(97), Copy(2, 1)]  # corrupt past the constructor
    with pytest.raises(ValueError, match="forward reference"):
        build_access_index(fact)


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
