import random
from array import array

import pytest

from lzse.factorization import Copy, decode, validate
from lzse.generators import (gen_lower_bound_family, gen_orsp, gen_periodic,
                             gen_random, gen_unary)
from lzse.greedy import greedy_factorize
from lzse.text import TOKEN_ALPHABET, Text

from helpers import orsp_instance


def test_orsp_template_small():
    inst = orsp_instance(2, [(1, 2), (2, 2)])
    assert tuple(inst.text.symbols) == (0, 1, 2, 0, 1, 3, 1, 4)
    assert len(inst.text) == 8
    assert inst.text.alphabet_size == 5


def test_orsp_minimal():
    inst = orsp_instance(1, [(1, 1)])
    assert tuple(inst.text.symbols) == (0, 1, 0, 2)


def test_orsp_seeded_greedy_count():
    inst = gen_orsp(3, seed=7)
    assert greedy_factorize(inst.text).z == 10  # 3m + 1
    assert inst.text == orsp_instance(3, inst.queries).text


def test_orsp_rejects_bad_queries():
    with pytest.raises(ValueError):
        orsp_instance(2, [(1, 3), (1, 1)])
    with pytest.raises(ValueError):
        orsp_instance(2, [(2, 1), (1, 1)])
    with pytest.raises(ValueError):
        gen_orsp(0)


def test_orsp_greedy_structure():
    rng = random.Random(12)
    for _ in range(25):
        m = rng.randint(1, 64)
        inst = gen_orsp(m, seed=rng.randrange(1 << 30))
        fact = greedy_factorize(inst.text)
        assert fact.z == 3 * m + 1
        copies = [f for f in fact.factors if isinstance(f, Copy)]
        assert len(copies) == m
        for f, (l, r) in zip(copies, inst.queries):
            assert (f.start, f.start + f.count - 1) == (l, r)


def test_lower_bound_family_alternative():
    for m in range(2, 7):
        fam = gen_lower_bound_family(m)
        assert validate(fam.alternative, fam.text) is None
        assert decode(fam.alternative) == fam.text
        assert fam.alternative.z == m * m + 6


def test_lower_bound_family_shape():
    fam = gen_lower_bound_family(2)
    assert len(fam.text) == 26  # |A| + |B| + |A_1 b^4 b| = 8 + 9 + 9
    s = fam.text.to_str()
    assert s == "a" * 8 + "b" * 9 + "a" * 4 + "b" * 5
    with pytest.raises(ValueError):
        gen_lower_bound_family(1)


def test_lower_bound_family_greedy_counts():
    # regression guard: counts pinned from the oracle-verified parser.
    # Greedy parses A B in 2m+5 factors and each of the (m-1)^2 appended
    # blocks in two, [A_i b^(2^(j+1))][b], because with j descending inside
    # a sweep no copy reaches across a block boundary.  The alternative
    # parse has one factor per block, so its boundaries from factor 2m+5 on
    # are exactly the block ends, and each must also end a greedy factor.
    measured = {2: 11, 3: 19, 4: 31, 5: 47, 6: 67}
    for m, expect in measured.items():
        fam = gen_lower_bound_family(m)
        fact = greedy_factorize(fam.text)
        assert fact.z == expect
        assert expect == 2 * m * m - 2 * m + 7
        block_ends = fam.alternative.bounds[2 * m + 5:]
        assert len(block_ends) == (m - 1) ** 2 + 1
        assert set(block_ends) <= set(fact.bounds)


def test_simple_generators():
    assert gen_unary(8) == Text.from_str("aaaaaaaa")
    assert gen_unary(0) == Text.from_str("")
    assert gen_periodic("ab", 3) == Text.from_str("ababab")
    assert gen_periodic("ab", 0) == Text.from_str("")
    tokens = gen_periodic([1, 300], 2)
    assert tokens == Text.from_tokens([1, 300, 1, 300]) and not tokens.is_byte_mode
    assert gen_periodic([1, 300], 0) == Text.from_str("")
    draws = random.Random(5)
    assert gen_random(64, 300, 5) == Text.from_tokens([draws.randrange(300) for _ in range(64)])
    assert gen_random(100, 2, 42) == gen_random(100, 2, 42)
    assert gen_random(100, 2, 42) != gen_random(100, 2, 43)
    assert set(gen_random(500, 3, 7).symbols) == {0, 1, 2}
    assert gen_periodic([1, 300], 0).is_byte_mode
    with pytest.raises(ValueError):
        gen_unary(-1)
    with pytest.raises(ValueError):
        gen_random(10, 0, 1)


def test_token_buffers_handed_over_once():
    # a generator hands its own array to the Text; an array that a caller
    # keeps is copied, so changing it later cannot change the Text
    text = gen_random(64, 300, 5)
    assert type(text.symbols) is array and text.alphabet_size == TOKEN_ALPHABET
    mine = array("I", [1, 300, 7])
    kept = Text(mine, TOKEN_ALPHABET)
    assert kept.symbols is not mine
    mine[0] = 9
    assert kept == Text.from_tokens([1, 300, 7])
