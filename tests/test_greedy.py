import random

import pytest
from hypothesis import given, settings, strategies as st

from lzse.factorization import Char, Copy, Factorization, decode, validate
from lzse.generators import gen_lower_bound_family, gen_periodic, gen_random, gen_unary
from lzse.greedy import greedy_factorize
from lzse.suffixindex import build_suffix_index
from lzse.text import Text

from helpers import (all_binary_texts, block_repetitive, compute_extended_factors,
                     extended_factor_strings, factor, factor_string,
                     greedy_factorize_oracle, greedy_factorize_oracle_all_starts,
                     greedy_factorize_reference, random_text, traced_peak,
                     zipf_words_pattern)


def both(text: Text):
    f = greedy_factorize(text)
    fo = greedy_factorize_oracle(text)
    assert f.factors == fo.factors, text.symbols
    return f


def test_figure_string():
    f = both(Text.from_str("ababbababab"))
    assert f.factors == [Char(97), Char(98), Copy(1, 2), Copy(2, 2), Copy(1, 3)]


def test_unary_16():
    f = both(Text.from_str("a" * 16))
    assert f.factors == [Char(97), Copy(1, 1), Copy(1, 2), Copy(1, 3), Copy(1, 4)]


def test_empty_and_single():
    assert both(Text.from_str("")).z == 0
    assert both(Text.from_str("x")).factors == [Char(120)]


def test_ab_repeats():
    # (ab)^3 packs into four factors, (ab)^5 into five
    f3 = both(Text.from_str("ababab"))
    assert f3.factors == [Char(97), Char(98), Copy(1, 2), Copy(1, 2)]
    f5 = both(Text.from_str("ababababab"))
    assert f5.factors == [Char(97), Char(98), Copy(1, 2), Copy(1, 3), Copy(1, 2)]


def test_unary_growth_is_logarithmic():
    for k in range(0, 13):
        f = greedy_factorize(Text.from_str("a" * (1 << k)))
        assert f.z == k + 1


def test_oracle_first_symbol_filter_is_exact():
    # the oracle tries only starts whose first symbol matches; on criterion
    # 1's texts it must agree with the oracle that tries every start
    texts = list(all_binary_texts(12))
    assert len(texts) == 8190
    rng = random.Random(4242)
    texts += [random_text(rng, rng.randint(1, 2000), rng.choice([2, 4, 16]))
              for _ in range(500)]
    for t in texts:
        assert greedy_factorize_oracle(t) == greedy_factorize_oracle_all_starts(t), t.symbols


def test_exhaustive_binary_up_to_10():
    for t in all_binary_texts(10):
        f = greedy_factorize(t)
        assert f.factors == greedy_factorize_oracle(t).factors, t.symbols
        assert decode(f) == t


def test_random_equivalence_and_roundtrip():
    rng = random.Random(99)
    for _ in range(120):
        t = random_text(rng, rng.randint(1, 500), rng.choice([2, 4, 16]))
        f = both(t)
        assert decode(f) == t
        assert validate(f, t) is None


def test_extended_factor_multiset_matches_parser_state():
    # recomputing extended factors from the finished parse must match the
    # definition applied prefix by prefix
    rng = random.Random(31)
    for k in range(60):
        t = random_text(rng, rng.randint(1, 200), 2)
        if k % 2:
            # token mode, with symbols that need all four bytes
            t = Text.from_tokens(0xFFFF0000 | s << 8 | k for s in t)
        f = greedy_factorize(t)
        strings = extended_factor_strings(f, t)
        # at most two occurrences of any string, never non-consecutive dups
        last_seen: dict[tuple, int] = {}
        counts: dict[tuple, int] = {}
        pairs = compute_extended_factors(f, t)
        for (i, _), s in zip(pairs, strings):
            counts[s] = counts.get(s, 0) + 1
            assert counts[s] <= 2, (t.symbols, s)
            if s in last_seen:
                assert i - last_seen[s] == 1, (t.symbols, s)
            last_seen[s] = i


def test_leftmost_source_starts_with_extended_factor():
    # for every copy factor, the extended factor of its (leftmost) source
    # start, in the state before the factor was parsed, prefixes the factor
    rng = random.Random(77)
    for _ in range(40):
        t = random_text(rng, rng.randint(2, 160), 2)
        f = greedy_factorize_oracle(t)
        factors = f.factors
        for k in range(1, f.z + 1):
            fk = factor(f, k)
            if not isinstance(fk, Copy):
                continue
            prefix = Factorization(factors[:k - 1])
            ext = {i: length for i, length in compute_extended_factors(prefix, t)}
            i = fk.start
            assert i in ext, (t.symbols, k)
            e_i = t.symbols[f.pos_l(i) - 1: f.pos_l(i) - 1 + ext[i]]
            target = factor_string(f, t, k)
            assert target[:len(e_i)] == e_i, (t.symbols, k)


def test_copy_sources_are_leftmost():
    # brute force: no contiguous factor run left of the chosen source spells
    # the same string
    rng = random.Random(13)
    for _ in range(40):
        t = random_text(rng, rng.randint(2, 120), 2)
        f = both(t)
        for k in range(1, f.z + 1):
            fk = factor(f, k)
            if not isinstance(fk, Copy):
                continue
            target = factor_string(f, t, k)
            for l in range(1, fk.start):
                for r in range(l, k):
                    if f.pos_r(r) - f.pos_l(l) + 1 != len(target):
                        continue
                    run = t.symbols[f.pos_l(l) - 1: f.pos_r(r)]
                    assert run != target or f.pos_l(l) >= f.src_l(k), (t.symbols, k)


def test_parser_accepts_prebuilt_index():
    t = Text.from_str("abracadabra")
    idx = build_suffix_index(t)
    assert greedy_factorize(t, idx).factors == greedy_factorize(t).factors


@pytest.mark.parametrize("sigma", [5, 300, 1 << 32])
def test_edge_keys_at_the_top_of_the_alphabet(sigma):
    # the trie keys an edge by node * sigma + its first symbol, so symbols
    # sigma - 1 and 0 give one node's last key and the next node's first
    rng = random.Random(sigma)
    top = [sigma - 1, sigma - 2, sigma - 3, 0]
    pool = [[rng.choice(top) for _ in range(rng.randint(2, 24))] for _ in range(8)]
    t = Text([s for _ in range(150) for s in rng.choice(pool)], sigma)
    assert max(t) == sigma - 1
    assert decode(both(t)) == t


def test_peak_memory_per_factor():
    # Per factor: at most two trie nodes, each an org and a dep entry and
    # one edge in the shared edge dict, a tuple of factor indices on its
    # marked node, and the parse's starts, counts and bounds lists.  Peaks
    # for random sigma=4, random sigma=256 and block-repetitive text are
    # 357, 345 and 289 B per factor (CPython 3.11, x86-64 Linux); a child
    # dict and a mark slot per node would take them to 570, 491 and 442 B.
    rng = random.Random(1)
    for text in (random_text(rng, 1 << 16, 4), random_text(rng, 1 << 16, 256),
                 block_repetitive(1, 1 << 16)):
        fact, peak = traced_peak(greedy_factorize, text)
        assert peak <= 420 * fact.z


def _fibonacci(n: int) -> bytes:
    a, b = b"a", b"ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _thue_morse(n: int) -> bytes:
    return bytes(97 + bin(i).count("1") % 2 for i in range(n))


def _mutated_repeats(rng: random.Random, n: int) -> bytes:
    base = bytes(rng.randrange(97, 101) for _ in range(1024))
    out = bytearray((base * (n // len(base) + 1))[:n])
    for _ in range(n // 100):
        out[rng.randrange(n)] = rng.randrange(97, 101)
    return bytes(out)


def _reference_families():
    rng = random.Random(10)
    zipf = zipf_words_pattern(rng, 1 << 13) * 4
    # every pair of these tokens agrees in its three low bytes (or its three
    # high ones), so a byte LCP stops one to three bytes into a token
    low3 = [0x00ABCDEF | k << 24 for k in range(4)]
    high3 = [0xABCDEF00 | k for k in range(4)]
    yield "block-64KiB", block_repetitive(2024, 1 << 16)
    yield "zipf-periodic", Text.from_bytes(zipf)
    yield "zipf-periodic-tokens", Text.from_tokens(b << 16 | b for b in zipf)
    yield "fibonacci", Text.from_bytes(_fibonacci(1 << 16))
    yield "thue-morse", Text.from_bytes(_thue_morse(1 << 16))
    yield "runs", Text.from_bytes(b"".join(b"a" * k + b"b" for k in range(1, 300)))
    yield "unary", gen_unary(1 << 16)
    yield "unary-zero", Text(bytes(1 << 12))
    yield "random-4", gen_random(1 << 14, 4, 3)
    yield "random-2", gen_random(1 << 15, 2, 3)
    yield "lower-bound-9", gen_lower_bound_family(9).text
    yield "mutated-repeats", Text.from_bytes(_mutated_repeats(rng, 1 << 15))
    yield "abcde", gen_periodic("abcde", 4000)
    yield "tokens-3-low-bytes", Text.from_tokens(
        [low3[0], low3[1], low3[2], low3[0], low3[1], low3[3]]
        + [rng.choice(low3) for _ in range(3000)])
    yield "tokens-3-high-bytes", Text.from_tokens(rng.choice(high3) for _ in range(3000))


@pytest.mark.parametrize("name,text", list(_reference_families()),
                         ids=[name for name, _ in _reference_families()])
def test_matches_reference_parser(name, text):
    # sources included: the trie must offer the same leftmost starts
    assert greedy_factorize(text).factors == greedy_factorize_reference(text).factors


@pytest.mark.parametrize("mode", ["bytes", "tokens"])
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(b"abc"), st.integers(1, 200)),
                min_size=1, max_size=8),
       st.integers(1, 3))
def test_runs_match_reference_parser(mode, runs, byte):
    symbols = [c for c, k in runs for _ in range(k)]
    if mode == "bytes":
        text = Text(bytes(symbols))
    else:
        # the three tokens differ only in one byte, one to three bytes into
        # the token, so a byte mismatch lies inside a token, never at its start
        keep = 0x11223344 & ~(0xFF << 8 * byte)
        text = Text.from_tokens(keep | c << 8 * byte for c in symbols)
    assert greedy_factorize(text).factors == greedy_factorize_reference(text).factors
