import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lzse import suffixindex
from lzse.generators import gen_periodic
from lzse.suffixindex import RangeArgMin, build_suffix_index
from lzse.text import TOKEN_ALPHABET, Text

from helpers import (block_repetitive, brute_lcp, brute_suffix_sort,
                     lcp_suffixes, random_text, suffix_index_reference,
                     suffix_ranks, traced_peak, zipf_words_pattern)


def test_banana_suffix_array():
    t = Text.from_str("banana")
    idx = build_suffix_index(t)
    assert list(idx.sa) == brute_suffix_sort(t) == [6, 4, 2, 1, 5, 3]


def test_empty_text():
    idx = build_suffix_index(Text.from_str(""))
    assert list(idx.sa) == [] and list(idx.lcp) == []


def test_unary_suffix_array():
    t = Text.from_str("aaaa")
    idx = build_suffix_index(t)
    assert list(idx.sa) == brute_suffix_sort(t) == [4, 3, 2, 1]


def test_arrays_are_flat_int_buffers():
    idx = build_suffix_index(Text.from_str("mississippi"))
    assert idx.sa.typecode == idx.lcp.typecode == "i"
    assert idx.sa.itemsize == 4


def test_rejects_positions_past_int32():
    class Huge:
        def __len__(self):
            return 1 << 31

    with pytest.raises(ValueError, match="31 bits"):
        build_suffix_index(Huge())


def test_isa_inverts_sa():
    # the index keeps no inverse; the ranks read off sa are the reference's
    t = Text.from_str("mississippi")
    ranks = suffix_ranks(build_suffix_index(t))
    assert sorted(ranks) == list(range(len(t)))
    assert ranks == suffix_index_reference(t)[1]


def test_lcp_examples():
    t = Text.from_str("banana")
    idx = build_suffix_index(t)
    assert lcp_suffixes(idx, 2, 4) == brute_lcp(t, 2, 4) == 3
    assert lcp_suffixes(idx, 3, 3) == 6 - 3 + 1
    t2 = Text.from_str("abab")
    idx2 = build_suffix_index(t2)
    assert lcp_suffixes(idx2, 1, 3) == brute_lcp(t2, 1, 3) == 2


def test_lcp_rejects_out_of_range():
    idx = build_suffix_index(Text.from_str("abc"))
    with pytest.raises(ValueError):
        lcp_suffixes(idx, 0, 1)
    with pytest.raises(ValueError):
        lcp_suffixes(idx, 1, 4)


def test_randomized_lcp_and_sortedness():
    rng = random.Random(11)
    cases = 0
    while cases < 1000:
        n = rng.randint(1, 200)
        t = random_text(rng, n, rng.choice([2, 3, 4]))
        idx = build_suffix_index(t)
        # adjacent suffix comparison proves sa order
        for r in range(1, n):
            a, b = idx.sa[r - 1], idx.sa[r]
            assert t.symbols[a - 1:] < t.symbols[b - 1:]
            assert idx.lcp[r] == brute_lcp(t, a, b)
        for _ in range(20):
            p, q = rng.randint(1, n), rng.randint(1, n)
            assert lcp_suffixes(idx, p, q) == brute_lcp(t, p, q)
            cases += 1


def test_range_argmin_leftmost_ties():
    arr = [5, 2, 7, 2, 9]
    rmq = RangeArgMin(arr)
    assert rmq.argmin(0, 4) == 1  # leftmost of the two 2s
    assert rmq.argmin(2, 4) == 3
    assert rmq.min(0, 2) == 2
    with pytest.raises(ValueError):
        rmq.argmin(3, 2)


def test_range_argmin_random():
    rng = random.Random(5)
    for _ in range(200):
        arr = [rng.randint(-50, 50) for _ in range(rng.randint(1, 80))]
        rmq = RangeArgMin(arr)
        for _ in range(30):
            i = rng.randrange(len(arr))
            j = rng.randrange(i, len(arr))
            window = arr[i:j + 1]
            expect = i + window.index(min(window))
            assert rmq.argmin(i, j) == expect


def _block_repetitive(rng: random.Random, n: int, blocks: int, block_len: int) -> bytes:
    pool = [bytes(rng.randrange(256) for _ in range(block_len)) for _ in range(blocks)]
    return b"".join(pool[rng.randrange(blocks)] for _ in range(n // block_len))


def _reference_texts():
    rng = random.Random(2024)
    yield "block-64KiB", Text.from_bytes(_block_repetitive(rng, 1 << 16, 16, 256))
    yield "unary-64KiB", Text.from_bytes(b"a" * (1 << 16))
    pattern = bytes(rng.randrange(97, 101) for _ in range(97))
    yield "periodic", gen_periodic(pattern.decode("latin-1"), 200)
    words = [[rng.randrange(1 << 32) for _ in range(rng.randint(1, 9))]
             for _ in range(300)]
    tokens = [t for _ in range(3000) for t in words[rng.randrange(len(words))]]
    yield "tokens", Text.from_tokens(tokens + [0, (1 << 32) - 1] + tokens[:500])


@pytest.mark.parametrize("name,text", list(_reference_texts()),
                         ids=[name for name, _ in _reference_texts()])
def test_matches_reference_build(name, text):
    idx = build_suffix_index(text)
    sa, _, lcp = suffix_index_reference(text)
    assert list(idx.sa) == sa
    assert list(idx.lcp) == lcp


def _check_against_brute(text: Text) -> None:
    idx = build_suffix_index(text)
    n = len(text)
    assert list(idx.sa) == brute_suffix_sort(text)
    expect = [0] + [brute_lcp(text, idx.sa[r - 1], idx.sa[r]) for r in range(1, n)]
    assert list(idx.lcp) == expect[:n]


_edge_bytes = st.sampled_from([0, 1, 127, 128, 254, 255])


_byte_texts = st.one_of(
    st.binary(max_size=10),
    st.binary(max_size=300),
    st.lists(_edge_bytes, max_size=40).map(bytes),
    st.integers(0, 300).map(lambda k: b"\x00" * k),
    st.integers(0, 300).map(lambda k: b"\xff" * k),
    st.tuples(st.binary(max_size=60), st.lists(_edge_bytes, min_size=7, max_size=7))
    .map(lambda t: t[0] + bytes(t[1])),
).map(Text.from_bytes)


@settings(max_examples=300, deadline=None)
@given(_byte_texts)
def test_byte_texts_match_brute_force(text):
    _check_against_brute(text)


_runs = st.builds(
    lambda n, pattern, tail: Text.from_bytes((pattern * (n // len(pattern) + 1))[:n] + tail),
    st.integers(1, 1500), st.binary(min_size=1, max_size=12), st.binary(max_size=12))


@settings(max_examples=40, deadline=None)
@given(_runs)
def test_unary_and_periodic_runs_match_brute_force(text):
    _check_against_brute(text)


_tokens = st.integers(0, TOKEN_ALPHABET - 1)
_token_texts = st.one_of(
    st.lists(_tokens, max_size=12),
    st.lists(st.sampled_from([0, 1, (1 << 31) - 1, 1 << 31, (1 << 32) - 1]), max_size=80),
    # 1500 or more distinct symbols cut the pack width from 7 symbols to 5
    st.integers(1500, 1800).flatmap(
        lambda k: st.lists(_tokens, min_size=k, max_size=k, unique=True)
        .map(lambda t: t + t[: len(t) // 2])),
).map(Text.from_tokens)


@settings(max_examples=90, deadline=None)
@given(_token_texts)
def test_token_texts_match_brute_force(text):
    _check_against_brute(text)


@pytest.fixture(params=[3, 2], ids=["k3", "k2"])
def fold(request, monkeypatch):
    """k, the ranks folded into each sort key; k = 2 forced on small texts."""
    monkeypatch.setattr(suffixindex, "_MAX_FOLD", request.param)
    return request.param


def test_fold_count_follows_key_limit():
    # k ranks of at most n + 1 each need (n + 2)**k < 2**63
    assert suffixindex._fold_count(0) == 3
    assert suffixindex._fold_count((1 << 21) - 3) == 3
    assert suffixindex._fold_count((1 << 21) - 2) == 2
    assert suffixindex._fold_count(1 << 30) == 2


def _fold_texts():
    rng = random.Random(20)
    yield "bytes", Text.from_bytes(bytes(rng.randrange(256) for _ in range(300)))
    yield "unary", Text.from_bytes(b"a" * 300)
    yield "periodic", gen_periodic("abaababaab", 40)
    yield "random-sigma2", random_text(rng, 400, 2)
    words = [[rng.randrange(1 << 32) for _ in range(rng.randint(1, 4))]
             for _ in range(8)]
    yield "tokens", Text.from_tokens([t for _ in range(60)
                                      for t in words[rng.randrange(8)]])
    yield "tokens-unary", Text.from_tokens([(1 << 32) - 1] * 200)


@pytest.mark.parametrize("name,text", list(_fold_texts()),
                         ids=[name for name, _ in _fold_texts()])
def test_fold_matches_brute_force(fold, name, text):
    assert suffixindex._fold_count(len(text)) == fold
    _check_against_brute(text)


@pytest.mark.parametrize("name,text", [
    ("random-sigma2", random_text(random.Random(21), 50_000, 2)),
    ("unary", Text.from_bytes(b"z" * 50_000)),
], ids=["random-sigma2", "unary"])
def test_fold_keys_past_int32(fold, name, text):
    # rank * (n + 2) exceeds 2**31 once n > 46,341: a key formed in int32
    # would wrap and misorder the suffixes
    assert len(text) > 46_341
    idx = build_suffix_index(text)
    sa, _, lcp = suffix_index_reference(text)
    assert list(idx.sa) == sa
    assert list(idx.lcp) == lcp


@pytest.fixture(params=[1, 2, 7, None], ids=["batch1", "batch2", "batch7", "batch-default"])
def batch(request, monkeypatch):
    """The slots a batch of a tupling round or of a pass over level 0 covers.

    Below the default, batches end inside texts of a few symbols, and
    groups larger than a batch are sorted alone.
    """
    if request.param is not None:
        monkeypatch.setattr(suffixindex, "_BATCH", request.param)
    return suffixindex._BATCH


def _head(text: Text, m: int) -> Text:
    if text.is_byte_mode:
        return Text.from_bytes(text.to_bytes()[:m])
    return Text.from_tokens(text.symbols[:m])


@pytest.mark.parametrize("name,text", [(name, _head(text, 2500)) for name, text in _reference_texts()],
                         ids=[name for name, _ in _reference_texts()])
def test_batches_match_reference_build(batch, name, text):
    # the reference texts' first 2,500 symbols: batches of one slot are slow
    idx = build_suffix_index(text)
    sa, _, lcp = suffix_index_reference(text)
    assert list(idx.sa) == sa
    assert list(idx.lcp) == lcp


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("family", [_byte_texts, _runs, _token_texts],
                         ids=["bytes", "runs", "tokens"])
@given(data=st.data())
def test_batches_match_brute_force(batch, family, data):
    _check_against_brute(data.draw(family))


@pytest.mark.parametrize("name,text", list(_fold_texts()),
                         ids=[name for name, _ in _fold_texts()])
def test_batches_fold_match_brute_force(fold, batch, name, text):
    _check_against_brute(text)


def test_group_larger_than_a_batch(batch):
    # unary text is one group at every level, and here it spans 3 batches
    text = Text.from_bytes(b"u" * (3 * batch + 5))
    idx = build_suffix_index(text)
    sa, _, lcp = suffix_index_reference(text)
    assert list(idx.sa) == sa
    assert list(idx.lcp) == lcp


def test_build_peak_memory_per_symbol(monkeypatch):
    # Bytes held per symbol, at most, with 16 batches to a text:
    #   throughout: sa (int32, handed over) 4, group ends (bool) 1;
    #   level 0: packed keys (int64) 8, argsort's order (int64) 8;
    #   passes over groups: ranks 4, and per open slot its int32 slot and
    #     new rank and one bool, 9;
    #   a batch's temporaries, about 40 bytes a slot, 2.5.
    # So level 0 peaks at about 23.5 and the passes at 20.5 (21.1 measured);
    # 36 leaves room and fails the 48-50 of one batch over the whole text.
    rng = random.Random(9)
    for text in (Text.from_bytes(zipf_words_pattern(rng, 1 << 14) * 4),
                 block_repetitive(7, 1 << 16)):
        monkeypatch.setattr(suffixindex, "_BATCH", len(text) // 16)
        _, peak = traced_peak(build_suffix_index, text)
        assert peak <= 36 * len(text)
