import tracemalloc
from array import array

import pytest

from lzse.access import build_access_index, extract
from lzse.factorization import (Char, Copy, Factorization, FactorizationError,
                                decode, validate)
from lzse.text import TOKEN_ALPHABET, Text

from helpers import (access_naive, compute_extended_factors, extended_factor_strings,
                     factor_at, jump, rel)

FIG_FACTORS = [Char(97), Char(98), Copy(1, 2), Copy(2, 2), Copy(1, 3)]
FIG_TEXT = Text.from_str("ababbababab")


def fig_fact() -> Factorization:
    return Factorization(FIG_FACTORS, 11)


def test_positions_and_lengths():
    f = fig_fact()
    assert [f.pos_l(i) for i in range(1, 6)] == [1, 2, 3, 5, 8]
    assert [f.pos_r(i) for i in range(1, 6)] == [1, 2, 4, 7, 11]
    assert f.src_l(5) == 1 and f.src_r(5) == 4
    assert f.src_l(4) == 2 and f.src_r(4) == 4
    assert f.n == 11 and f.z == 5


def test_decode_examples():
    assert decode(fig_fact()) == FIG_TEXT
    chars = Factorization([Char(c) for c in b"xyz"])
    assert decode(chars) == Text.from_str("xyz")
    nested = Factorization([Char(97), Copy(1, 1), Copy(1, 2)])
    assert decode(nested) == Text.from_str("aaaa")


def test_wrong_length_rejected():
    with pytest.raises(FactorizationError):
        Factorization(FIG_FACTORS, 10)


def test_validate_ok():
    assert validate(fig_fact(), FIG_TEXT) is None


def test_validate_forward_reference():
    with pytest.raises(FactorizationError, match="forward reference"):
        Factorization([Char(97), Copy(2, 1)])
    with pytest.raises(FactorizationError, match="forward reference"):
        Factorization([Char(97), Copy(1, 2)])
    # a char factor has start 0, so a copy from factor 0 must not pass as one
    with pytest.raises(FactorizationError, match="non-positive copy fields"):
        Factorization([Char(97), Copy(0, 1)])
    with pytest.raises(FactorizationError, match="non-positive copy fields"):
        Factorization.from_lists([0, -1], [97, 1])
    with pytest.raises(FactorizationError, match="negative symbol"):
        Factorization.from_lists([0], [-1])


def test_validate_source_mismatch():
    # structurally fine, but the copy's content does not match its source
    fact = Factorization([Char(97), Char(98), Copy(1, 1)])
    report = validate(fact, Text.from_str("abb"))
    assert report is not None and "source mismatch" in report
    assert validate(fact, Text.from_str("aba")) is None


def test_validate_char_mismatch():
    report = validate(Factorization([Char(97)]), Text.from_str("b"))
    assert report is not None


def test_jump_examples():
    f = fig_fact()
    assert jump(f, 5, 3) == (3, 1)
    assert jump(f, 3, 1) == (1, 1)
    assert jump(f, 4, 1) == (2, 1)


def test_jump_rejects_char_and_bad_offset():
    f = fig_fact()
    with pytest.raises(FactorizationError):
        jump(f, 1, 1)
    with pytest.raises(FactorizationError):
        jump(f, 5, 5)


def test_access_naive():
    f = fig_fact()
    assert access_naive(f, 10) == ord("a")
    assert access_naive(f, 1) == ord("a")
    assert [access_naive(f, p) for p in range(1, 12)] == list(FIG_TEXT.symbols)
    unary = Factorization([Char(97), Copy(1, 1), Copy(1, 2),
                           Copy(1, 3), Copy(1, 4)])
    assert access_naive(unary, 16) == ord("a")
    with pytest.raises(FactorizationError):
        access_naive(f, 0)
    with pytest.raises(FactorizationError):
        access_naive(f, 12)


def as_strs(fact, text):
    return ["".join(chr(c) for c in s)
            for s in extended_factor_strings(fact, text)]


def test_extended_factors_unary():
    # a|a|aa|aaaa over aaaaaaaa
    fact = Factorization([Char(97), Copy(1, 1), Copy(1, 2), Copy(1, 3)])
    assert as_strs(fact, decode(fact)) == ["a", "aaa", "aa", "aaaa"]
    assert compute_extended_factors(fact) == [(1, 1), (2, 3), (3, 2), (4, 4)]


def test_extended_factors_no_doubling():
    assert as_strs(fig_fact(), FIG_TEXT) == ["a", "b", "ab", "bab", "abab"]


def test_extended_factors_single():
    fact = Factorization([Char(97)])
    assert as_strs(fact, decode(fact)) == ["a"]


def test_extended_factors_last_duplicate_excluded():
    # a|b|a(copy): the final factor repeats an earlier extended factor
    fact = Factorization([Char(97), Char(98), Copy(1, 1)])
    assert compute_extended_factors(fact) == [(1, 1), (2, 1)]


def test_text_modes_compare_and_hash_equal():
    as_bytes = Text.from_bytes(b"abc")
    as_tokens = Text.from_tokens([97, 98, 99])
    assert as_bytes == as_tokens and as_tokens == as_bytes
    assert hash(as_bytes) == hash(as_tokens)
    assert as_bytes != Text.from_tokens([97, 98, 100])
    assert as_bytes != Text.from_tokens([97, 98])
    assert list(as_tokens) == list(as_bytes) == [97, 98, 99]
    assert as_tokens[2] == as_bytes[2] == 99


def test_text_from_tokens_takes_symbols_not_machine_words():
    t = Text.from_tokens(b"ab")
    assert tuple(t.symbols) == (97, 98) and len(t) == 2


@pytest.mark.parametrize("symbols,alphabet", [
    ([5], 5), ([256], 256), ([-1], 256),
    ([-1], TOKEN_ALPHABET), ([1 << 32], TOKEN_ALPHABET), ([7, 300], 300),
])
def test_text_rejects_out_of_range_with_value_error(symbols, alphabet):
    # the CLI maps ValueError to exit code 2; OverflowError would escape it
    with pytest.raises(ValueError):
        Text(symbols, alphabet)


def test_decode_rejects_out_of_range_char_with_value_error():
    with pytest.raises(ValueError):
        decode(Factorization([Char(1 << 32), Copy(1, 1)], alphabet_size=TOKEN_ALPHABET))
    with pytest.raises(ValueError):
        decode(Factorization([Char(97), Char(256)]))


def test_token_decode_hands_its_buffer_over(monkeypatch):
    # decode and extract fill a fresh array('I') in token mode and hand it
    # to the Text uncopied; a narrower alphabet still goes through Text(),
    # whose range check rejects a char above it
    tokens = [7, 1 << 31, 300, (1 << 32) - 1]
    fact = Factorization([Char(s) for s in tokens] + [Copy(1, 4), Copy(2, 3)],
                         alphabet_size=TOKEN_ALPHABET)
    index = build_access_index(fact)
    whole = tokens + tokens + tokens[1:]
    narrow = Factorization([Char(7), Char(400)], alphabet_size=300)
    made = []
    init = Text.__init__

    def counted_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Text, "__init__", counted_init)
    texts = [decode(fact), extract(fact, 1, fact.n), extract(fact, 3, 9), index.extract(2, 11)]
    assert made == []
    assert all(type(t.symbols) is array for t in texts)
    assert [list(t) for t in texts] == [whole, whole, whole[2:9], whole[1:11]]
    with pytest.raises(ValueError):
        decode(narrow)
    with pytest.raises(ValueError):
        extract(narrow, 1, 2)
    assert len(made) == 2


def test_rel_and_factor_at():
    f = fig_fact()
    assert rel(f, 1) == (1, 1)
    assert rel(f, 4) == (3, 2)
    assert rel(f, 11) == (5, 4)
    with pytest.raises(FactorizationError):
        factor_at(f, 0)


def test_decode_copies_long_sources_in_pieces():
    # unary token text of 2^20 symbols whose last copy repeats the first
    # half: the 4 MiB output, over-allocated as it grows, plus pieces of at
    # most 2^16 symbols, where one slice of the whole source would add 2 MiB.
    # extract of the whole range, one-shot or through the index, expands the
    # same way
    fact = Factorization([Char(7)] + [Copy(1, i) for i in range(1, 21)],
                         alphabet_size=TOKEN_ALPHABET)
    n = fact.n
    assert n == 1 << 20
    ix = build_access_index(fact)
    expected = Text.from_tokens([7] * n)
    for expand in (decode, lambda f: extract(f, 1, n), lambda f: ix.extract(1, n)):
        tracemalloc.start()
        try:
            text = expand(fact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == expected
        assert peak <= 4.75 * n
