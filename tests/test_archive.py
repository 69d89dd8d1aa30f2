import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from lzse.access import build_access_index
from lzse.archive import (ArchiveError, deserialize, read_token_text,
                          read_varint, serialize, write_token_text, write_varint)
from lzse.factorization import Char, Copy, Factorization, FactorizationError, decode
from lzse.greedy import greedy_factorize
from lzse.text import TOKEN_ALPHABET, Text

from helpers import access_naive, random_text, random_valid_factorization


def test_varint_roundtrip():
    for v in [0, 1, 127, 128, 300, 1 << 20, (1 << 40) + 7]:
        out = bytearray()
        write_varint(out, v)
        got, pos = read_varint(bytes(out), 0)
        assert got == v and pos == len(out)
    with pytest.raises(ArchiveError):
        write_varint(bytearray(), -1)
    with pytest.raises(ArchiveError):
        read_varint(b"\x80\x80", 0)  # runs off the end


def test_header_and_records():
    fact = Factorization([Char(97), Char(98), Copy(1, 2)])
    blob = serialize(fact)
    assert blob[:4] == b"LZSE" and blob[4] == 1 and blob[5] == 0
    # char a, char b, copy k=2 back-distance 2
    assert blob[8:] == bytes([0, 97, 0, 98, 2, 2])
    assert deserialize(blob).factors == fact.factors


def test_empty_factorization():
    blob = serialize(Factorization([]))
    fact = deserialize(blob)
    assert fact.z == 0 and fact.n == 0


def test_bad_magic():
    blob = serialize(Factorization([Char(97)]))
    with pytest.raises(ArchiveError, match="bad magic"):
        deserialize(b"XXXX" + blob[4:])


def test_truncation_and_trailing():
    blob = serialize(greedy_factorize(Text.from_str("ababbababab")))
    with pytest.raises(ArchiveError):
        deserialize(blob[:-1])
    with pytest.raises(ArchiveError, match="trailing"):
        deserialize(blob + b"\x00")


def test_bad_back_distance():
    # copy record in factor 1 cannot reference anything
    blob = b"LZSE" + bytes([1, 0]) + bytes([1, 1]) + bytes([1, 1])
    with pytest.raises(ArchiveError, match="back-distance"):
        deserialize(blob)


def test_token_mode():
    fact = greedy_factorize(Text.from_tokens([999, 1000, 999, 1000, 5, 999, 1000]))
    blob = serialize(fact)
    assert blob[5] == 1
    restored = deserialize(blob)
    assert restored.factors == fact.factors
    assert decode(restored).symbols == decode(fact).symbols


def test_token_symbol_above_32_bits_rejected():
    # n=2, z=2: char 2**35 as a 6-byte varint, then a copy of factor 1
    blob = bytes.fromhex("4c5a534501010202008080808080010101")
    with pytest.raises(ArchiveError, match="exceeds 32 bits"):
        deserialize(blob)
    top = Factorization([Char((1 << 32) - 1), Copy(1, 1)], alphabet_size=1 << 32)
    assert deserialize(serialize(top)).factors == top.factors
    # serialize writes only what deserialize reads: a wider char is
    # rejected when the factorization is made, in any alphabet
    for alphabet in (1 << 32, 1 << 40):
        with pytest.raises(FactorizationError,
                           match="factor 1: symbol 8589934592 outside alphabet 0..4294967295"):
            Factorization([Char(1 << 33), Copy(1, 1)], alphabet_size=alphabet)


@pytest.mark.parametrize("alphabet", [5, 256, 300, TOKEN_ALPHABET])
def test_every_factorization_that_is_made_serializes_and_decodes(alphabet):
    # the constructor is the one symbol check: whatever it accepts,
    # serialize writes, deserialize reads and decode expands, and a char
    # outside the alphabet fails there
    rng = random.Random(alphabet)
    made = refused = 0
    for _ in range(300):
        factors: list[Char | Copy] = []
        for i in range(rng.randint(1, 40)):
            if i and rng.random() < 0.5:
                l = rng.randint(1, i)
                factors.append(Copy(l, rng.randint(1, min(3, i - l + 1))))
            elif rng.random() < 0.02:
                factors.append(Char(rng.choice([alphabet, alphabet + rng.randrange(1 << 34),
                                                 1 << 32, 1 << 33])))
            else:
                factors.append(Char(rng.choice([0, alphabet - 1, rng.randrange(alphabet)])))
        outside = [(i, f.symbol) for i, f in enumerate(factors, start=1)
                   if isinstance(f, Char) and f.symbol >= alphabet]
        if outside:
            i, symbol = outside[0]
            with pytest.raises(FactorizationError,
                               match=f"factor {i}: symbol {symbol} outside alphabet "
                                     f"0..{alphabet - 1}$"):
                Factorization(factors, alphabet_size=alphabet)
            refused += 1
            continue
        fact = Factorization(factors, alphabet_size=alphabet)
        restored = deserialize(serialize(fact))
        assert restored.factors == fact.factors
        assert (list(decode(restored)) == list(decode(fact))
                == [access_naive(fact, p) for p in range(1, fact.n + 1)])
        made += 1
    assert made >= 100 and refused >= 10


def test_random_roundtrips():
    rng = random.Random(10)
    for _ in range(120):
        if rng.random() < 0.5:
            fact = greedy_factorize(random_text(rng, rng.randint(0, 300),
                                                rng.choice([2, 4, 26])))
        else:
            fact = random_valid_factorization(rng, max_z=50)
        blob = serialize(fact)
        restored = deserialize(blob)
        assert restored.factors == fact.factors
        assert restored.n == fact.n
        assert decode(restored) == decode(fact)


# the record reader decodes one-byte counts and back-distances of up to two
# bytes inline and hands everything else to read_varint; these values sit on
# both sides of every length step up to the 64-bit limit
FIELD_VALUES = [0, 1, 127, 128, 16383, 16384, 1 << 21, (1 << 63) - 1]
PREFIX = 16385  # char records before the one under test: d = 16384 is in range


def _build(token: bool, items) -> tuple[bytes, list[tuple[int, int]]]:
    """Archive of header, then ``items`` (int: varint, bytes: raw), and the
    (start, end) byte span of every varint in it."""
    out = bytearray(b"LZSE")
    out += bytes([1, int(token)])
    spans = []
    for item in items:
        if isinstance(item, bytes):
            out += item
        else:
            start = len(out)
            write_varint(out, item)
            spans.append((start, len(out)))
    return bytes(out), spans


def _chars(token: bool, count: int) -> tuple[list, list[Char]]:
    """Archive items of ``count`` char records, and their factors."""
    items, chars = [], []
    for k in range(count):
        sym = (k * 2654435761) % TOKEN_ALPHABET if token else k % 256
        items += [0, sym if token else bytes([sym])]
        chars.append(Char(sym))
    return items, chars


@pytest.mark.parametrize("token", [False, True], ids=["byte", "token"])
def test_record_fields_roundtrip(token):
    items, chars = _chars(token, PREFIX)
    i = PREFIX + 1
    alphabet = TOKEN_ALPHABET if token else 256

    def check_roundtrip(blob, factors):
        fact = Factorization(chars + factors, alphabet_size=alphabet)
        assert deserialize(blob) == fact and serialize(fact) == blob

    for v in FIELD_VALUES:
        # count field: Copy(1, v) at back-distance PREFIX; v = 0 is a char
        if v == 0:
            extra, last = _chars(token, 1)
            check_roundtrip(_build(token, [i, i] + items + extra)[0], last)
        elif v <= PREFIX:
            blob = _build(token, [PREFIX + v, i] + items + [v, PREFIX])[0]
            check_roundtrip(blob, [Copy(1, v)])
        # larger counts are forward references, and the error names the
        # count as the reader decoded it
        if v > PREFIX:
            blob, spans = _build(token, [0, i] + items + [v, PREFIX])
            with pytest.raises(ArchiveError) as err:
                deserialize(blob)
            assert str(err.value) == (f"factor {i}: forward reference, count {v} "
                                      f"above back-distance {PREFIX} "
                                      f"(at byte {spans[-2][0]})")

        # back-distance field: Copy(i - v, 1)
        blob, spans = _build(token, [PREFIX + 1, i] + items + [1, v])
        if 1 <= v < i:
            check_roundtrip(blob, [Copy(i - v, 1)])
        else:
            record_at = spans[-2][0]
            with pytest.raises(ArchiveError) as err:
                deserialize(blob)
            assert str(err.value) == (f"factor {i}: bad back-distance {v} "
                                      f"(at byte {record_at})")
            assert err.value.offset == record_at


def _error(read, data: bytes, *args) -> tuple[str, int]:
    with pytest.raises(ArchiveError) as err:
        read(data, *args)
    return str(err.value), err.value.offset


@pytest.mark.parametrize("token", [False, True], ids=["byte", "token"])
def test_record_truncation_matches_read_varint(token):
    head, _ = _chars(token, 2)
    cuts = 0
    for v in FIELD_VALUES:
        for count, d in ((v, 1), (1, v), (v, v), (200, 16383)):
            blob, spans = _build(token, [1 << 40, 3] + head + [count, d])
            # every multi-byte varint: n, z, token symbols, count and
            # back-distance, cut before each of its bytes
            for start, end in spans:
                if end - start < 2:
                    continue
                for cut in range(start, end):
                    assert (_error(deserialize, blob[:cut])
                            == _error(read_varint, blob[:cut], start))
                    cuts += 1
    assert cuts > 200


@pytest.mark.parametrize("token", [False, True], ids=["byte", "token"])
def test_forward_reference_reports_record_offset(token):
    # n=3, z=3: two chars, then a copy of 3 factors from factor 1 (d = 2)
    items = [3, 3] + [0, 97 if token else b"a", 0, 98 if token else b"b"] + [3, 2]
    blob, spans = _build(token, items)
    record_at = spans[-2][0]
    with pytest.raises(ArchiveError) as err:
        deserialize(blob)
    assert err.value.offset == record_at
    assert "factor 3: forward reference" in str(err.value)


def test_noncanonical_back_distance_rejected():
    # 0x80 0x00 and 0x80 0x80 0x00 both spell zero
    for zero in (b"\x80\x00", b"\x80\x80\x00"):
        blob = _build(False, [2, 2, 0, b"a", 1, zero])[0]
        with pytest.raises(ArchiveError) as err:
            deserialize(blob)
        assert str(err.value) == "factor 2: bad back-distance 0 (at byte 10)"
        assert err.value.offset == 10


def test_token_text_file_roundtrip():
    t = Text.from_tokens([5, 0, (1 << 30) + 3])
    buf = io.BytesIO()
    write_token_text(buf, t)
    assert read_token_text(buf.getvalue()) == t
    with pytest.raises(ArchiveError):
        read_token_text(b"NOPE\x01\x00")


def small_archive(seed: int, token: bool) -> bytes:
    rng = random.Random(seed)
    fact = random_valid_factorization(rng, max_z=14)
    if token:
        symbols = [0, 300, (1 << 31) + 5, (1 << 32) - 1]
        fact = Factorization([Char(rng.choice(symbols)) if isinstance(f, Char) else f
                              for f in fact.factors], alphabet_size=TOKEN_ALPHABET)
    return serialize(fact)


# (kind, offset, byte): overwrite, insert or delete one byte
_edits = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                            st.integers(0, 255), st.integers(0, 255)), max_size=4)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 1 << 20), st.booleans(), _edits, st.integers(0, 6),
       st.randoms(use_true_random=False))
def test_mutated_archives_fail_typed_or_answer(seed, token, edits, drop, rnd):
    data = bytearray(small_archive(seed, token))
    for kind, at, byte in edits:
        at %= len(data) + (kind == "insert")  # archives hold at least 10 bytes
        if kind == "set":
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    del data[max(0, len(data) - drop):]
    try:
        fact = deserialize(bytes(data))
    except ArchiveError:
        return
    ix = build_access_index(fact)
    if fact.n == 0:
        return
    positions = {1, fact.n} | {rnd.randint(1, fact.n) for _ in range(16)}
    if fact.n <= 1 << 16:
        text = decode(fact)
        assert all(ix.access(p) == text[p - 1] for p in positions)
    else:
        assert all(ix.access(p) == access_naive(fact, p) for p in positions)
