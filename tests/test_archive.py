import random

import pytest
from hypothesis import given, settings, strategies as st

from lzse.access import build_access_index
from lzse.archive import (ArchiveError, deserialize, read_token_text,
                          read_varint, serialize, write_token_text, write_varint)
from lzse.factorization import Char, Copy, Factorization, access_naive, decode
from lzse.greedy import greedy_factorize
from lzse.text import TOKEN_ALPHABET, Text

from helpers import random_text, random_valid_factorization


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


def test_token_text_file_roundtrip():
    t = Text.from_tokens([5, 0, (1 << 30) + 3])
    assert read_token_text(write_token_text(t)) == t
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
