"""Binary archive format for LZSE factorizations.

Layout: magic "LZSE", version byte 0x01, mode byte (0 = byte alphabet,
1 = 32-bit tokens), varint n, varint z, then one record per factor.
A record starts with varint v: v = 0 introduces a char factor followed by
its symbol (one byte in byte mode, varint in token mode); v >= 1 is a copy
factor with k = v referenced factors, followed by varint d = i - l >= 1,
the back-distance from the factor's own index to its start factor.
Varints are unsigned LEB128.

``serialize`` writes varints below 128 inline and calls ``write_varint`` for
the rest.  ``deserialize`` reads counts and back-distances of up to two bytes
inline and calls ``read_varint`` for every other varint and any field that
runs off the end, so every error keeps ``read_varint``'s message and offset.
A record that cannot be a factor (d outside 1..i-1, or k > d) fails at its
offset.
"""

from __future__ import annotations

import sys
from array import array
from typing import BinaryIO

from .factorization import Factorization, FactorizationError
from .text import BYTE_ALPHABET, TOKEN_ALPHABET, Text

MAGIC = b"LZSE"
VERSION = 1
MODE_BYTE = 0
MODE_TOKEN = 1


class ArchiveError(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ArchiveError(f"cannot encode negative value {value}")
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise ArchiveError("truncated varint", start)
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ArchiveError("varint too long", start)


def serialize(fact: Factorization) -> bytes:
    mode = MODE_BYTE if fact.alphabet_size <= BYTE_ALPHABET else MODE_TOKEN
    out = bytearray(MAGIC)
    out.append(VERSION)
    out.append(mode)
    write_varint(out, fact.n)
    write_varint(out, fact.z)
    # the Factorization checked every field: counts and back-distances are
    # positive, symbols fit the mode.  A value below 128 is a one-byte
    # varint, appended inline; write_varint takes the rest
    append = out.append
    for i, (l, k) in enumerate(zip(fact.start, fact.count), start=1):
        if l:
            if k < 0x80:
                append(k)
            else:
                write_varint(out, k)
            d = i - l
            if d < 0x80:
                append(d)
            else:
                write_varint(out, d)
        else:
            append(0)
            if mode == MODE_BYTE or k < 0x80:
                append(k)
            else:
                write_varint(out, k)
    return bytes(out)


def deserialize(data: bytes) -> Factorization:
    if data[:4] != MAGIC:
        raise ArchiveError("bad magic", 0)
    if len(data) < 6:
        raise ArchiveError("truncated header", len(data))
    if data[4] != VERSION:
        raise ArchiveError(f"unsupported version {data[4]}", 4)
    mode = data[5]
    if mode not in (MODE_BYTE, MODE_TOKEN):
        raise ArchiveError(f"unknown mode byte {mode}", 5)
    pos = 6
    n, pos = read_varint(data, pos)
    z, pos = read_varint(data, pos)
    # two continuation bytes past the end send a field that runs off the
    # archive to read_varint, which raises its "truncated varint"
    buf = bytes(data) + b"\x80\x80"
    start: list[int] = []
    count: list[int] = []
    for i in range(1, z + 1):
        record_at = pos
        v = buf[pos]
        if v < 0x80:
            pos += 1
        elif buf[pos + 1] < 0x80:
            v = (v & 0x7F) | buf[pos + 1] << 7
            pos += 2
        else:
            v, pos = read_varint(data, pos)
        if v:
            d = buf[pos]
            if d < 0x80:
                pos += 1
            elif buf[pos + 1] < 0x80:
                d = (d & 0x7F) | buf[pos + 1] << 7
                pos += 2
            else:
                d, pos = read_varint(data, pos)
            if d < 1 or d >= i:
                raise ArchiveError(f"factor {i}: bad back-distance {d}", record_at)
            if v > d:
                raise ArchiveError(f"factor {i}: forward reference, count {v} "
                                   f"above back-distance {d}", record_at)
            start.append(i - d)
            count.append(v)
        else:
            if mode == MODE_BYTE:
                if pos >= len(data):
                    raise ArchiveError(f"factor {i}: truncated symbol", pos)
                sym = buf[pos]
                pos += 1
            else:
                sym, pos = read_varint(data, pos)
                if sym >= TOKEN_ALPHABET:
                    raise ArchiveError(f"factor {i}: symbol {sym} exceeds 32 bits",
                                       record_at)
            start.append(0)
            count.append(sym)
    if pos != len(data):
        raise ArchiveError(f"{len(data) - pos} trailing bytes", pos)
    alphabet = BYTE_ALPHABET if mode == MODE_BYTE else TOKEN_ALPHABET
    try:
        return Factorization.from_lists(start, count, n, alphabet)
    except FactorizationError as ex:
        raise ArchiveError(str(ex)) from ex


# token texts on disk: magic, version, varint count, then 32-bit LE tokens
TOKEN_MAGIC = b"LZTK"


def write_token_text(fh: BinaryIO, text: Text) -> None:
    """Write ``text`` as a token text to the binary file ``fh``; the tokens
    go out straight from the text's buffer, not through a joined copy."""
    head = bytearray(TOKEN_MAGIC)
    head.append(1)
    write_varint(head, len(text))
    tokens = array("I", iter(text.symbols)) if text.is_byte_mode else text.symbols
    if sys.byteorder == "big":
        tokens = array("I", tokens)
        tokens.byteswap()
    fh.write(head)
    fh.write(tokens)


def read_token_text(data: bytes) -> Text:
    if data[:4] != TOKEN_MAGIC:
        raise ArchiveError("bad token-text magic", 0)
    if len(data) < 5 or data[4] != 1:
        raise ArchiveError("unsupported token-text version", 4)
    count, pos = read_varint(data, 5)
    if len(data) - pos != 4 * count:
        raise ArchiveError(f"expected {4 * count} token bytes", pos)
    tokens = array("I")
    tokens.frombytes(memoryview(data)[pos:])
    if sys.byteorder == "big":
        tokens.byteswap()
    return Text._adopt(tokens, TOKEN_ALPHABET)
