"""Symbol sequences over byte or token alphabets."""

from __future__ import annotations

from array import array

BYTE_ALPHABET = 256
TOKEN_ALPHABET = 1 << 32


def alphabet_for(symbols) -> int:
    """The byte alphabet when every symbol fits in a byte, else the token one."""
    return BYTE_ALPHABET if max(symbols, default=0) < BYTE_ALPHABET else TOKEN_ALPHABET


class Text:
    """Immutable sequence of non-negative integer symbols.

    Byte mode uses symbols 0..255 and holds them as ``bytes``; token mode
    allows 32-bit symbols and holds them as ``array('I')``.  Either buffer
    bounds its symbols, and both index and iterate to ints; the token
    buffer must not be mutated.  Sequence indexing is the usual 0-based
    Python kind; the 1-based positions used by factorization APIs are
    documented at their call sites.
    """

    __slots__ = ("symbols", "alphabet_size")

    def __init__(self, symbols, alphabet_size: int = BYTE_ALPHABET):
        # iter() reads any other buffer (bytes in token mode, an array in
        # byte mode) symbol by symbol rather than as raw machine words
        try:
            if alphabet_size <= BYTE_ALPHABET:
                syms = bytes(symbols if isinstance(symbols, (bytes, bytearray))
                             else iter(symbols))
            else:
                syms = array("I", symbols if isinstance(symbols, array) else iter(symbols))
        except OverflowError as ex:
            raise ValueError(f"symbol out of range for alphabet {alphabet_size}") from ex
        if alphabet_size not in (BYTE_ALPHABET, TOKEN_ALPHABET) and syms:
            top = max(syms)
            if top >= alphabet_size:
                raise ValueError(f"symbol {top} out of range for alphabet {alphabet_size}")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    def __setattr__(self, name, value):
        raise AttributeError("Text is immutable")

    @classmethod
    def _adopt(cls, symbols, alphabet_size: int) -> "Text":
        """Text over a buffer that its maker hands over and never touches
        again: ``bytes`` in byte mode, ``array('I')`` in token mode, with
        every symbol already below ``alphabet_size``.  Nothing is copied or
        checked, so a buffer that a caller keeps goes through ``Text()``.
        """
        text = object.__new__(cls)
        object.__setattr__(text, "symbols", symbols)
        object.__setattr__(text, "alphabet_size", alphabet_size)
        return text

    @classmethod
    def from_bytes(cls, data: bytes) -> "Text":
        return cls(data, BYTE_ALPHABET)

    @classmethod
    def from_str(cls, s: str) -> "Text":
        return cls.from_bytes(s.encode("latin-1"))

    @classmethod
    def from_tokens(cls, tokens) -> "Text":
        return cls(tokens, TOKEN_ALPHABET)

    def to_bytes(self) -> bytes:
        if self.alphabet_size > BYTE_ALPHABET:
            raise ValueError("token-mode text cannot be rendered as bytes")
        return self.symbols

    def to_str(self) -> str:
        return self.to_bytes().decode("latin-1")

    @property
    def is_byte_mode(self) -> bool:
        return self.alphabet_size <= BYTE_ALPHABET

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Text):
            return False
        a, b = self.symbols, other.symbols
        if type(a) is not type(b):
            # a memoryview compares symbol values across item sizes
            a, b = memoryview(a), memoryview(b)
        return a == b

    def __hash__(self) -> int:
        return hash(tuple(self.symbols))

    def __repr__(self) -> str:
        if self.is_byte_mode and len(self) <= 40:
            return f"Text({self.to_str()!r})"
        return f"Text(<{len(self)} symbols, alphabet={self.alphabet_size}>)"


def _prefix_compare(text: Text):
    """(buf, w, common_prefix) for direct compares of text's suffixes.

    buf is the text as one flat buffer of w bytes a symbol: the symbols
    themselves in byte mode (w = 1), a copy of the token array's machine
    words in token mode.  common_prefix(a, b, cap) counts the whole symbols
    shared by buf[a:] and buf[b:] (byte offsets a and b), comparing at most
    cap bytes.  It compares blocks of 16, 32, 64, ... bytes until one
    differs.  There the lowest set bit of the two blocks' XOR, read
    little-endian, marks the first differing byte, which lies in the first
    differing symbol.
    """
    syms = text.symbols
    if text.is_byte_mode:
        buf, w = syms, 1
    else:
        buf, w = syms.tobytes(), syms.itemsize

    def common_prefix(a: int, b: int, cap: int) -> int:
        lo = 0
        step = 16
        while lo < cap:
            hi = lo + step
            if hi > cap:
                hi = cap
            x = buf[a + lo:a + hi]
            y = buf[b + lo:b + hi]
            if x != y:
                diff = int.from_bytes(x, "little") ^ int.from_bytes(y, "little")
                return (lo + ((diff & -diff).bit_length() - 1 >> 3)) // w
            lo = hi
            step <<= 1
        return cap // w

    return buf, w, common_prefix
