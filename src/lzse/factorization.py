"""LZSE factorization data model: factors, expansion and validation.

Factor indices and text positions are 1-based throughout, mirroring the
usual factorization notation: factor i occupies T[pos_l(i)..pos_r(i)].
A copy factor at index i refers to the contiguous run of earlier factors
F_l .. F_{l+k-1} with l + k - 1 < i, stored as start = l and count = k; a
char factor has start 0 and its symbol in count.  The jump function and the
extended factors, which the paper uses to bound access and to prove the
greedy trie correct, live with the test oracles in ``tests/helpers.py``.

One routine, ``_expand``, turns factors into symbols: ``decode`` runs it
over 1..n, both ``extract``s of ``lzse.access`` over their ranges, and the
one-shot ``access`` over one position.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

from .text import BYTE_ALPHABET, TOKEN_ALPHABET, Text


class Char(NamedTuple):
    symbol: int


class Copy(NamedTuple):
    start: int   # index l of the first referenced factor
    count: int   # number k of referenced factors


class FactorizationError(ValueError):
    pass


class Factorization:
    """Immutable factor sequence over flat ``start``/``count`` tuples.

    bounds[t] = pos_l of factor t+1 for t in 0..z-1, and bounds[z] = n + 1,
    so factor i spans [bounds[i-1], bounds[i] - 1].
    """

    __slots__ = ("start", "count", "bounds", "n", "alphabet_size")

    def __init__(self, factors: Iterable[Char | Copy], n: int | None = None,
                 alphabet_size: int = 256):
        start: list[int] = []
        count: list[int] = []
        for f in factors:
            if isinstance(f, Char):
                start.append(0)
                count.append(f.symbol)
            elif isinstance(f, Copy):
                # a start below 1 must not read as a char's 0
                start.append(f.start if f.start >= 1 else -1)
                count.append(f.count)
            else:
                raise FactorizationError(f"factor {len(start) + 1}: unknown factor kind")
        self._set(start, count, n, alphabet_size)

    @classmethod
    def from_lists(cls, start: Sequence[int], count: Sequence[int],
                   n: int | None = None, alphabet_size: int = 256) -> "Factorization":
        """Factorization of the flat fields, checked as the constructor checks."""
        fact = object.__new__(cls)
        fact._set(start, count, n, alphabet_size)
        return fact

    def _set(self, start, count, n, alphabet_size) -> None:
        """The one structure check: copy fields are positive, copies reference
        only earlier factors, symbols lie in the alphabet and fit 32 bits,
        lengths sum to n."""
        top = min(alphabet_size, TOKEN_ALPHABET)
        bounds = [1]
        pos = 1
        i = 0
        for l, k in zip(start, count, strict=True):
            i += 1
            if l > 0:
                if k < 1:
                    raise FactorizationError(f"factor {i}: non-positive copy fields")
                if l + k > i:
                    raise FactorizationError(f"factor {i}: forward reference")
                pos += bounds[l + k - 1] - bounds[l - 1]
            elif l:
                raise FactorizationError(f"factor {i}: non-positive copy fields")
            elif k < 0:
                raise FactorizationError(f"factor {i}: negative symbol")
            elif k >= top:
                raise FactorizationError(f"factor {i}: symbol {k} outside alphabet 0..{top - 1}")
            else:
                pos += 1
            bounds.append(pos)
        if n is not None and n != pos - 1:
            raise FactorizationError(f"factor lengths sum to {pos - 1}, expected {n}")
        for name, value in zip(self.__slots__, (tuple(start), tuple(count), tuple(bounds),
                                                pos - 1, alphabet_size)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Factorization is immutable")

    @property
    def factors(self) -> list[Char | Copy]:
        """The factors as ``Char``/``Copy`` tuples, built on each call."""
        return [Copy(l, k) if l else Char(k) for l, k in zip(self.start, self.count)]

    @property
    def z(self) -> int:
        return len(self.start)

    def pos_l(self, i: int) -> int:
        return self.bounds[i - 1]

    def pos_r(self, i: int) -> int:
        return self.bounds[i] - 1

    def length(self, i: int) -> int:
        return self.bounds[i] - self.bounds[i - 1]

    def src_l(self, i: int) -> int:
        l = self.start[i - 1]
        if not l:
            raise FactorizationError(f"factor {i} is not a copy factor")
        return self.bounds[l - 1]

    def src_r(self, i: int) -> int:
        l = self.start[i - 1]
        if not l:
            raise FactorizationError(f"factor {i} is not a copy factor")
        return self.bounds[l + self.count[i - 1] - 1] - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Factorization) and self.start == other.start
                and self.count == other.count)

    def __repr__(self) -> str:
        return f"Factorization(z={self.z}, n={self.n})"


# B / ceil(lg(n + 1)): the jumps a one-shot query follows before it builds
# the index.  Over 20,000 random positions, the deepest chain of a greedy
# parse took 0.86 ceil(lg(n + 1)) jumps (unary 1 MiB: 18 of 21; lower-bound
# m = 12: 14 of 20; zipf 256 KiB: 9 of 19; block 1 MiB: 6 of 21), and of a
# Re-Pair archive 0.42.  A factor of 4 leaves the fallback to chains far
# deeper than either parse makes, and B jumps of one bisection each still
# cost microseconds where an index build costs tens of milliseconds.
JUMP_FACTOR = 4

_PIECE = 1 << 16  # most symbols one slice copy of the output takes


def jump_budget(n: int) -> int:
    """B, the jumps a one-shot query follows: JUMP_FACTOR * ceil(lg(n + 1))."""
    return JUMP_FACTOR * n.bit_length()


def decode(fact: Factorization) -> Text:
    """Expand a factorization back into its text: ``_expand`` over 1..n."""
    return _expand(fact, 1, fact.n) if fact.n else Text((), fact.alphabet_size)


def _expand(fact: Factorization, lo: int, hi: int, ix=None) -> Text:
    """T[lo..hi] (1-based, inclusive), expanded left to right over a stack of
    text ranges: the one expansion of ``decode``, both ``extract``s and the
    one-shot ``access``.

    ``out`` holds T[lo..lo + len(out) - 1] at every step.  A char factor
    appends its symbol.  A copy's piece whose source starts at lo or later
    is copied from ``out`` in slices of at most ``_PIECE`` symbols, so a long
    source is never held twice; any other piece expands its source one level
    down, unless that would pass ``jump_budget(n)`` levels: then its symbols
    come from the access index ``ix``, built on first need when None.  The
    symbols were checked when ``fact`` was made: the Text adopts the buffer.
    """
    n = fact.n
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"range [{lo}, {hi}] out of bounds 1..{n}")
    bounds, start, count = fact.bounds, fact.start, fact.count
    out = bytearray() if fact.alphabet_size <= BYTE_ALPHABET else array("I")
    budget = jump_budget(n)
    # (first position, last position, factor holding the first, depth)
    stack = [(lo, hi, bisect_right(bounds, lo), 0)]
    while stack:
        a, b, f, depth = stack.pop()
        while a <= b:
            l = start[f - 1]
            e = bounds[f]  # one past the piece, which ends at b or with f
            if not l:
                out.append(count[f - 1])
                a = e
                f += 1
                continue
            if e > b:
                e = b + 1
            s = bounds[l - 1] + a - bounds[f - 1]  # source of the piece
            t = s + e - a
            # a piece never lies past the position it fills, and its
            # source ends before the piece's factor starts, so a source
            # from lo on lies wholly in out
            if s >= lo:
                while t - s > _PIECE:
                    out += out[s - lo:s - lo + _PIECE]
                    s += _PIECE
                out += out[s - lo:t - lo]
            elif depth < budget:
                if e <= b:
                    stack.append((e, b, f + 1, depth))
                stack.append((s, t - 1, bisect_right(bounds, s, l, l + count[f - 1] - 1),
                              depth + 1))
                break
            else:
                if ix is None:
                    from .access import build_access_index
                    ix = build_access_index(fact)
                out.extend(ix.access(q) for q in range(a, e))
            a = e
            f += 1
    return Text._adopt(bytes(out) if fact.alphabet_size <= BYTE_ALPHABET else out,
                       fact.alphabet_size)


def validate(fact: Factorization, text: Text | None = None) -> str | None:
    """Compare each char with its symbol in ``text`` and each copy with its
    source there; None when all agree, which by induction over the factors
    means decode(fact) == text, else the first mismatch.  Without a text
    there is nothing left to check: ``fact`` was checked when made.
    """
    if text is None:
        return None
    if len(text) != fact.n:
        return f"text length {len(text)} != factorization length {fact.n}"
    syms = text.symbols
    bounds = fact.bounds
    for i, (l, k) in enumerate(zip(fact.start, fact.count), start=1):
        lo = bounds[i - 1] - 1
        if not l:
            if syms[lo] != k:
                return f"factor {i}: char symbol mismatch"
        elif syms[lo:bounds[i] - 1] != syms[bounds[l - 1] - 1:bounds[l + k - 1] - 1]:
            return f"factor {i}: source mismatch"
    return None
