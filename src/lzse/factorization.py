"""LZSE factorization data model: factors, decoding and validation.

Factor indices and text positions are 1-based throughout, mirroring the
usual factorization notation: factor i occupies T[pos_l(i)..pos_r(i)].
A copy factor at index i refers to the contiguous run of earlier factors
F_l .. F_{l+k-1} with l + k - 1 < i.  The jump function and the extended
factors, which the paper uses to bound access and to prove the greedy trie
correct, live with the test oracles in ``tests/helpers.py``.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Sequence, Union

from .text import BYTE_ALPHABET, Text


class Char(NamedTuple):
    symbol: int


class Copy(NamedTuple):
    start: int   # index l of the first referenced factor
    count: int   # number k of referenced factors


Factor = Union[Char, Copy]


class FactorizationError(ValueError):
    pass


def _structural_violation(factors: Sequence[Factor]) -> str | None:
    for i, f in enumerate(factors, start=1):
        if isinstance(f, Char):
            if f.symbol < 0:
                return f"factor {i}: negative symbol"
        elif isinstance(f, Copy):
            if f.start < 1 or f.count < 1:
                return f"factor {i}: non-positive copy fields"
            if f.start + f.count - 1 >= i:
                return f"factor {i}: forward reference"
        else:
            return f"factor {i}: unknown factor kind"
    return None


class Factorization:
    """Ordered factor sequence with cached factor boundaries.

    bounds[t] = pos_l of factor t+1 for t in 0..z-1, and bounds[z] = n + 1,
    so factor i spans [bounds[i-1], bounds[i] - 1].
    """

    __slots__ = ("factors", "n", "bounds", "alphabet_size")

    def __init__(self, factors: Sequence[Factor], n: int | None = None,
                 alphabet_size: int = 256):
        factors = list(factors)
        violation = _structural_violation(factors)
        if violation is not None:
            raise FactorizationError(violation)
        bounds = [1]
        for f in factors:
            if isinstance(f, Char):
                length = 1
            else:
                length = bounds[f.start + f.count - 1] - bounds[f.start - 1]
            bounds.append(bounds[-1] + length)
        self.factors = factors
        self.bounds = bounds
        self.n = bounds[-1] - 1
        self.alphabet_size = alphabet_size
        if n is not None and n != self.n:
            raise FactorizationError(f"factor lengths sum to {self.n}, expected {n}")

    @property
    def z(self) -> int:
        return len(self.factors)

    def factor(self, i: int) -> Factor:
        return self.factors[i - 1]

    def pos_l(self, i: int) -> int:
        return self.bounds[i - 1]

    def pos_r(self, i: int) -> int:
        return self.bounds[i] - 1

    def length(self, i: int) -> int:
        return self.bounds[i] - self.bounds[i - 1]

    def src_l(self, i: int) -> int:
        f = self.factors[i - 1]
        if not isinstance(f, Copy):
            raise FactorizationError(f"factor {i} is not a copy factor")
        return self.bounds[f.start - 1]

    def src_r(self, i: int) -> int:
        f = self.factors[i - 1]
        if not isinstance(f, Copy):
            raise FactorizationError(f"factor {i} is not a copy factor")
        return self.bounds[f.start + f.count - 1] - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Factorization) and self.factors == other.factors

    def __repr__(self) -> str:
        return f"Factorization(z={self.z}, n={self.n})"


def decode(fact: Factorization) -> Text:
    """Expand a factorization back into its text, left to right.

    Symbols go into the buffer kind that ``Text`` holds, and each copy
    factor is one slice copy of the output so far.
    """
    out = bytearray() if fact.alphabet_size <= BYTE_ALPHABET else array("I")
    bounds = fact.bounds
    try:
        for f in fact.factors:
            if isinstance(f, Char):
                out.append(f.symbol)
            else:
                out += out[bounds[f.start - 1] - 1:bounds[f.start + f.count - 1] - 1]
    except OverflowError as ex:
        raise ValueError(f"char symbol out of range for alphabet {fact.alphabet_size}") from ex
    return Text(out, fact.alphabet_size)


def validate(fact: Factorization, text: Text | None = None) -> str | None:
    """Check LZSE validity; returns None when valid, else the first violation.

    Structural checks (index bounds, no forward references, positional
    consistency) always run.  When the original text is supplied, every
    copy factor's expansion is compared against its source interval and
    char symbols against the text.
    """
    factors = fact.factors
    violation = _structural_violation(factors)
    if violation is not None:
        return violation
    if text is not None:
        if len(text) != fact.n:
            return f"text length {len(text)} != factorization length {fact.n}"
        for i, f in enumerate(factors, start=1):
            if isinstance(f, Char):
                if text[fact.pos_l(i) - 1] != f.symbol:
                    return f"factor {i}: char symbol mismatch"
            else:
                lo, hi = fact.pos_l(i), fact.pos_r(i)
                slo, shi = fact.src_l(i), fact.src_r(i)
                if text.symbols[lo - 1:hi] != text.symbols[slo - 1:shi]:
                    return f"factor {i}: source mismatch"
    return None

