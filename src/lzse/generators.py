"""Generators for adversarial string families and synthetic corpora.

The ORSP family encodes range-sum queries as a token string whose greedy
LZSE factorization has exactly 3m+1 factors; the lower-bound family over
{a, b} separates the greedy factorization (2m^2 - 2m + 7 factors) from a
smaller hand-built one (m^2 + 6 factors).
"""

from __future__ import annotations

import random
from array import array
from typing import NamedTuple

from .factorization import Factorization
from .text import BYTE_ALPHABET, TOKEN_ALPHABET, Text, alphabet_for


class OrspInstance(NamedTuple):
    m: int
    queries: list[tuple[int, int]]
    text: Text  # tokens: x_k -> k-1 (k = 1..m), $_i -> m+i-1 (i = 1..m+1)

    def is_delimiter(self, sym: int) -> bool:
        return sym >= self.m


def gen_orsp(m: int, seed: int | None = None) -> OrspInstance:
    """Token text x_1..x_m $_1 Q_1 $_2 ... $_m Q_m $_{m+1} with Q_i = x_{l_i}..x_{r_i}."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = random.Random(seed)
    queries = []
    for _ in range(m):
        l = rng.randint(1, m)
        queries.append((l, rng.randint(l, m)))
    tokens = list(range(m))
    for i, (l, r) in enumerate(queries):
        tokens.append(m + i)
        tokens.extend(range(l - 1, r))
    tokens.append(2 * m)
    return OrspInstance(m, queries, Text(tokens, alphabet_size=2 * m + 1))


class LowerBoundFamily(NamedTuple):
    m: int
    text: Text
    alternative: Factorization  # valid non-greedy parse with m^2 + 6 factors


def gen_lower_bound_family(m: int) -> LowerBoundFamily:
    """Binary string T_{m-1,m-1} with its small alternative factorization.

    The text is A B followed by the blocks A_i b^(2^(j+1)) b for
    i = 1..m-1 ascending and, within each i, j = m-1..1 descending, where
    A = a^(2^(m+1)), B = b^(2^(m+1)) b and A_i is the suffix
    a^(2^(m-i+1)) ... a^(2^m) of A's doubling parse.  The alternative
    parse splits B as b|b|b|b^2|...|b^(2^m) so each appended block is a
    single copy of the contiguous run from a^(2^(m-i+1)) through
    b^(2^(j+1)+1) worth of factors.

    The order within a sweep matters to greedy.  With j descending every
    block costs greedy exactly two factors, [A_i b^(2^(j+1))][b], and each
    block ends on a factor boundary, which gives 2m^2 - 2m + 7 in total.
    With j ascending, greedy copies across block boundaries (for m = 4,
    b a^16 b^4 and b a^16 b^8 from the first sweep) and saves one factor
    per sweep after the first, giving 2m^2 - 3m + 9 instead.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    symbols = bytearray(b"a" * (1 << (m + 1)) + b"b" * ((1 << (m + 1)) + 1))
    # alternative parse of A B: a|a|a^2|...|a^(2^m)|b|b|b|b^2|...|b^(2^m):
    # a^(2^k) copies everything so far, b^(2^k) = b, b, b^2, ..., b^(2^(k-1))
    start = [0, 1] + [1] * m + [0, m + 3, m + 3] + [m + 4] * m
    count = [ord("a"), 1, *range(2, m + 2), ord("b"), 1, 1, *range(2, m + 2)]
    for i in range(1, m):
        for j in range(m - 1, 0, -1):
            symbols += b"a" * ((1 << (m + 1)) - (1 << (m - i + 1)))
            symbols += b"b" * ((1 << (j + 1)) + 1)
            # contiguous factors: a^(2^(m-i+1)) .. a^(2^m), b, b, b, b^2 .. b^(2^j)
            start.append(m - i + 3)
            count.append(i + j + 3)
    alternative = Factorization.from_lists(start, count, len(symbols))
    return LowerBoundFamily(m, Text(symbols), alternative)


def gen_unary(n: int) -> Text:
    if n < 0:
        raise ValueError("n must be non-negative")
    return Text(b"a" * n)


def gen_random(n: int, sigma: int, seed: int) -> Text:
    if n < 0 or sigma < 1:
        raise ValueError("need n >= 0 and sigma >= 1")
    if sigma > TOKEN_ALPHABET:
        raise ValueError(f"sigma {sigma} is above the {TOKEN_ALPHABET} token symbols")
    rng = random.Random(seed)
    draws = (rng.randrange(sigma) for _ in range(n))
    if sigma <= BYTE_ALPHABET:
        return Text(bytes(draws))
    return Text._adopt(array("I", draws), TOKEN_ALPHABET)


def gen_periodic(pattern, reps: int) -> Text:
    if reps < 0:
        raise ValueError("reps must be non-negative")
    if isinstance(pattern, str):
        pattern = pattern.encode("latin-1")
    if alphabet_for(pattern) == BYTE_ALPHABET:
        return Text(bytes(pattern) * reps)
    if not reps:
        return Text(b"")
    return Text._adopt(array("I", pattern) * reps, TOKEN_ALPHABET)
