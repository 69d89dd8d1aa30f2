"""Suffix array and LCP array.

Positions stored in ``sa`` are 1-based, matching the factorization
position model; ranks are 0-based.  The LZ77/LZSS baselines scan ``sa`` and
``lcp`` in rank order.  numpy is imported inside the functions that build
arrays, so importing the package (and the read-side commands) never loads
it.
"""

from __future__ import annotations

from .text import Text


class RangeArgMin:
    """Sparse-table range-minimum structure returning the leftmost argmin.

    No module of the package builds one; the test references answer LCP
    queries with it, and the benchmark's traced run times its build.
    """

    __slots__ = ("values", "_tables")

    def __init__(self, values):
        import numpy as np
        arr = np.asarray(values, dtype=np.int64)
        self.values = arr
        n = len(arr)
        tables = []
        if n:
            tables.append(np.arange(n, dtype=np.int32))
            # mins[i] is the minimum the newest table's entry i points at
            mins = arr
            k = 1
            while (1 << k) <= n:
                prev = tables[-1]
                half = 1 << (k - 1)
                m = n - (1 << k) + 1
                left, right = mins[:m], mins[half : half + m]
                # <= keeps the smaller index on ties
                take_left = left <= right
                tables.append(np.where(take_left, prev[:m], prev[half : half + m]))
                mins = np.minimum(left, right)
                k += 1
        self._tables = tables

    def argmin(self, lo: int, hi: int) -> int:
        """Index of the minimum over values[lo..hi] inclusive, leftmost on ties."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if not 0 <= lo <= hi < len(self.values):
            raise ValueError(f"range [{lo}, {hi}] out of bounds")
        k = (hi - lo + 1).bit_length() - 1
        a = int(self._tables[k][lo])
        b = int(self._tables[k][hi - (1 << k) + 1])
        if self.values[a] <= self.values[b]:
            return a
        return b

    def min(self, lo: int, hi: int) -> int:
        return int(self.values[self.argmin(lo, hi)])


class SuffixIndex:
    """Suffix array over a text with its LCP array.

    sa[i] is the 1-based start of the rank-i suffix; lcp[i] is the common
    prefix length of the suffixes of ranks i-1 and i (lcp[0] = 0).
    """

    __slots__ = ("text", "n", "sa", "lcp")

    def __init__(self, text: Text, sa, lcp):
        self.text = text
        self.n = len(text)
        self.sa = sa
        self.lcp = lcp


# Packed keys must stay below 2**63 to fit int64.
_KEY_LIMIT = 1 << 63


def _pack_keys(text: Text) -> tuple[np.ndarray, int, int]:
    """Every suffix's first ``width`` symbols packed into one int64 key.

    Symbols become digits 1..base-1 (byte mode: symbol + 1 in base 257;
    token mode: dense rank + 1 after ``np.unique``), digit 0 means past the
    end, and ``width`` is the most digits for which base**width <= 2**63.
    key[n] = 0 is the empty suffix.  Keys compare like the suffixes' first
    ``width`` symbols, a shorter suffix first, and key // base**(width - m)
    packs the first m symbols alone.
    """
    import numpy as np
    n = len(text)
    if text.is_byte_mode:
        digits = np.frombuffer(text.symbols, dtype=np.uint8).astype(np.int64)
        base = 257
    else:
        _, digits = np.unique(np.frombuffer(text.symbols, dtype=np.uint32),
                              return_inverse=True)
        base = int(digits.max()) + 2
    digits += 1
    width = 1
    while base ** (width + 1) <= _KEY_LIMIT:
        width += 1
    padded = np.zeros(n + width, dtype=np.int64)
    padded[:n] = digits
    key = padded[: n + 1].copy()
    for j in range(1, width):
        key *= base
        key += padded[j : j + n + 1]
    return key, base, width


def _group_ends(sorted_keys: np.ndarray, slots: np.ndarray):
    """Group-end slot of each element of a sorted run, and which share a group.

    ``slots`` are the ascending SA slots the run occupies; a group is a
    maximal run of equal keys and its end is the slot of its last member.
    """
    import numpy as np
    is_end = np.empty(len(sorted_keys), dtype=bool)
    is_end[-1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_end[:-1])
    end_at = np.flatnonzero(is_end)
    sizes = np.diff(end_at, prepend=-1)
    return np.repeat(slots[end_at], sizes), np.repeat(sizes > 1, sizes)


def _prefix_doubling(key: np.ndarray, width: int):
    """0-based SA and the rank levels of each doubling round.

    Ranks are Larsson-Sadakane group ends.  Each round re-sorts only the
    suffixes of groups with more than one member, by the single key
    rank[i]*(n+2) + rank[i+h]+1, and computes every key before any rank
    changes.  So level k (int32, with level[n] = -1 for the empty suffix)
    has level[i] == level[j], i != j, exactly when suffixes i and j share
    their first width*2**k symbols.  The final ranks, all distinct, are
    not kept as a level.
    """
    import numpy as np
    n = len(key) - 1
    sa = np.argsort(key[:n])
    rank = np.empty(n + 1, dtype=np.int32)
    rank[n] = -1
    ends, shared = _group_ends(key[sa], np.arange(n))
    rank[sa] = ends
    # active: SA slots of groups with more than one member, ascending;
    # active_rank: the rank of the suffix in each of those slots
    active = np.flatnonzero(shared)
    active_rank = ends[shared]
    levels = []
    h = width
    while active.size:
        # two suffixes sharing h symbols are both at least h long
        if h >= n:
            raise RuntimeError(f"suffix groups still open at prefix length {h}")
        levels.append(rank.copy())
        members = sa[active]
        sort_key = active_rank * (n + 2)
        sort_key += rank[np.minimum(members + h, n)]
        sort_key += 1
        order = np.argsort(sort_key)
        members = members[order]
        sa[active] = members
        ends, shared = _group_ends(sort_key[order], active)
        rank[members] = ends
        active = active[shared]
        active_rank = ends[shared]
        h *= 2
    return sa, levels


def _adjacent_lcp(sa: np.ndarray, key: np.ndarray, base: int, width: int,
                  levels) -> np.ndarray:
    """lcp[r] of suffixes sa[r-1] and sa[r], by descent over the rank levels.

    Each pair's LCP is below the final width*2**K, so taking the levels from
    the top and advancing both suffixes by h wherever their ranks agree
    leaves less than ``width`` symbols; prefixes of the packed keys of
    halving length finish those.
    """
    import numpy as np
    n = len(sa)
    lcp = np.zeros(n, dtype=np.int64)
    a = sa[:-1].copy()
    b = sa[1:].copy()
    d = lcp[1:]
    h = width << len(levels)
    for level in reversed(levels):
        h >>= 1
        step = (level[a] == level[b]) * h
        a += step
        b += step
        d += step
    m = 1 << ((width - 1).bit_length() - 1) if width > 1 else 0
    while m:
        div = base ** (width - m)
        step = (key[a] // div == key[b] // div) * m
        a += step
        b += step
        d += step
        m >>= 1
    return lcp


def _suffix_arrays(text: Text):
    """0-based SA and LCP as numpy arrays; every temporary dies here."""
    key, base, width = _pack_keys(text)
    sa, levels = _prefix_doubling(key, width)
    return sa, _adjacent_lcp(sa, key, base, width, levels)


def build_suffix_index(text: Text) -> SuffixIndex:
    """Build the suffix array and the LCP array."""
    if len(text) == 0:
        return SuffixIndex(text, [], [])
    sa, lcp = _suffix_arrays(text)
    return SuffixIndex(text, (sa + 1).tolist(), lcp.tolist())
