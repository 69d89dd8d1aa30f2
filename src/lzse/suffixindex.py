"""Suffix array and LCP array.

Positions stored in ``sa`` are 1-based, matching the factorization
position model; ranks are 0-based.  Both arrays are flat ``array('i')``
buffers, 4 bytes an entry, which the LZ77/LZSS baselines scan in rank order.

The suffix array comes from Larsson-Sadakane prefix doubling (TCS 2007)
widened to k-tupling: suffixes are first sorted by their first few symbols
packed into one int64, then each round re-sorts only the groups that still
hold more than one suffix, by one int64 key that folds k ranks spaced h
apart, so the compared prefix grows k-fold a round (k = 3 while such keys
fit 63 bits).  The rounds leave one int8 per pair of adjacent SA slots: the
number of rounds' groupings in which the pair shares a group.  The LCP
array is read off those groupings, rebuilt one at a time from the top.
Positions and ranks are int32; only sort keys are int64.  numpy is imported
inside the functions that build arrays, so importing the package (and the
read-side commands) never loads it.
"""

from __future__ import annotations

from array import array

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
    prefix length of the suffixes of ranks i-1 and i (lcp[0] = 0).  Both
    are ``array('i')``.
    """

    __slots__ = ("text", "n", "sa", "lcp")

    def __init__(self, text: Text, sa, lcp):
        self.text = text
        self.n = len(text)
        self.sa = sa
        self.lcp = lcp


# Packed keys must stay below 2**63 to fit int64.
_KEY_LIMIT = 1 << 63

# The most ranks one sort key folds.  A key of k ranks, each at most n + 1,
# needs (n + 2)**k < _KEY_LIMIT: k = 3 for n up to about 2**21, 2 above.
_MAX_FOLD = 3


def _fold_count(n: int) -> int:
    """k, the ranks each round's sort key folds, for a text of n symbols."""
    return _MAX_FOLD if (n + 2) ** _MAX_FOLD < _KEY_LIMIT else 2


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
        digits = np.frombuffer(text.symbols, dtype=np.uint8).astype(np.int16)
        base = 257
    else:
        _, digits = np.unique(np.frombuffer(text.symbols, dtype=np.uint32),
                              return_inverse=True)
        base = int(digits.max()) + 2
    digits += 1
    width = 1
    while base ** (width + 1) <= _KEY_LIMIT:
        width += 1
    key = np.zeros(n + 1, dtype=np.int64)
    for j in range(width):
        key *= base
        if j < n:
            key[: n - j] += digits[j:]
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


def _prefix_tupling(key: np.ndarray, width: int, k: int):
    """0-based SA and its inverse (int32), and how long adjacent slots stay grouped.

    Ranks are Larsson-Sadakane group ends.  Round j re-sorts only the
    suffixes of groups with more than one member, by the single int64 key
    that folds rank[i], rank[i+h]+1, ..., rank[i+(k-1)h]+1 in base n+2,
    h = width*k**j, and computes every key before any rank changes.  So
    before round j, rank[i] == rank[i'] for i != i' exactly when suffixes i
    and i' share their first width*k**j symbols: that grouping is level j,
    and each of its groups is a run of SA slots.  joined[e] (int8) is the
    number of levels at which slots e and e+1 are in one group; the count of
    rounds is the count of levels.  The final ranks, all distinct, are the
    inverse of the SA, with rank[n] = -1.
    """
    import numpy as np
    n = len(key) - 1
    sa = np.argsort(key[:n]).astype(np.int32)
    rank = np.empty(n + 1, dtype=np.int32)
    rank[n] = -1
    slots = np.arange(n, dtype=np.int32)
    ends, shared = _group_ends(key[sa], slots)
    rank[sa] = ends
    joined = (ends != slots).view(np.int8)
    # active: SA slots of groups with more than one member, ascending;
    # active_rank: the rank of the suffix in each of those slots
    active = np.flatnonzero(shared).astype(np.int32)
    active_rank = ends[shared]
    del slots, ends, shared
    rounds = 0
    h = width
    while active.size:
        # two suffixes sharing h symbols are both at least h long
        if h >= n:
            raise RuntimeError(f"suffix groups still open at prefix length {h}")
        members = sa[active]
        sort_key = active_rank.astype(np.int64)
        at = np.empty_like(members)
        for t in range(1, k):
            # at = min(members + t*h, n), with no int32 sum above n
            np.minimum(members, n - t * h, out=at)
            at += t * h
            sort_key *= n + 2
            sort_key += rank[at]
            sort_key += 1
        del at
        order = np.argsort(sort_key, kind="stable")
        members = members[order]
        sort_key = sort_key[order]
        del order
        sa[active] = members
        ends, shared = _group_ends(sort_key, active)
        del sort_key
        rank[members] = ends
        rounds += 1
        joined[active[ends != active]] = rounds + 1
        active = active[shared]
        active_rank = ends[shared]
        h *= k
    return sa, rank, joined, rounds


def _adjacent_lcp(sa: np.ndarray, isa: np.ndarray, joined: np.ndarray,
                  rounds: int, key: np.ndarray, base: int, width: int,
                  k: int) -> np.ndarray:
    """lcp[r] (int32) of suffixes sa[r-1] and sa[r], by descent over the levels.

    Each pair's LCP is below width*k**rounds.  Level j, rebuilt from
    ``joined`` as a group number per suffix, tells whether two suffixes
    share width*k**j symbols.  So taking the levels from the top and
    advancing both suffixes by that many symbols, up to k-1 times at each
    level while their groups agree, leaves less than ``width`` symbols;
    prefixes of the packed keys of halving length finish those.
    """
    import numpy as np
    n = len(sa)
    lcp = np.zeros(n, dtype=np.int32)
    a = sa[:-1].copy()
    b = sa[1:].copy()
    d = lcp[1:]
    step = np.empty_like(a)
    # group: level-j group number per slot; level: the same per suffix,
    # with -1 for the empty suffix
    group = np.zeros(n, dtype=np.int32)
    level = np.empty(n + 1, dtype=np.int32)
    level[n] = -1
    h = width * k ** rounds
    for j in reversed(range(rounds)):
        h //= k
        np.cumsum(joined[:-1] <= j, dtype=np.int32, out=group[1:])
        # isa holds valid slots, so clip only spares take a buffered copy
        np.take(group, isa[:n], out=level[:n], mode="clip")
        for _ in range(k - 1):
            same = level[a] == level[b]
            if not same.any():
                break
            np.multiply(same, h, out=step)
            a += step
            b += step
            d += step
    m = 1 << ((width - 1).bit_length() - 1) if width > 1 else 0
    while m:
        div = base ** (width - m)
        np.multiply(key[a] // div == key[b] // div, m, out=step)
        a += step
        b += step
        d += step
        m >>= 1
    return lcp


def _suffix_arrays(text: Text):
    """0-based SA and LCP as int32 numpy arrays; every temporary dies here."""
    key, base, width = _pack_keys(text)
    k = _fold_count(len(text))
    sa, isa, joined, rounds = _prefix_tupling(key, width, k)
    return sa, _adjacent_lcp(sa, isa, joined, rounds, key, base, width, k)


def _int_buffer(values: np.ndarray) -> array:
    """An int32 numpy array's values as an ``array('i')``."""
    import numpy as np
    buf = array("i")
    buf.frombytes(memoryview(values.astype(np.intc, copy=False)).cast("B"))
    return buf


def build_suffix_index(text: Text) -> SuffixIndex:
    """Build the suffix array and the LCP array."""
    if len(text) >= 1 << 31:
        raise ValueError("suffix positions must fit 31 bits")
    if len(text) == 0:
        return SuffixIndex(text, array("i"), array("i"))
    sa, lcp = _suffix_arrays(text)
    sa += 1
    return SuffixIndex(text, _int_buffer(sa), _int_buffer(lcp))
