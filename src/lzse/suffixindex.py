"""Suffix array and LCP array.

Positions stored in ``sa`` are 1-based, matching the factorization
position model; ranks are 0-based.  Both arrays are flat ``array('i')``
buffers, 4 bytes an entry, which the LZ77/LZSS baselines scan in rank order.

The suffix array comes from Larsson-Sadakane prefix doubling (TCS 2007)
widened to k-tupling: suffixes are first sorted by their first few symbols
packed into one int64, then each round re-sorts only the groups that still
hold more than one suffix, by one int64 key that folds k ranks spaced h
apart, so the compared prefix grows k-fold a round (k = 3 while such keys
fit 63 bits).  Groups sort independently of one another, so a round sorts
them in batches of whole groups of at most ``_BATCH`` slots, and only a
group larger than that alone.  The rounds leave one int8 per pair of
adjacent SA slots: the number of rounds' groupings in which the pair shares
a group.  The LCP array is read off those groupings, rebuilt one at a time
from the top, in batches of slots too.  Positions and ranks are int32; only
sort keys are int64, and the packed keys die after the first sort.  ``sa``
and ``lcp`` are allocated as ``array('i')`` and filled through numpy views.
So a build holds about 24 bytes per symbol at its peak, the first sort's
(sa 4, keys 8, argsort's order 8, symbols 2 in byte mode), plus a batch's
temporaries; only a group larger than a batch takes more.  numpy is
imported inside the functions that build arrays, so importing the package
(and the read-side commands) never loads it.
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

# The most SA slots a batch of a tupling round (whole groups) or of the LCP
# descent covers, so their temporaries stay this size whatever n is.
_BATCH = 1 << 15


def _fold_count(n: int) -> int:
    """k, the ranks each round's sort key folds, for a text of n symbols."""
    return _MAX_FOLD if (n + 2) ** _MAX_FOLD < _KEY_LIMIT else 2


def _digits(text: Text):
    """Each symbol as a digit 1..base-1, then digit 0 for past the end.

    Byte mode: symbol + 1 in base 257 (int16); token mode: dense rank + 1,
    the token's place among the distinct tokens (int32), in base one above
    the largest digit.
    Returns the digits, base, and width: the most digits one int64 key
    packs, base**width <= 2**63.
    """
    import numpy as np
    n = len(text)
    if text.is_byte_mode:
        digits = np.zeros(n + 1, dtype=np.int16)
        digits[:n] = np.frombuffer(text.symbols, dtype=np.uint8)
        base = 257
    else:
        tokens = np.frombuffer(text.symbols, dtype=np.uint32)
        distinct = np.unique(tokens)
        digits = np.zeros(n + 1, dtype=np.int32)
        digits[:n] = np.searchsorted(distinct, tokens)
        base = len(distinct) + 1
    digits[:n] += 1
    width = 1
    while base ** (width + 1) <= _KEY_LIMIT:
        width += 1
    return digits, base, width


def _pack_keys(digits: np.ndarray, base: int, width: int) -> np.ndarray:
    """Every suffix's first ``width`` digits packed into one int64 key.

    key[n] = 0 is the empty suffix.  Keys compare like the suffixes' first
    ``width`` symbols, a shorter suffix first.
    """
    import numpy as np
    n = len(digits) - 1
    key = np.zeros(n + 1, dtype=np.int64)
    for j in range(width):
        key *= base
        if j < n:
            key[: n - j] += digits[j:n]
    return key


# joined of two adjacent slots whose group no round has split yet
_UNSPLIT = 127


def _group_batches(active: np.ndarray, joined: np.ndarray, level: int):
    """Cut ``active`` into batches of whole level-``level`` groups.

    ``active`` lists the SA slots of the groups with more than one member,
    ascending, and slot x ends its group when joined[x] <= level.  Yields
    (p, q, was_end) for the batch active[p:q]: groups holding at most
    ``_BATCH`` slots together, or one group larger than that; was_end marks
    the batch's slots that end a group.
    """
    import numpy as np
    m = len(active)
    p = 0
    while p < m:
        q = min(p + _BATCH, m)
        was_end = joined[active[p:q]] <= level
        if q < m:
            ends = np.flatnonzero(was_end)
            if ends.size:
                q = p + int(ends[-1]) + 1
                was_end = was_end[: q - p]
            else:
                # the group at p is larger than a batch; its slots are
                # consecutive, so its end is the first end slot past them,
                # looked for in windows that double
                x = int(active[p]) + _BATCH
                span = _BATCH
                ends = np.flatnonzero(joined[x:x + span] <= level)
                while not ends.size:
                    x += span
                    span *= 2
                    ends = np.flatnonzero(joined[x:x + span] <= level)
                q = p + x + int(ends[0]) - int(active[p]) + 1
                was_end = np.zeros(q - p, dtype=bool)
                was_end[-1] = True
        yield p, q, was_end
        p = q


def _sort_by_keys(key: np.ndarray, sa: np.ndarray, same: np.ndarray) -> None:
    """Sort the suffixes into sa by their packed keys.

    Sets same[e] where the suffixes in slots e and e+1 have equal keys.
    """
    import numpy as np
    n = len(sa)
    sa[:] = np.argsort(key[:n])
    for lo in range(0, n - 1, _BATCH):
        edge = key[sa[lo:lo + _BATCH + 1]]
        np.equal(edge[1:], edge[:-1], out=same[lo:lo + len(edge) - 1])


def _first_groups(sa: np.ndarray, pad: np.ndarray):
    """Ranks of level 0, and the ascending slots of its open groups.

    pad[1 + e] is 1 where slots e and e+1 are in one group and pad[0] = 0.
    Returns rank (int32, rank[n] = -1) and the slots of the groups with
    more than one member.
    """
    import numpy as np
    n = len(sa)
    same = pad.view(bool)[1:]
    rank = np.empty(n + 1, dtype=np.int32)
    rank[n] = -1
    opened = []
    end = n - 1
    for lo in reversed(range(0, n, _BATCH)):
        hi = min(lo + _BATCH, n)
        slots = np.arange(lo, hi, dtype=np.int32)
        ends = np.where(same[lo:hi], end, slots)
        # each slot's end is the first end slot from it on
        np.minimum.accumulate(ends[::-1], out=ends[::-1])
        rank[sa[lo:hi]] = ends
        end = int(ends[0])
        # pad[lo:hi] says whether each slot joins the one before it
        opened.append(slots[same[lo:hi] | pad.view(bool)[lo:hi]])
    return rank, np.concatenate(opened[::-1])


def _sort_groups(sa: np.ndarray, rank: np.ndarray, slots: np.ndarray,
                 was_end: np.ndarray, h: int, k: int) -> np.ndarray:
    """Sort a batch of whole groups by their suffixes' ranks h apart.

    ``slots`` are the batch's SA slots and ``was_end`` marks those that end
    a group.  Writes the suffixes in their new order to sa[slots] and
    returns which slots end a group now.
    """
    import numpy as np
    n = len(rank) - 1
    members = np.take(sa, slots)
    # a key's first digit is its group's place in the batch
    place = np.cumsum(was_end, dtype=np.int32)
    place -= was_end
    sort_key = place.astype(np.int64)
    del place
    at = np.empty_like(members)
    for t in range(1, k):
        # at = min(members + t*h, n), with no int32 sum above n
        np.minimum(members, n - t * h, out=at)
        at += t * h
        sort_key *= n + 2
        sort_key += np.take(rank, at)
        sort_key += 1
    del at
    order = np.argsort(sort_key, kind="stable")
    sa[slots] = np.take(members, order)
    del members
    sort_key = np.take(sort_key, order)
    is_end = np.empty(len(slots), dtype=bool)
    is_end[-1] = True
    np.not_equal(sort_key[1:], sort_key[:-1], out=is_end[:-1])
    return is_end


def _prefix_tupling(key: np.ndarray, width: int, k: int, sa: np.ndarray):
    """Fill sa (int32) with the 0-based SA; return how long adjacent slots stay grouped.

    Larsson-Sadakane ranks: rank[i] is the end slot of suffix i's group.
    Round j re-sorts only the suffixes of groups with more than one member,
    by the single int64 key that folds the group, rank[i+h]+1, ...,
    rank[i+(k-1)h]+1 in base n+2, h = width*k**j.  Groups sort independently
    of one another, so a round takes them in batches of whole groups
    (``_group_batches``).  Batches share no slot, so each writes its slots
    of sa at once; ranks change only after the last batch, so every key of
    the round reads the ranks from before it.  So before round j, rank[i]
    == rank[i'] for i != i' exactly when suffixes i and i' share their
    first width*k**j symbols: that grouping is level j, and each of its
    groups is a run of SA slots.  joined[e] (int8) ends as the number of
    levels at which slots e and e+1 are in one group, written when their
    group splits them (``_UNSPLIT`` until then); the count of rounds is the
    count of levels.  ``key`` is the caller's only reference: it is freed
    once level 0 is sorted.
    """
    import numpy as np
    n = len(key) - 1
    # one byte before joined stands for slot -1, which joins no slot
    pad = np.zeros(n + 1, dtype=np.int8)
    joined = pad[1:]
    _sort_by_keys(key, sa, pad.view(bool)[1:])
    del key
    rank, active = _first_groups(sa, pad)
    # joined slots stay _UNSPLIT until a round splits them
    pad *= _UNSPLIT
    rounds = 0
    h = width
    while active.size:
        # two suffixes sharing h symbols are both at least h long
        if h >= n:
            raise RuntimeError(f"suffix groups still open at prefix length {h}")
        rounds += 1
        # for each active slot: the rank of the suffix sorted into it, and
        # whether its new group still has more than one member
        fresh = np.empty_like(active)
        keep = np.empty(len(active), dtype=bool)
        for p, q, was_end in _group_batches(active, joined, rounds - 1):
            slots = active[p:q]
            is_end = _sort_groups(sa, rank, slots, was_end, h, k)
            end_at = np.flatnonzero(is_end)
            fresh[p:q] = np.repeat(slots[end_at], np.diff(end_at, prepend=-1))
            joined[slots[is_end > was_end]] = rounds
            np.logical_not(is_end, out=keep[p:q])
            keep[p + 1:q] |= ~is_end[:-1]
        for p in range(0, len(active), _BATCH):
            rank[np.take(sa, active[p:p + _BATCH])] = fresh[p:p + _BATCH]
        # slots is a view of active, which the next line replaces
        del fresh, slots
        active = active[keep]
        h *= k
    return joined, rounds


def _adjacent_lcp(sa: np.ndarray, joined: np.ndarray, rounds: int,
                  digits: np.ndarray, width: int, k: int,
                  lcp: np.ndarray) -> None:
    """Fill lcp[r] (int32) with the LCP of suffixes sa[r-1] and sa[r].

    Each pair's LCP is below width*k**rounds.  Level j, rebuilt from
    ``joined`` as a group number per suffix, tells whether two suffixes
    share width*k**j symbols.  So taking the levels from the top and
    advancing both suffixes by that many symbols, up to k-1 times at each
    level while their groups agree, leaves less than ``width`` symbols,
    compared one at a time.  lcp holds each pair's advance so far, so the
    suffixes it compares start at sa[r-1] + lcp[r] and sa[r] + lcp[r].  A
    pair whose slots share no level-j group has not advanced and cannot at
    level j, so each level takes only the pairs with joined > j.  Both
    passes go in batches of ``_BATCH`` slots.
    """
    import numpy as np
    n = len(sa)
    level = np.empty(n + 1, dtype=np.int32)
    level[n] = -1
    h = width * k ** rounds
    for j in reversed(range(rounds)):
        h //= k
        # level[i]: the number of level-j groups before suffix i's
        groups = 0
        for lo in range(0, n, _BATCH):
            cut = joined[lo:lo + _BATCH] <= j
            group = np.cumsum(cut, dtype=np.int32)
            group += groups
            groups = int(group[-1])
            group -= cut
            level[sa[lo:lo + _BATCH]] = group
        for lo in range(0, n, _BATCH):
            r = np.flatnonzero(joined[lo:lo + _BATCH] > j)
            r += lo + 1
            d = np.take(lcp, r)
            a = np.take(sa, r - 1)
            a += d
            b = np.take(sa, r)
            b += d
            step = np.empty_like(d)
            for _ in range(k - 1):
                same = np.take(level, a) == np.take(level, b)
                if not same.any():
                    break
                np.multiply(same, h, out=step)
                a += step
                b += step
                d += step
            lcp[r] = d
    for lo in range(1, n, _BATCH):
        d = lcp[lo:lo + _BATCH]
        a = sa[lo - 1:lo - 1 + len(d)] + d
        b = sa[lo:lo + len(d)] + d
        # a pair that differs stays put, so it differs at every later step
        for _ in range(width - 1):
            same = np.take(digits, a) == np.take(digits, b)
            if not same.any():
                break
            a += same
            b += same
            d += same


def build_suffix_index(text: Text) -> SuffixIndex:
    """Build the suffix array and the LCP array."""
    n = len(text)
    if n >= 1 << 31:
        raise ValueError("suffix positions must fit 31 bits")
    if n == 0:
        return SuffixIndex(text, array("i"), array("i"))
    import numpy as np
    digits, base, width = _digits(text)
    k = _fold_count(n)
    sa = array("i", [0]) * n
    sa_view = np.frombuffer(sa, dtype=np.intc)
    # the keys die once they have sorted level 0
    joined, rounds = _prefix_tupling(_pack_keys(digits, base, width), width,
                                     k, sa_view)
    lcp = array("i", [0]) * n
    _adjacent_lcp(sa_view, joined, rounds, digits, width, k,
                  np.frombuffer(lcp, dtype=np.intc))
    sa_view += 1
    return SuffixIndex(text, sa, lcp)
