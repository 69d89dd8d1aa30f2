"""Suffix array, with the LCP array on demand.

Positions stored in ``sa`` are 1-based, matching the factorization
position model; ranks are 0-based.  ``sa`` is a flat ``array('i')``
buffer, 4 bytes an entry, which the LZ77/LZSS baselines scan in rank order.

The suffix array comes from Larsson-Sadakane prefix doubling (TCS 2007)
widened to k-tupling: suffixes are first sorted by their first few symbols
packed into one int64, then each round re-sorts only the groups that still
hold more than one suffix, by one int64 key that folds k ranks spaced h
apart, so the compared prefix grows k-fold a round (k = 3 while such keys
fit 63 bits).  Groups sort independently of one another, so a round sorts
them in batches of whole groups of at most ``_BATCH`` slots, and only a
group larger than that alone; one bool per SA slot marks where a group
ends.  Positions and ranks are int32; only sort keys are int64, and the
packed keys die after the first sort.  ``sa`` is allocated as
``array('i')`` and filled through a numpy view.  So a build holds about 21
bytes per symbol at its peak, the first sort's (sa 4, keys 8, argsort's
order 8, group ends 1), plus a batch's temporaries; only a group larger
than a batch takes more.  The build computes no LCP array: the baselines
compare the text directly, and Kasai's scan computes ``lcp`` the first
time it is read.  numpy is imported inside the functions that build
arrays, so importing the package (and the read-side commands) never loads
it.
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
    """Suffix array over a text, with its LCP array on demand.

    sa[i] is the 1-based start of the rank-i suffix; lcp[i] is the common
    prefix length of the suffixes of ranks i-1 and i (lcp[0] = 0).  Both
    are ``array('i')``.  No module of the package reads lcp; the test
    references and the benchmark's traced run do, and the first read
    computes it.
    """

    __slots__ = ("text", "n", "sa", "_lcp")

    def __init__(self, text: Text, sa):
        self.text = text
        self.n = len(text)
        self.sa = sa
        self._lcp = None

    @property
    def lcp(self):
        """Kasai et al.'s scan (CPM 2001): in text order, each suffix shares
        at least one symbol less with its rank predecessor than the suffix
        before it did."""
        if self._lcp is None:
            syms, sa, n = self.text.symbols, self.sa, self.n
            lcp = array("i", [0]) * n
            rank = array("i", [0]) * (n + 1)
            for r, p in enumerate(sa):
                rank[p] = r
            h = 0
            for i in range(1, n + 1):
                r = rank[i]
                if r:
                    j = sa[r - 1]
                    # j's suffix ranks below i's, so if either is a prefix
                    # of the other, it is j's: j + h passes the end first
                    while j + h <= n and syms[i + h - 1] == syms[j + h - 1]:
                        h += 1
                    lcp[r] = h
                    if h:
                        h -= 1
                else:
                    h = 0
            self._lcp = lcp
        return self._lcp


# Packed keys must stay below 2**63 to fit int64.
_KEY_LIMIT = 1 << 63

# The most ranks one sort key folds.  A key of k ranks, each at most n + 1,
# needs (n + 2)**k < _KEY_LIMIT: k = 3 for n up to about 2**21, 2 above.
_MAX_FOLD = 3

# The most SA slots a batch of a tupling round (whole groups) or of a pass
# over level 0 covers, so their temporaries stay this size whatever n is.
_BATCH = 1 << 15


def _fold_count(n: int) -> int:
    """k, the ranks each round's sort key folds, for a text of n symbols."""
    return _MAX_FOLD if (n + 2) ** _MAX_FOLD < _KEY_LIMIT else 2


def _pack_keys(text: Text):
    """Every suffix's first ``width`` symbols packed into one int64 key.

    Each symbol becomes a digit 1..base-1, then digit 0 stands for past the
    end: in byte mode symbol + 1 in base 257 (int16); in token mode dense
    rank + 1, the token's place among the distinct tokens (int32), in base
    one above the largest digit.  width is the most digits one key packs,
    base**width <= 2**63.  key[n] = 0 is the empty suffix.  Keys compare
    like the suffixes' first ``width`` symbols, a shorter suffix first.
    Returns (key, width); the digits die here.
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
    key = np.zeros(n + 1, dtype=np.int64)
    for j in range(width):
        key *= base
        if j < n:
            key[: n - j] += digits[j:n]
    return key, width


def _group_batches(active: np.ndarray, end: np.ndarray):
    """Cut ``active`` into batches of whole groups.

    ``active`` lists the SA slots of the groups with more than one member,
    ascending, and end[x] is set where slot x ends its group.  Yields
    (p, q, was_end) for the batch active[p:q]: groups holding at most
    ``_BATCH`` slots together, or one group larger than that; was_end marks
    the batch's slots that end a group.
    """
    import numpy as np
    m = len(active)
    p = 0
    while p < m:
        q = min(p + _BATCH, m)
        was_end = end[active[p:q]]
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
                ends = np.flatnonzero(end[x:x + span])
                while not ends.size:
                    x += span
                    span *= 2
                    ends = np.flatnonzero(end[x:x + span])
                q = p + x + int(ends[0]) - int(active[p]) + 1
                was_end = np.zeros(q - p, dtype=bool)
                was_end[-1] = True
        yield p, q, was_end
        p = q


def _sort_by_keys(key: np.ndarray, sa: np.ndarray, end: np.ndarray) -> None:
    """Sort the suffixes into sa by their packed keys.

    Writes end[e], e < n - 1: whether the suffixes in slots e and e+1 have
    different keys.
    """
    import numpy as np
    n = len(sa)
    sa[:] = np.argsort(key[:n])
    for lo in range(0, n - 1, _BATCH):
        edge = key[sa[lo:lo + _BATCH + 1]]
        np.not_equal(edge[1:], edge[:-1], out=end[lo:lo + len(edge) - 1])


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


def _prefix_tupling(text: Text, k: int, sa: np.ndarray) -> None:
    """Fill sa (int32) with the 0-based SA of text.

    Larsson-Sadakane ranks: rank[i] is the end slot of suffix i's group.
    Round j re-sorts only the suffixes of groups with more than one member,
    by the single int64 key that folds the group, rank[i+h]+1, ...,
    rank[i+(k-1)h]+1 in base n+2, h = width*k**j.  Groups sort independently
    of one another, so a round takes them in batches of whole groups
    (``_group_batches``).  Batches share no slot, so each writes its slots
    of sa at once; ranks change only after the last batch, so every key of
    the round reads the ranks from before it.  So before round j, rank[i]
    == rank[i'] for i != i' exactly when suffixes i and i' share their
    first width*k**j symbols, and each group is a run of SA slots.  end[x]
    (one bool a slot) marks the slots that end their group; a round only
    sets more of them.  Level 0 is sorted by the packed keys
    (``_pack_keys``), which are freed once they are; its ranks come from
    the same pass over its groups as every round's, one that sorts nothing.
    """
    import numpy as np
    n = len(sa)
    key, width = _pack_keys(text)
    end = np.ones(n, dtype=bool)
    _sort_by_keys(key, sa, end)
    del key
    rank = np.empty(n + 1, dtype=np.int32)
    rank[n] = -1
    active = np.arange(n, dtype=np.int32)
    h = 0
    while active.size:
        # two suffixes sharing h symbols are both at least h long
        if h >= n:
            raise RuntimeError(f"suffix groups still open at prefix length {h}")
        # for each active slot: the rank of the suffix sorted into it, and
        # whether its new group still has more than one member
        fresh = np.empty_like(active)
        keep = np.empty(len(active), dtype=bool)
        for p, q, was_end in _group_batches(active, end):
            slots = active[p:q]
            is_end = _sort_groups(sa, rank, slots, was_end, h, k) if h else was_end
            end_at = np.flatnonzero(is_end)
            fresh[p:q] = np.repeat(slots[end_at], np.diff(end_at, prepend=-1))
            end[slots] = is_end
            np.logical_not(is_end, out=keep[p:q])
            keep[p + 1:q] |= ~is_end[:-1]
        for p in range(0, len(active), _BATCH):
            rank[np.take(sa, active[p:p + _BATCH])] = fresh[p:p + _BATCH]
        # slots is a view of active, which the next line replaces
        del fresh, slots
        active = active[keep]
        h = h * k if h else width


def build_suffix_index(text: Text) -> SuffixIndex:
    """Build the suffix array."""
    n = len(text)
    if n >= 1 << 31:
        raise ValueError("suffix positions must fit 31 bits")
    sa = array("i", [0]) * n
    if n:
        import numpy as np
        sa_view = np.frombuffer(sa, dtype=np.intc)
        _prefix_tupling(text, _fold_count(n), sa_view)
        sa_view += 1
    return SuffixIndex(text, sa)
