"""Interval-biased search tree over consecutive disjoint integer intervals.

The tree stores intervals [a_0,a_1), ..., [a_{m-1},a_m); the root of any
subtree holds the interval containing the integer midpoint of the subtree's
boundary span, so each child subtree spans at most half of its parent.
Node ids equal interval indices, so the tree is a BST over those ids and
the LCA of nodes u <= v is the first node on the root path whose id lies
in [u, v].  Searching costs O(log(span(start)/span(found))) node visits;
precomputed hints (three LCA nodes per query range: the range's own, found
by that root-path descent, and one per side of it, found by descending from
its children) let a search start below the root.  ``subtree_spans``, with
which the tests check the halving invariant, is in ``tests/helpers.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple


class Hint(NamedTuple):
    """Hint nodes for queries confined to boundary range [a_i, a_j)."""

    i: int
    j: int
    center: int        # lca(v_i, v_{j-1})
    left: int | None   # lca(v_i, v_{c-1}), absent when c == i
    right: int | None  # lca(v_{c+1}, v_{j-1}), absent when c == j-1


class Ibst:
    __slots__ = ("boundaries", "m", "root", "left", "right")

    def __init__(self, boundaries):
        b = list(boundaries)
        if len(b) < 2:
            raise ValueError("need at least one interval")
        for x, y in zip(b, b[1:]):
            if x >= y:
                raise ValueError("boundaries must be strictly increasing")
        m = len(b) - 1
        self.boundaries = b
        self.m = m
        self.left = [-1] * m
        self.right = [-1] * m
        self.root = self._build(0, m)

    def _build(self, lo: int, hi: int) -> int:
        # subtree over intervals lo..hi-1 (boundary range [b[lo], b[hi]))
        if lo >= hi:
            return -1
        b = self.boundaries
        mid = (b[lo] + b[hi]) // 2
        i = bisect_right(b, mid, lo, hi) - 1
        if i < lo:
            i = lo
        l = self._build(lo, i)
        r = self._build(i + 1, hi)
        self.left[i] = l
        self.right[i] = r
        return i

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor: the first root-path node with id in [u, v]."""
        if u > v:
            u, v = v, u
        x = self.root
        while not u <= x <= v:
            x = self.left[x] if v < x else self.right[x]
        return x

    def _descend(self, v: int, q: int) -> tuple[int, int]:
        b = self.boundaries
        visits = 0
        while True:
            visits += 1
            if b[v] <= q < b[v + 1]:
                return v, visits
            v = self.left[v] if q < b[v] else self.right[v]

    def search_counted(self, q: int) -> tuple[int, int]:
        """(interval index containing q, nodes visited), searching from the root."""
        b = self.boundaries
        if not b[0] <= q < b[-1]:
            raise ValueError(f"query {q} outside [{b[0]}, {b[-1]})")
        return self._descend(self.root, q)

    def hint_for(self, i: int, j: int) -> Hint:
        """Hint for queries in the boundary range [a_i, a_j); 0 <= i < j <= m."""
        if not 0 <= i < j <= self.m:
            raise ValueError(f"bad boundary range ({i}, {j})")
        c = self.lca(i, j - 1)
        # ids i..c-1 all lie in c's left subtree, whose ids are all below c,
        # so lca(i, c-1) is the first node from left[c] with id >= i; the
        # right side mirrors it
        vl = vr = None
        if c > i:
            vl = self.left[c]
            while vl < i:
                vl = self.right[vl]
        if c < j - 1:
            vr = self.right[c]
            while vr > j - 1:
                vr = self.left[vr]
        return Hint(i, j, c, vl, vr)

    def search_with_hint_counted(self, hint: Hint, q: int) -> tuple[int, int]:
        """Hint-accelerated search; q must lie inside the hint's range."""
        b = self.boundaries
        if not b[hint.i] <= q < b[hint.j]:
            raise ValueError(f"query {q} outside hint range [{b[hint.i]}, {b[hint.j]})")
        c = hint.center
        if b[c] <= q < b[c + 1]:
            return c, 1
        if q < b[c]:
            v, visits = self._descend(hint.left, q)
        else:
            v, visits = self._descend(hint.right, q)
        return v, visits + 1

