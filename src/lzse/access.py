"""O(log n) random access over an LZSE factorization.

A global IBST over factor spans simulates the jump function; per heavy
path of two or more factors, a second IBST over the skip coordinates
(L_1..L_l, R_l..R_1) finds in one search where a jump sequence leaves the
path.  Each of its intervals maps, through an exit table built with the
index, to the exit factor, the base that turns the skip coordinate into an
offset inside it, and the global hint for the jump that follows.  A
one-factor path needs no search: it exits at the query offset, into its
own source.  All searches after the first run from precomputed hints, so
the per-query node visits telescope to O(log n) and the loop crosses one
light edge per iteration.  A global hint depends only on its boundary
range, and copy factors repeat their sources often (17,887 copy factors
name 2,356 distinct ranges on 1 MiB of block-repetitive text), so the
index computes one immutable ``Hint`` per distinct range and every copy
factor and path exit landing there shares it.  ``footprint()`` still counts
one hint per copy factor, as the space analysis does.

A one-shot query needs none of this.  The CLI's ``access`` and both
``extract``s run ``factorization._expand``, the expansion that ``decode``
runs too: ``access`` over one position.  One-shot reads give up after
``jump_budget(n)`` jumps along one chain, 4 * ceil(lg(n + 1)), build the
index once and finish from where the chain stopped; a jump keeps the
symbol, so the answer is the same.  The cost of a one-shot query is then
the archive read, O(B lg z) for the jumps, and at most one index build: a
hostile chain of one-factor copies costs what it cost with the index alone.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

from .dag import compute_path_counts, heavy_paths, select_heavy_edges
from .factorization import JUMP_FACTOR, Factorization, _expand, jump_budget  # noqa: F401
from .ibst import Hint, Ibst
from .text import Text


class PathSkip:
    """Skip structure for one heavy path (F_{i_1}, ..., F_{i_l}).

    L/R follow the usual recurrences (R_j = L_j + |F_{i_j}|); the interval
    collection drops empty members.  The query value q = L_s + r_s - 1 is
    invariant along the in-path jump chain, so one IBST search locates the
    exit, and exits[idx] = (exit factor, base, hint) resolves it: the offset
    inside the exit factor is q - base, and the hint covers the part of the
    global IBST the jump out of that factor lands in (None when the exit
    factor is a char factor).
    """

    __slots__ = ("path", "L", "R", "ibst", "pos_hints", "exits")

    def __init__(self, fact: Factorization, path: list[int],
                 global_hint: Callable[[int, int], Hint],
                 src_hints: list[Hint | None]):
        ell = len(path)
        L = [0] * ell
        for j in range(1, ell):
            gap = fact.pos_l(path[j]) - fact.src_l(path[j - 1])
            L[j] = L[j - 1] + gap
        R = [0] * ell
        R[ell - 1] = L[ell - 1] + fact.length(path[ell - 1])
        for j in range(ell - 2, -1, -1):
            gap = fact.src_r(path[j]) - fact.pos_r(path[j + 1])
            R[j] = R[j + 1] + gap
        self.path = path
        self.L = L
        self.R = R

        # (start, exit factor's path index, global range the jump lands in)
        # per interval: exits left of the next path node, the final exit
        # (None: its own source hint), then exits right of the next node.
        start, count = fact.start, fact.count
        seq = []
        for j in range(ell - 1):
            seq.append((L[j], j, (start[path[j] - 1] - 1, path[j + 1] - 1)))
        seq.append((L[ell - 1], ell - 1, None))
        for j in range(ell - 2, -1, -1):
            f = path[j] - 1
            seq.append((R[j + 1], j, (path[j + 1], start[f] + count[f] - 1)))
        seq.append((R[0], None, None))  # closing boundary only
        boundaries = []
        exits = []
        for (value, j, landing), (nxt, _, _) in zip(seq, seq[1:]):
            if nxt == value:  # empty intervals are dropped
                continue
            boundaries.append(value)
            f = path[j]
            hint = (src_hints[f] if landing is None
                    else global_hint(*landing))
            exits.append((f, L[j] - 1, hint))
        boundaries.append(R[0])
        self.ibst = Ibst(boundaries)
        self.exits = exits
        self.pos_hints = [
            self.ibst.hint_for(bisect_left(boundaries, L[j]),
                               bisect_left(boundaries, R[j]))
            for j in range(ell)
        ]

    def size(self) -> tuple[int, int]:
        """(IBST nodes, hints) for footprint accounting.

        Every interval but the final one exits through its own LEFT/RIGHT
        hint; the final one shares its exit factor's source hint.
        """
        return self.ibst.m, len(self.pos_hints) + self.ibst.m - 1


class AccessIndex:
    """Random-access structure: global IBST, source hints, path skips."""

    __slots__ = ("fact", "n", "global_ibst", "src_hints", "paths",
                 "path_skips", "locator")

    def __init__(self, fact: Factorization):
        self.fact = fact
        self.n = fact.n
        z = fact.z
        if z == 0:
            self.global_ibst = None
            self.src_hints = []
            self.paths = []
            self.path_skips = []
            self.locator = []
            return
        global_ibst = self.global_ibst = Ibst(fact.bounds)
        # one Hint per distinct boundary range, shared by every copy factor
        # with that source and every path exit that lands in that range
        hints: dict[tuple[int, int], Hint] = {}

        def global_hint(i: int, j: int) -> Hint:
            hint = hints.get((i, j))
            if hint is None:
                hint = hints[i, j] = global_ibst.hint_for(i, j)
            return hint

        # hint of each copy factor's source range [srcL, srcR]
        src_hints: list[Hint | None] = [None] * (z + 1)
        for i, (l, k) in enumerate(zip(fact.start, fact.count), start=1):
            if l:
                src_hints[i] = global_hint(l - 1, l + k - 1)
        self.src_hints = src_hints
        s, e, _ = compute_path_counts(fact)
        decomposition = heavy_paths(fact, select_heavy_edges(fact, s, e))
        self.paths = decomposition.paths
        self.locator = decomposition.locator
        # a one-factor path exits at the query offset, and a char-only path
        # is never queried
        self.path_skips: list[PathSkip | None] = [
            None if len(path) == 1
            else PathSkip(fact, path, global_hint, src_hints)
            for path in self.paths
        ]

    def access(self, p: int) -> int:
        """Symbol at 1-based position p."""
        return self.access_counted(p)[0]

    def access_counted(self, p: int) -> tuple[int, int, int]:
        """(symbol, loop iterations, total IBST node visits) for position p."""
        if not 1 <= p <= self.n:
            raise ValueError(f"position {p} out of range 1..{self.n}")
        bounds = self.fact.bounds
        src_hints = self.src_hints
        i, visits = self.global_ibst.search_counted(p)
        f = i + 1
        iters = 0
        while src_hints[f] is not None:  # a copy; its source starts at bounds[hint.i]
            iters += 1
            pid, s = self.locator[f - 1]
            skip = self.path_skips[pid]
            if skip is None:  # one-factor path: jump into f's own source
                hint = src_hints[f]
                p = bounds[hint.i] + p - bounds[f - 1]
            else:
                q = skip.L[s - 1] + p - bounds[f - 1]
                idx, vis = skip.ibst.search_with_hint_counted(skip.pos_hints[s - 1], q)
                visits += vis
                f, base, hint = skip.exits[idx]
                if hint is None:  # path ends at a char factor: done
                    break
                p = bounds[src_hints[f].i] + q - base - 1
            i, vis = self.global_ibst.search_with_hint_counted(hint, p)
            visits += vis
            f = i + 1
        return self.fact.count[f - 1], iters, visits

    def extract(self, lo: int, hi: int) -> Text:
        """Symbols at positions lo..hi (1-based, inclusive)."""
        return _expand(self.fact, lo, hi, self)

    def footprint(self) -> tuple[int, int]:
        """(total IBST nodes, total hints) across global and path structures."""
        if self.global_ibst is None:
            return 0, 0
        nodes = self.global_ibst.m
        hints = sum(1 for h in self.src_hints if h is not None)
        for skip in self.path_skips:
            if skip is not None:
                sn, sh = skip.size()
                nodes += sn
                hints += sh
        return nodes, hints


def build_access_index(fact: Factorization) -> AccessIndex:
    """Assemble the random-access index; ``fact`` was checked when made."""
    return AccessIndex(fact)


def access(fact: Factorization, p: int) -> int:
    """Symbol at 1-based position p without a prebuilt index: the expansion
    of the one position, which builds the index only for a chain deeper
    than ``jump_budget(n)``."""
    if not 1 <= p <= fact.n:
        raise ValueError(f"position {p} out of range 1..{fact.n}")
    return _expand(fact, p, p)[0]


def extract(fact: Factorization, lo: int, hi: int) -> Text:
    """Symbols at positions lo..hi (1-based, inclusive), without a prebuilt
    index; one is built only for a chain deeper than ``jump_budget(n)``."""
    return _expand(fact, lo, hi)

