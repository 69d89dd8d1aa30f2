"""O(log n) random access over an LZSE factorization.

A global IBST over factor spans simulates the jump function; per heavy
path of two or more factors, a second IBST over the skip coordinates
(L_1..L_l, R_l..R_1) finds in one search where a jump sequence leaves the
path.  A one-factor path needs no search: it exits EXIT_FINAL at the query
offset.  All searches after the first run from precomputed hints, so the
per-query node visits telescope to O(log n) and the loop crosses one light
edge per iteration.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .dag import compute_path_counts, heavy_paths, select_heavy_edges
from .factorization import Char, Copy, Factorization, validate
from .ibst import Hint, Ibst
from .text import Text

EXIT_LEFT = 0    # jump target falls before the next path node
EXIT_RIGHT = 1   # jump target falls after the next path node
EXIT_FINAL = 2   # jump sequence reaches the last path node


class ExitResult(NamedTuple):
    position: int   # 1-based position on the path where the sequence exits
    offset: int     # relative offset inside that factor
    kind: int       # EXIT_LEFT / EXIT_RIGHT / EXIT_FINAL


class PathSkip:
    """Skip structure for one heavy path (F_{i_1}, ..., F_{i_l}).

    L/R follow the usual recurrences (R_j = L_j + |F_{i_j}|); the interval
    collection drops empty members but remembers each survivor's (kind,
    path position).  The query value q = L_s + r_s - 1 is invariant along
    the in-path jump chain, so one IBST search locates the exit.
    """

    __slots__ = ("path", "L", "R", "ibst", "meta", "pos_hints")

    def __init__(self, fact: Factorization, path: list[int]):
        ell = len(path)
        lengths = [fact.length(i) for i in path]
        L = [0] * ell
        for j in range(1, ell):
            gap = fact.pos_l(path[j]) - fact.src_l(path[j - 1])
            L[j] = L[j - 1] + gap
        R = [0] * ell
        R[ell - 1] = L[ell - 1] + lengths[ell - 1]
        for j in range(ell - 2, -1, -1):
            gap = fact.src_r(path[j]) - fact.pos_r(path[j + 1])
            R[j] = R[j + 1] + gap
        assert all(R[j] == L[j] + lengths[j] for j in range(ell))
        self.path = path
        self.L = L
        self.R = R

        seq = [(L[j], EXIT_LEFT, j + 1) for j in range(ell - 1)]
        seq.append((L[ell - 1], EXIT_FINAL, ell))
        seq.extend((R[j + 1], EXIT_RIGHT, j + 1) for j in range(ell - 2, -1, -1))
        seq.append((R[0], -1, 0))  # closing boundary only
        boundaries = []
        meta = []
        for t, (value, kind, j) in enumerate(seq[:-1]):
            nxt = seq[t + 1][0]
            if nxt > value:  # empty intervals are dropped
                boundaries.append(value)
                meta.append((kind, j))
        boundaries.append(seq[-1][0])
        self.ibst = Ibst(boundaries)
        self.meta = meta
        self.pos_hints = [
            self.ibst.hint_for(bisect_left(boundaries, L[j]),
                               bisect_left(boundaries, R[j]))
            for j in range(ell)
        ]

    def exit_query(self, s: int, r: int) -> ExitResult:
        res, _ = self.exit_query_counted(s, r)
        return res

    def exit_query_counted(self, s: int, r: int) -> tuple[ExitResult, int]:
        q = self.L[s - 1] + r - 1
        idx, visits = self.ibst.search_with_hint_counted(self.pos_hints[s - 1], q)
        kind, j = self.meta[idx]
        return ExitResult(j, q - self.L[j - 1] + 1, kind), visits

    def size(self) -> tuple[int, int]:
        """(IBST nodes, hints) for footprint accounting."""
        return self.ibst.m, len(self.pos_hints)


class AccessIndex:
    """Random-access structure: global IBST, source hints, path skips."""

    __slots__ = ("fact", "n", "global_ibst", "src_hints", "exit_hints",
                 "paths", "path_skips", "locator", "_symbols")

    def __init__(self, fact: Factorization):
        problem = validate(fact)
        if problem is not None:
            raise ValueError(f"invalid factorization: {problem}")
        self.fact = fact
        self.n = fact.n
        z = fact.z
        if z == 0:
            self.global_ibst = None
            self.src_hints = []
            self.exit_hints = {}
            self.paths = []
            self.path_skips = []
            self.locator = []
            self._symbols = []
            return
        self.global_ibst = Ibst(fact.bounds)
        # hints for each copy factor's source range [srcL, srcR]
        self.src_hints: list[Hint | None] = [None] * (z + 1)
        for i, f in enumerate(fact.factors, start=1):
            if isinstance(f, Copy):
                self.src_hints[i] = self.global_ibst.hint_for(f.start - 1,
                                                              f.start + f.count - 1)
        s, e, _ = compute_path_counts(fact)
        decomposition = heavy_paths(fact, select_heavy_edges(fact, s, e))
        self.paths = decomposition.paths
        self.locator = decomposition.locator
        self.path_skips: list[PathSkip | None] = []
        self.exit_hints: dict[tuple[int, int, int], Hint] = {}
        for pid, path in enumerate(self.paths):
            if len(path) == 1:
                # a one-factor path exits EXIT_FINAL at the query offset, and
                # a char-only path is never queried
                self.path_skips.append(None)
                continue
            skip = PathSkip(fact, path)
            self.path_skips.append(skip)
            for j in range(len(path) - 1):
                src = fact.factors[path[j] - 1]
                nxt = path[j + 1]
                left_lo, left_hi = src.start, nxt - 1
                if left_lo <= left_hi:
                    self.exit_hints[(pid, j + 1, EXIT_LEFT)] = \
                        self.global_ibst.hint_for(left_lo - 1, left_hi)
                right_lo, right_hi = nxt + 1, src.start + src.count - 1
                if right_lo <= right_hi:
                    self.exit_hints[(pid, j + 1, EXIT_RIGHT)] = \
                        self.global_ibst.hint_for(right_lo - 1, right_hi)
        self._symbols = [f.symbol if isinstance(f, Char) else -1 for f in fact.factors]

    def access(self, p: int) -> int:
        """Symbol at 1-based position p."""
        return self.access_counted(p)[0]

    def access_counted(self, p: int) -> tuple[int, int, int]:
        """(symbol, loop iterations, total IBST node visits) for position p."""
        if not 1 <= p <= self.n:
            raise ValueError(f"position {p} out of range 1..{self.n}")
        fact = self.fact
        i, visits = self.global_ibst.search_counted(p)
        f = i + 1
        r = p - fact.bounds[i] + 1
        iters = 0
        prev_len = fact.bounds[f] - fact.bounds[f - 1]
        while self._symbols[f - 1] < 0:
            iters += 1
            pid, s = self.locator[f - 1]
            skip = self.path_skips[pid]
            if skip is None:  # one-factor path
                exit_f, offset, kind = f, r, EXIT_FINAL
            else:
                (position, offset, kind), vis = skip.exit_query_counted(s, r)
                visits += vis
                exit_f = skip.path[position - 1]
            exit_len = fact.bounds[exit_f] - fact.bounds[exit_f - 1]
            assert exit_len <= prev_len, "path descent reached a longer factor"
            if self._symbols[exit_f - 1] >= 0:
                f = exit_f  # path ends at a char factor: done
                break
            if kind == EXIT_FINAL:
                hint = self.src_hints[exit_f]
            else:
                hint = self.exit_hints[(pid, position, kind)]
            q = fact.src_l(exit_f) + offset - 1
            i, vis = self.global_ibst.search_with_hint_counted(hint, q)
            visits += vis
            f = i + 1
            r = q - fact.bounds[i] + 1
            prev_len = fact.bounds[f] - fact.bounds[f - 1]
            assert prev_len <= exit_len, "jump reached a longer factor"
        return self._symbols[f - 1], iters, visits

    def extract(self, lo: int, hi: int) -> Text:
        """Symbols at positions lo..hi (1-based, inclusive)."""
        if not 1 <= lo <= hi <= self.n:
            raise ValueError(f"range [{lo}, {hi}] out of bounds 1..{self.n}")
        return Text((self.access(p) for p in range(lo, hi + 1)),
                    self.fact.alphabet_size)

    def footprint(self) -> tuple[int, int]:
        """(total IBST nodes, total hints) across global and path structures."""
        if self.global_ibst is None:
            return 0, 0
        nodes = self.global_ibst.m
        hints = sum(1 for h in self.src_hints if h is not None) + len(self.exit_hints)
        for skip in self.path_skips:
            if skip is not None:
                sn, sh = skip.size()
                nodes += sn
                hints += sh
        return nodes, hints


def build_access_index(fact: Factorization) -> AccessIndex:
    """Validate the factorization and assemble the random-access index."""
    return AccessIndex(fact)
