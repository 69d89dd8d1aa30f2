"""Greedy LZSE parsing: trie-based practical parser and brute-force oracle.

Both parsers scan left to right and take the longest prefix of the unparsed
suffix that equals a contiguous run of existing factors, breaking length
ties by the leftmost source start.  When no run matches, a char factor is
emitted.  The two implementations must agree factor-for-factor, sources
included; the oracle enumerates every candidate start, the practical parser
only the starts marked in the extended-factor trie.
"""

from __future__ import annotations

from bisect import bisect_right

from .factorization import Char, Copy, Factorization
from .suffixindex import SuffixIndex, build_suffix_index, lcp_suffixes
from .text import Text


def greedy_factorize(text: Text, idx: SuffixIndex | None = None) -> Factorization:
    """Greedy LZSE factorization via the extended-factor trie.

    Candidate starts come from trie marks on the path matching the unparsed
    suffix; each is extended with one LCP query and truncated to whole
    factors.  The LCP is capped at the parsed prefix so a source can never
    overlap the factor being formed.
    """
    n = len(text)
    if n == 0:
        return Factorization([], 0, text.alphabet_size)
    if idx is None:
        idx = build_suffix_index(text)
    syms = text.symbols
    # Symbol-keyed trie over extended factors.  Each node carries at most
    # two marks (factor index, factor start position); more would
    # contradict the at-most-twice property of extended factors.
    children: list[dict[int, int]] = [{}]
    marks: list[list[tuple[int, int]] | None] = [None]

    def insert(lo: int, hi: int, mark: tuple[int, int]) -> None:
        v = 0
        for t in range(lo, hi):
            c = syms[t]
            nxt = children[v].get(c)
            if nxt is None:
                nxt = len(children)
                children[v][c] = nxt
                children.append({})
                marks.append(None)
            v = nxt
        if marks[v] is None:
            marks[v] = [mark]
        elif len(marks[v]) >= 2:
            raise RuntimeError("more than two marks on a trie node")
        else:
            marks[v].append(mark)

    factors: list[Char | Copy] = []
    bounds = [1]  # bounds[t] = pos_l of factor t+1
    deferred = 0  # factor awaiting its doubled extended factor, 0 = none
    p = 0  # symbols parsed so far
    while p < n:
        best_len = 0
        best_pos = n + 2
        best_start = best_end = 0
        v = 0
        depth = 0
        marked_depths = []
        while p + depth < n:
            v = children[v].get(syms[p + depth])
            if v is None:
                break
            depth += 1
            node_marks = marks[v]
            if node_marks is None:
                continue
            marked_depths.append(depth)
            for fi, fpos in node_marks:
                # capped at the parsed prefix: no overlap with the new factor
                d = min(lcp_suffixes(idx, p + 1, fpos), p - fpos + 1)
                j = bisect_right(bounds, fpos + d) - 1
                cand = bounds[j] - fpos
                if cand > best_len or (cand == best_len and fpos < best_pos):
                    best_len = cand
                    best_pos = fpos
                    best_start = fi
                    best_end = j
        if best_len == 0:
            factors.append(Char(syms[p]))
            flen = 1
        else:
            factors.append(Copy(best_start, best_end - best_start + 1))
            flen = best_len
        k = len(factors)
        bounds.append(bounds[-1] + flen)
        p += flen
        if deferred:
            dlo = bounds[deferred - 1] - 1
            insert(dlo, bounds[k] - 1, (deferred, dlo + 1))
            deferred = 0
        # F_k is already in the trie iff the walk passed a marked node at
        # depth |F_k|; the deferred insert above marks depth |F_{k-1}F_k|
        if flen in marked_depths:
            deferred = k
        else:
            flo = bounds[k - 1] - 1
            insert(flo, bounds[k] - 1, (k, flo + 1))
    return Factorization(factors, n, text.alphabet_size)


def greedy_factorize_oracle(text: Text) -> Factorization:
    """Reference greedy parser trying every existing factor as a source start.

    Quadratic per step and index-free: match lengths come from direct symbol
    comparison.  Used to pin down the practical parser's output exactly.
    """
    n = len(text)
    syms = text.symbols
    factors: list[Char | Copy] = []
    bounds = [1]
    p = 0
    while p < n:
        best_len = 0
        best_pos = n + 2
        best_start = best_end = 0
        for fi in range(1, len(factors) + 1):
            fpos = bounds[fi - 1]
            cap = p - fpos + 1
            d = 0
            base = fpos - 1
            while d < cap and p + d < n and syms[p + d] == syms[base + d]:
                d += 1
            j = bisect_right(bounds, fpos + d) - 1
            if j < fi:
                continue
            cand = bounds[j] - fpos
            if cand > best_len or (cand == best_len and fpos < best_pos):
                best_len = cand
                best_pos = fpos
                best_start = fi
                best_end = j
        if best_len == 0:
            factors.append(Char(syms[p]))
            flen = 1
        else:
            factors.append(Copy(best_start, best_end - best_start + 1))
            flen = best_len
        bounds.append(bounds[-1] + flen)
        p += flen
    return Factorization(factors, n, text.alphabet_size)
