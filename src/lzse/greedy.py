"""Greedy LZSE parsing over the extended-factor trie.

The parser scans left to right and takes the longest prefix of the unparsed
suffix that equals a contiguous run of existing factors, breaking length
ties by the leftmost source start.  When no run matches, a char factor is
emitted.  Only the factor starts marked in the extended-factor trie are
tried; the brute-force oracles in ``tests/helpers.py``, which try every
start that can match, pin its output factor for factor, sources included.

The practical parser needs no index.  It holds the text once as a flat
buffer (one byte per symbol in byte mode, four in token mode), and every
comparison is a slice compare of that buffer: a trie node's string is a
(offset, depth) range of the text, and its edge is that string's tail.
The trie is path compressed (PATRICIA, Morrison 1968), so it has O(z)
nodes, and the walk costs one dict lookup and one compare per edge rather
than per symbol.  A node is that range alone: all edges share one dict,
and the marks, factor indices, share another.  A mark's string is whole
factors, so a candidate can only grow past it by the next whole factor: a
compare of at most 16 bytes settles most candidates, and only the rest
are measured by galloping over blocks that double in size.  Inserts start
from nodes the walk reached, not from the root.
"""

from __future__ import annotations

from bisect import bisect_right

from .factorization import Factorization
from .text import Text, _prefix_compare


def greedy_factorize(text: Text, idx=None) -> Factorization:
    """Greedy LZSE factorization via the extended-factor trie.

    Candidate starts come from trie marks on the path matching the unparsed
    suffix; each is extended by a direct compare and truncated to whole
    factors.  The match is capped at the parsed prefix so a source can
    never overlap the factor being formed.  ``idx`` is accepted for callers
    that pass a prebuilt suffix index, and ignored.
    """
    n = len(text)
    if n == 0:
        return Factorization([], 0, text.alphabet_size)
    syms = text.symbols
    buf, w, common_prefix = _prefix_compare(text)

    # Path-compressed trie over extended factors.  Node v spells
    # text[org[v] : org[v] + dep[v]] and hangs from its parent u by the
    # edge of its last dep[v] - dep[u] symbols; all edges share one dict,
    # keyed by u * width + the edge's first symbol.  A split puts a new
    # node above the split child, and the child keeps its string, org and
    # dep.  So a node keeps its string for good, and a node reached by one
    # walk can start an insert later.  Every inserted string ends at a
    # node, which carries at most two marks, each a factor index whose
    # start is bounds[fi - 1]; more would contradict the at-most-twice
    # property of extended factors.
    width = text.alphabet_size
    org = [0]
    dep = [0]
    edges: dict[int, int] = {}
    marks: dict[int, tuple[int, ...]] = {}

    def insert(v: int, lo: int, hi: int, fi: int) -> None:
        """Insert text[lo - dep[v] : hi], whose first dep[v] symbols v spells."""
        while lo < hi:
            dv = dep[v]
            key = v * width + syms[lo]
            c = edges.get(key)
            if c is None:
                c = len(org)
                edges[key] = c
                org.append(lo - dv)
                dep.append(dv + hi - lo)
                v = c
                break
            span = dep[c] - dv
            e = org[c] + dv  # the edge is text[e : e + span]
            if span <= hi - lo and (span == 1 or buf[lo * w:(lo + span) * w]
                                    == buf[e * w:(e + span) * w]):
                v = c
                lo += span
                continue
            # split c's edge after the d < span symbols it shares with the string
            d = common_prefix(lo * w, e * w, (span if span < hi - lo else hi - lo) * w)
            m = len(org)
            edges[key] = m
            org.append(org[c])
            dep.append(dv + d)
            edges[m * width + syms[e + d]] = c
            v = m
            lo += d
        node_marks = marks.get(v, ())
        if len(node_marks) >= 2:
            raise RuntimeError("more than two marks on a trie node")
        marks[v] = node_marks + (fi,)

    starts: list[int] = []  # the factors' flat fields, as Factorization holds them
    counts: list[int] = []
    bounds = [1]  # bounds[t] = pos_l of factor t+1
    k = 0  # factors parsed so far
    deferred = 0  # factor awaiting its doubled extended factor, 0 = none
    deferred_node = 0  # the node spelling that factor
    p = 0  # symbols parsed so far
    while p < n:
        best_len = 0
        best_start = best_end = 0
        v = 0
        depth = 0
        q = p  # p + depth
        while q < n:
            c = edges.get(v * width + syms[q])
            if c is None:
                break
            # take the whole edge or stop: no mark lies inside an edge, and
            # a slice cut short by the end of the text compares unequal; the
            # child's key has matched the edge's first symbol already
            e = dep[c]
            if e - depth > 1:
                o = org[c]
                if buf[q * w:(p + e) * w] != buf[(o + depth) * w:(o + e) * w]:
                    break
            v = c
            depth = e
            q = p + e
            node_marks = marks.get(v)
            if node_marks is None:
                continue
            for fi in node_marks:
                # the mark's string is whole factors, F_fi or F_fi F_fi+1,
                # and the walk matched all of it, so the candidate grows
                # past it only if the next factor F_j+1 matches too.  A
                # mismatch in F_j+1's first 16 bytes settles it; comparing
                # no more keeps a long F_j+1 from being copied on every
                # visit.  A slice cut short by the end of the text compares
                # unequal.
                fpos = bounds[fi - 1]
                j = fi if bounds[fi] - fpos == depth else fi + 1
                cand = depth
                if j < k:
                    a = q * w
                    b = (fpos - 1 + depth) * w
                    h = (bounds[j + 1] - fpos - depth) * w
                    if h > 16:
                        h = 16
                    if buf[a:a + h] == buf[b:b + h]:
                        # measured by galloping, capped at the parsed
                        # prefix: no overlap with the new factor
                        cap = p - fpos + 1
                        if cap > n - p:
                            cap = n - p
                        d = depth + common_prefix(a, b, (cap - depth) * w)
                        j = bisect_right(bounds, fpos + d) - 1
                        cand = bounds[j] - fpos
                # starts grow with the factor index: the lower fi is leftmost
                if cand > best_len or (cand == best_len and fi < best_start):
                    best_len = cand
                    best_start = fi
                    best_end = j
        if best_len == 0:  # a char factor
            l, c, flen = 0, syms[p], 1
        else:
            l, c, flen = best_start, best_end - best_start + 1, best_len
        # v becomes the deepest walked node within F_k, which spells a
        # prefix of F_k; past the walk's last node the edges need no compare
        if dep[v] > flen:
            v = 0
            while True:
                x = edges[v * width + syms[p + dep[v]]]
                if dep[x] > flen:
                    break
                v = x
        starts.append(l)
        counts.append(c)
        k += 1
        bounds.append(bounds[-1] + flen)
        p += flen
        if deferred:
            insert(deferred_node, p - flen, p, deferred)
            deferred = 0
        # F_k is already in the trie iff v is a marked node at depth |F_k|;
        # the deferred insert above marks depth |F_{k-1}F_k|
        if dep[v] == flen and v in marks:
            deferred = k
            deferred_node = v
        else:
            insert(v, p - flen + dep[v], p, k)
    del org, dep, edges, marks  # the trie, freed before the copy-out
    return Factorization.from_lists(starts, counts, n, text.alphabet_size)

