"""Greedy LZSE parsing: trie-based practical parser and brute-force oracle.

Both parsers scan left to right and take the longest prefix of the unparsed
suffix that equals a contiguous run of existing factors, breaking length
ties by the leftmost source start.  When no run matches, a char factor is
emitted.  The two implementations must agree factor-for-factor, sources
included; the oracle enumerates every factor start whose first symbol
matches, the practical parser only the starts marked in the extended-factor
trie.

The practical parser needs no index.  It holds the text once as a flat
buffer (one byte per symbol in byte mode, four in token mode), and every
comparison is a slice compare of that buffer: the trie's edge labels are
(offset, length) ranges of the text, and each candidate's match length is
found by galloping over blocks that double in size.  The trie is path
compressed (PATRICIA, Morrison 1968), so it has O(z) nodes, and the walk
costs one dict lookup and one compare per edge rather than per symbol.
"""

from __future__ import annotations

from bisect import bisect_right

from .factorization import Factorization
from .text import Text


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
    if text.is_byte_mode:
        buf, w = syms, 1
    else:
        buf, w = syms.tobytes(), syms.itemsize

    def common_prefix(a: int, b: int, cap: int) -> int:
        """Symbols shared by the texts at 0-based a and b, at most cap.

        Blocks of 16, 32, 64, ... bytes are compared until one differs.
        There the lowest set bit of the two blocks' XOR, read little-endian,
        marks the first differing byte, which lies in the first differing
        symbol.
        """
        a *= w
        b *= w
        cap *= w
        lo = 0
        step = 16
        while lo < cap:
            hi = min(lo + step, cap)
            x = buf[a + lo:a + hi]
            y = buf[b + lo:b + hi]
            if x != y:
                diff = int.from_bytes(x, "little") ^ int.from_bytes(y, "little")
                return (lo + ((diff & -diff).bit_length() - 1 >> 3)) // w
            lo = hi
            step <<= 1
        return cap // w

    # Path-compressed trie over extended factors.  Node v hangs from its
    # parent by the edge text[start[v] : start[v] + size[v]], and children
    # are keyed by their edge's first symbol.  Every inserted string ends
    # at a node, which carries at most two marks (factor index, factor
    # start position); more would contradict the at-most-twice property of
    # extended factors.
    start = [0]
    size = [0]
    children: list[dict[int, int]] = [{}]
    marks: list[list[tuple[int, int]] | None] = [None]

    def insert(lo: int, hi: int, mark: tuple[int, int]) -> None:
        v = 0
        while lo < hi:
            c = children[v].get(syms[lo])
            if c is None:
                c = len(start)
                children[v][syms[lo]] = c
                start.append(lo)
                size.append(hi - lo)
                children.append({})
                marks.append(None)
                v = c
                break
            k = size[c]
            if k <= hi - lo and (k == 1 or buf[lo * w:(lo + k) * w]
                                 == buf[start[c] * w:(start[c] + k) * w]):
                v = c
                lo += k
                continue
            # split c's edge after the d < k symbols it shares with the string
            d = common_prefix(lo, start[c], min(k, hi - lo))
            m = len(start)
            children[v][syms[lo]] = m
            start.append(start[c])
            size.append(d)
            children.append({syms[start[c] + d]: c})
            marks.append(None)
            start[c] += d
            size[c] -= d
            v = m
            lo += d
        if marks[v] is None:
            marks[v] = [mark]
        elif len(marks[v]) >= 2:
            raise RuntimeError("more than two marks on a trie node")
        else:
            marks[v].append(mark)

    starts: list[int] = []  # the factors' flat fields, as Factorization holds them
    counts: list[int] = []
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
            # take the whole edge or stop: no mark lies inside an edge, and
            # a slice cut short by the end of the text compares unequal; the
            # child's key has matched the edge's first symbol already
            k = size[v]
            if k > 1:
                q = (p + depth) * w
                e = start[v] * w
                if buf[q:q + k * w] != buf[e:e + k * w]:
                    break
            depth += k
            node_marks = marks[v]
            if node_marks is None:
                continue
            marked_depths.append(depth)
            for fi, fpos in node_marks:
                # the walk matched `depth` symbols of the mark's string;
                # capped at the parsed prefix: no overlap with the new factor
                cap = min(p - fpos + 1, n - p)
                d = depth + common_prefix(p + depth, fpos - 1 + depth, cap - depth)
                j = bisect_right(bounds, fpos + d) - 1
                cand = bounds[j] - fpos
                if cand > best_len or (cand == best_len and fpos < best_pos):
                    best_len = cand
                    best_pos = fpos
                    best_start = fi
                    best_end = j
        if best_len == 0:  # a char factor
            l, c, flen = 0, syms[p], 1
        else:
            l, c, flen = best_start, best_end - best_start + 1, best_len
        starts.append(l)
        counts.append(c)
        k = len(starts)
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
    return Factorization.from_lists(starts, counts, n, text.alphabet_size)


def greedy_factorize_oracle(text: Text) -> Factorization:
    """Reference greedy parser trying every factor start that can match.

    Quadratic per step and index-free: match lengths come from direct symbol
    comparison.  Only factors whose first symbol is the next one are tried,
    from per-symbol lists in index order; any other start matches nothing,
    so it could not beat or tie a candidate.  Used to pin down the practical
    parser's output exactly.
    """
    n = len(text)
    syms = text.symbols
    starts: list[int] = []
    counts: list[int] = []
    bounds = [1]
    by_first: dict[int, list[int]] = {}  # first symbol -> factor indices
    p = 0
    while p < n:
        best_len = 0
        best_pos = n + 2
        best_start = best_end = 0
        for fi in by_first.get(syms[p], ()):
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
        if best_len == 0:  # a char factor
            l, c, flen = 0, syms[p], 1
        else:
            l, c, flen = best_start, best_end - best_start + 1, best_len
        starts.append(l)
        counts.append(c)
        bounds.append(bounds[-1] + flen)
        by_first.setdefault(syms[p], []).append(len(starts))
        p += flen
    return Factorization.from_lists(starts, counts, n, text.alphabet_size)
