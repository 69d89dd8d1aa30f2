"""Shared brute-force oracles, test-only algorithms and fixture generators.

Everything here is deliberately independent of the library's fast paths:
suffix sorting by direct string comparison, LCP by character scan, path
counting by exhaustive enumeration, heavy edges by scanning each copy's
source, Re-Pair by full numpy rescans of the sequence in every round,
LZ77/LZSS by two nearest-smaller-position passes plus range-minimum LCP
queries and decoded symbol by symbol, greedy LZSE from a per-symbol trie
plus the same LCP queries, greedy LZSE by direct comparison from every
factor start whose first symbol matches (``greedy_factorize_oracle``) and
from every earlier factor start (``greedy_factorize_oracle_all_starts``),
IBST hints from three root-path LCA descents and subtree spans for the
halving invariant, random access by following the paper's jump function
one factor at a time, extended factors straight from their definition,
and random-but-valid factorizations built factor by factor.

The package runs none of the paper's grammar checks, so they live here
too: a grammar's expansion (``expand``), its Chomsky normal form
(``Slp``, ``cfg_to_slp``) and the semigroup range-sum evaluator over that
form (``orsp_solve_from_slp``), which answers an ORSP instance's queries
from its grammar (acceptance criterion 3).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from lzse import access as access_module
from lzse.baselines import Lz77Factor, LzssFactor
from lzse.factorization import (Char, Copy, Factorization, FactorizationError,
                                decode)
from lzse.generators import OrspInstance
from lzse.grammar import Cfg, GrammarError
from lzse.ibst import Hint, Ibst
from lzse.suffixindex import RangeArgMin, SuffixIndex, build_suffix_index
from lzse.text import Text, alphabet_for


def brute_suffix_sort(text: Text) -> list[int]:
    """1-based suffix start positions in lexicographic order."""
    n = len(text)
    return sorted(range(1, n + 1), key=lambda p: text.symbols[p - 1:])


def brute_lcp(text: Text, p: int, q: int) -> int:
    """Longest common prefix of suffixes at 1-based p, q by direct scan."""
    n = len(text)
    d = 0
    while p + d <= n and q + d <= n and text[p + d - 1] == text[q + d - 1]:
        d += 1
    return d


def _lexsort_suffixes(symbols) -> np.ndarray:
    """0-based suffix array by prefix doubling over two-key numpy lexsort."""
    n = len(symbols)
    rank = np.fromiter(symbols, dtype=np.int64, count=n)
    k = 1
    while True:
        # pad with -1 so shorter suffixes sort first
        shifted = np.full(n, -1, dtype=np.int64)
        if k < n:
            shifted[: n - k] = rank[k:]
        order = np.lexsort((shifted, rank))
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (rank[order][1:] != rank[order][:-1]) | (
            shifted[order][1:] != shifted[order][:-1]
        )
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(changed)
        rank = new_rank
        if rank[order[-1]] == n - 1:
            return order
        k *= 2


def _kasai_lcp(symbols, sa0, isa0) -> list[int]:
    n = len(symbols)
    lcp = [0] * n
    h = 0
    for p in range(n):
        r = isa0[p]
        if r == 0:
            h = 0
            continue
        q = sa0[r - 1]
        while p + h < n and q + h < n and symbols[p + h] == symbols[q + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def suffix_index_reference(text: Text) -> tuple[list[int], list[int], list[int]]:
    """Reference (sa, isa, lcp) for ``build_suffix_index``, built another way:
    lexsort prefix doubling from single symbols, then Kasai's LCP scan."""
    symbols = text.symbols
    n = len(symbols)
    if n == 0:
        return [], [], []
    sa0 = _lexsort_suffixes(symbols)
    isa0 = [0] * n
    for r, p in enumerate(sa0):
        isa0[p] = r
    lcp = _kasai_lcp(symbols, sa0, isa0)
    return [int(p) + 1 for p in sa0], isa0, lcp


def suffix_ranks(idx: SuffixIndex) -> list[int]:
    """ranks[p-1] is the rank of the suffix at 1-based p: sa inverted."""
    ranks = [0] * idx.n
    for r, p in enumerate(idx.sa):
        ranks[p - 1] = r
    return ranks


# (index, its RangeArgMin over lcp, its suffix ranks): the last index
# queried.  Holding the index keeps the identity test sound; the references
# query one at a time.
_lcp_minima: list = [None, None, None]


def lcp_suffixes(idx: SuffixIndex, p: int, q: int) -> int:
    """Length of the longest common prefix of the suffixes at 1-based p and q,
    as the minimum of ``idx.lcp`` between their ranks."""
    n = idx.n
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError(f"positions ({p}, {q}) out of range 1..{n}")
    if p == q:
        return n - p + 1
    if _lcp_minima[0] is not idx:
        _lcp_minima[:] = [idx, RangeArgMin(idx.lcp), suffix_ranks(idx)]
    rp = _lcp_minima[2][p - 1]
    rq = _lcp_minima[2][q - 1]
    if rp > rq:
        rp, rq = rq, rp
    return _lcp_minima[1].min(rp + 1, rq)


def dag_children(fact: Factorization) -> list[list[int]]:
    """children[i] for factor i (1-based; index 0 unused)."""
    out: list[list[int]] = [[] for _ in range(fact.z + 1)]
    for i, f in enumerate(fact.factors, start=1):
        if isinstance(f, Copy):
            out[i] = list(range(f.start, f.start + f.count))
    return out


def brute_path_counts(fact: Factorization) -> tuple[list[int], list[int], int]:
    """(s, e, nD) by exhaustively enumerating paths, no sharing or memoing."""
    z = fact.z
    children = dag_children(fact)

    def paths_down(v: int) -> int:
        if not children[v]:
            return 1
        return sum(paths_down(c) for c in children[v])

    s = [paths_down(v) for v in range(1, z + 1)]
    e = [0] * (z + 1)
    has_incoming = [False] * (z + 1)
    for i in range(1, z + 1):
        for c in children[i]:
            has_incoming[c] = True

    def walk(v: int) -> None:
        e[v] += 1
        for c in children[v]:
            walk(c)

    n_d = 0
    for v in range(1, z + 1):
        if not has_incoming[v]:
            walk(v)
            n_d += s[v - 1]
    return s, e[1:], n_d


def heavy_edges_by_range_argmax(fact: Factorization, s: list[int],
                                e: list[int]) -> list[int]:
    """Reference heavy-child array: a copy factor's candidate child is the
    leftmost maximum of s over its source factors, found by a scan; the
    edge is heavy iff both the lg(s) and the lg(e) brackets agree."""
    heavy = [0] * fact.z
    for i, f in enumerate(fact.factors):
        if isinstance(f, Copy):
            # max returns the first of equal maxima: the leftmost argmax
            j = max(range(f.start, f.start + f.count), key=lambda c: s[c - 1])
            if (s[i].bit_length() == s[j - 1].bit_length()
                    and e[i].bit_length() == e[j - 1].bit_length()):
                heavy[i] = j
    return heavy


def hint_for_reference(t: Ibst, i: int, j: int) -> Hint:
    """IBST hint for boundary range [a_i, a_j) with every LCA found from the root."""
    c = t.lca(i, j - 1)
    vl = t.lca(i, c - 1) if c > i else None
    vr = t.lca(c + 1, j - 1) if c < j - 1 else None
    return Hint(i, j, c, vl, vr)


def subtree_spans(t: Ibst) -> list[tuple[int, int, int]]:
    """(node, own span, subtree span) triples, for the halving invariant."""
    lo = list(range(t.m))
    hi = [i + 1 for i in range(t.m)]
    order = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v < 0:
            continue
        order.append(v)
        stack.append(t.left[v])
        stack.append(t.right[v])
    b = t.boundaries
    for v in reversed(order):
        for ch in (t.left[v], t.right[v]):
            if ch >= 0:
                lo[v] = min(lo[v], lo[ch])
                hi[v] = max(hi[v], hi[ch])
    return [(v, b[v + 1] - b[v], b[hi[v]] - b[lo[v]]) for v in range(t.m)]


def factor(fact: Factorization, i: int) -> Char | Copy:
    """Factor i (1-based) as a ``Char`` or ``Copy`` tuple."""
    l, k = fact.start[i - 1], fact.count[i - 1]
    return Copy(l, k) if l else Char(k)


def factor_at(fact: Factorization, p: int) -> int:
    """Index of the factor containing 1-based text position p."""
    if not 1 <= p <= fact.n:
        raise FactorizationError(f"position {p} out of range 1..{fact.n}")
    return bisect_right(fact.bounds, p)


def rel(fact: Factorization, p: int) -> tuple[int, int]:
    """(factor index, 1-based offset inside it) for text position p."""
    i = factor_at(fact, p)
    return i, p - fact.bounds[i - 1] + 1


def jump(fact: Factorization, i: int, r: int) -> tuple[int, int]:
    """One step of the jump function: where copy factor i's r-th symbol points.

    Returns the (factor index, relative offset) of position
    src_l(i) + r - 1, i.e. rel(q) for the referenced position q.
    """
    if not isinstance(factor(fact, i), Copy):
        raise FactorizationError(f"factor {i} is a char factor; jump undefined")
    if not 1 <= r <= fact.length(i):
        raise FactorizationError(f"offset {r} out of range for factor {i}")
    q = fact.src_l(i) + r - 1
    return rel(fact, q)


def access_naive(fact: Factorization, p: int) -> int:
    """Symbol at 1-based position p by following the jump sequence."""
    i, r = rel(fact, p)
    f = factor(fact, i)
    while isinstance(f, Copy):
        i, r = jump(fact, i, r)
        f = factor(fact, i)
    return f.symbol


def compute_extended_factors(fact: Factorization, text: Text | None = None) -> list[tuple[int, int]]:
    """Extended factors of a greedy factorization prefix as (index, length) pairs.

    E_i = F_i F_{i+1} when F_i equals some earlier extended factor, else
    E_i = F_i; the last element is excluded when it duplicates an earlier
    extended factor.  Strings are compared by content, so the original
    text (or the decoded one) is used for materialization.
    """
    if text is None:
        text = decode(fact)
    syms = text.symbols
    result: list[tuple[int, int]] = []
    seen: set[tuple[int, ...]] = set()
    z = fact.z
    for i in range(1, z + 1):
        lo = fact.pos_l(i) - 1
        fi = tuple(syms[lo:fact.pos_r(i)])
        if fi in seen:
            if i == z:
                continue  # last factor's doubled form would need F_{z+1}
            ei = tuple(syms[lo:fact.pos_r(i + 1)])
        else:
            ei = fi
        result.append((i, len(ei)))
        seen.add(ei)
    return result


def extended_factor_strings(fact: Factorization, text: Text | None = None) -> list[tuple[int, ...]]:
    """Materialized extended-factor strings, in factor order."""
    if text is None:
        text = decode(fact)
    syms = text.symbols
    return [tuple(syms[fact.pos_l(i) - 1: fact.pos_l(i) - 1 + length])
            for i, length in compute_extended_factors(fact, text)]


def random_valid_factorization(rng: random.Random, max_z: int = 60,
                               sigma: int | None = None,
                               copy_bias: float = 0.55) -> Factorization:
    """Random well-formed LZSE factorization (text defined by decoding it)."""
    sigma = sigma or rng.choice([2, 3, 4])
    z = rng.randint(1, max_z)
    factors: list[Char | Copy] = []
    for _ in range(z):
        k = len(factors)
        if k == 0 or rng.random() > copy_bias:
            factors.append(Char(rng.randrange(sigma)))
        else:
            l = rng.randint(1, k)
            r = rng.randint(l, min(k, l + 7))
            factors.append(Copy(l, r - l + 1))
    return Factorization(factors)


def deep_chain(z: int) -> Factorization:
    """a, then z - 1 one-symbol copies each of the factor before: position p
    is reached by a chain of p - 1 jumps."""
    return Factorization([Char(97)] + [Copy(i, 1) for i in range(1, z)])


def record_index_builds(monkeypatch) -> list:
    """Factorizations that the one-shot reads of ``lzse.access`` build an
    index for, in order, from now until the monkeypatch is undone."""
    built = []
    real = access_module.build_access_index

    def build(fact):
        built.append(fact)
        return real(fact)

    monkeypatch.setattr(access_module, "build_access_index", build)
    return built


def orsp_instance(m: int, queries) -> OrspInstance:
    """The ORSP instance of ``gen_orsp``'s layout over the given queries,
    each of which must satisfy 1 <= l <= r <= m."""
    queries = [tuple(q) for q in queries]
    if len(queries) != m:
        raise ValueError(f"expected {m} queries, got {len(queries)}")
    tokens = list(range(m))
    for i, (l, r) in enumerate(queries):
        if not 1 <= l <= r <= m:
            raise ValueError(f"query ({l}, {r}) out of range 1..{m}")
        tokens.append(m + i)
        tokens.extend(range(l - 1, r))
    tokens.append(2 * m)
    return OrspInstance(m, queries, Text(tokens, alphabet_size=2 * m + 1))


def expansion_lengths(g: Cfg) -> dict[int, int]:
    """Length of each nonterminal's expansion."""
    lengths: dict[int, int] = {}
    for x in g.order:
        lengths[x] = sum(1 if g.is_terminal(s) else lengths[s]
                         for s in g.rules[x])
    return lengths


class Slp(Cfg):
    """Grammar in Chomsky normal form: X -> c or X -> Y Z."""

    def __init__(self, rules: dict[int, tuple[int, ...]], start: int):
        super().__init__(rules, start)
        for x, rhs in self.rules.items():
            if len(rhs) == 1:
                if not self.is_terminal(rhs[0]):
                    raise GrammarError(f"unit rule {x} -> {rhs[0]} is not CNF")
            elif len(rhs) == 2:
                if self.is_terminal(rhs[0]) or self.is_terminal(rhs[1]):
                    raise GrammarError(f"terminal inside binary rule of {x}")
            else:
                raise GrammarError(f"rule of {x} has arity {len(rhs)}")


def expand(g: Cfg, alphabet_size: int | None = None) -> Text:
    """The unique string generated by the grammar."""
    out: list[int] = []
    rules = g.rules
    stack = [iter(rules[g.start])]
    while stack:
        try:
            sym = next(stack[-1])
        except StopIteration:
            stack.pop()
            continue
        if sym in rules:
            stack.append(iter(rules[sym]))
        else:
            out.append(sym)
    if alphabet_size is None:
        alphabet_size = alphabet_for(out)
    return Text(out, alphabet_size)


def cfg_to_slp(g: Cfg) -> Slp:
    """Left-to-right binarization into Chomsky normal form.

    Terminals inside long right-hand sides get shared wrapper rules, so
    the output size is at most 2 * size(g) plus one per distinct wrapped
    terminal.
    """
    next_id = max(list(g.rules) + [max((s for rhs in g.rules.values() for s in rhs),
                                       default=0)]) + 1
    rules: dict[int, tuple[int, ...]] = {}
    wrappers: dict[int, int] = {}

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def wrapped(sym: int) -> int:
        if not g.is_terminal(sym):
            return sym
        if sym not in wrappers:
            w = fresh()
            wrappers[sym] = w
            rules[w] = (sym,)
        return wrappers[sym]

    for x in g.order:
        rhs = g.rules[x]
        if len(rhs) == 1:
            sym = rhs[0]
            if g.is_terminal(sym):
                rules[x] = (sym,)
            else:
                rules[x] = rules[sym]  # collapse unit rule onto its target
            continue
        cur = x
        for t in range(len(rhs) - 2):
            nxt = fresh()
            rules[cur] = (wrapped(rhs[t]), nxt)
            cur = nxt
        rules[cur] = (wrapped(rhs[-2]), wrapped(rhs[-1]))
    return Slp(rules, g.start)


class OrspResult(NamedTuple):
    answers: list
    operations: int


def orsp_solve_from_slp(slp: Slp, is_delimiter: Callable[[int], bool],
                        op: Callable, lift: Callable[[int], object]) -> OrspResult:
    """Answer all range-sum queries encoded in an ORSP-shaped string.

    The expansion must look like x_1..x_m $_1 Q_1 $_2 ... $_m Q_m $_{m+1}.
    Bottom-up, each nonterminal gets the folded values of its longest
    delimiter-free prefix and suffix; query i is then answered at the
    unique rule splitting delimiters i and i+1.  Only genuine op
    applications are counted.
    """
    rules = slp.rules
    ops = 0

    def combine(x, y):
        nonlocal ops
        if x is None:
            return y
        if y is None:
            return x
        ops += 1
        return op(x, y)

    delims: dict[int, int] = {}  # delimiter count per nonterminal
    head: dict[int, object] = {}
    tail: dict[int, object] = {}
    for x in slp.order:
        rhs = rules[x]
        if len(rhs) == 1:
            c = rhs[0]
            if is_delimiter(c):
                delims[x] = 1
                head[x] = tail[x] = None
            else:
                delims[x] = 0
                head[x] = tail[x] = lift(c)
            continue
        y, z = rhs
        delims[x] = delims[y] + delims[z]
        if delims[x] == 0:
            head[x] = tail[x] = combine(head[y], head[z])
            continue
        head[x] = head[y] if delims[y] else combine(head[y], head[z])
        tail[x] = tail[z] if delims[z] else combine(tail[y], tail[z])

    total_delims = delims[slp.start]
    if total_delims < 2:
        raise GrammarError("not an ORSP string: fewer than two delimiters")
    m = total_delims - 1
    # shape checks: first delimiter right after the m-symbol prefix, and a
    # delimiter at the very end
    if _first_delim_position(slp, delims) != m + 1:
        raise GrammarError("not an ORSP string: misplaced first delimiter")
    if not _last_symbol_is_delimiter(slp, is_delimiter):
        raise GrammarError("not an ORSP string: must end with a delimiter")

    answers = []
    for i in range(1, m + 1):
        x = slp.start
        offset = 0
        while True:
            y, z = rules[x]
            dy = delims[y]
            if i - offset <= dy and i + 1 - offset > dy:
                q = combine(tail[y], head[z])
                if q is None:
                    raise GrammarError(f"empty range body for query {i}")
                answers.append(q)
                break
            if i + 1 - offset <= dy:
                x = y
            else:
                offset += dy
                x = z
    return OrspResult(answers, ops)


def _first_delim_position(slp: Slp, delims: dict[int, int]) -> int:
    pos = 0
    x = slp.start
    lengths = expansion_lengths(slp)
    while True:
        rhs = slp.rules[x]
        if len(rhs) == 1:
            return pos + 1
        y, z = rhs
        if delims[y]:
            x = y
        else:
            pos += lengths[y]
            x = z


def _last_symbol_is_delimiter(slp: Slp, is_delimiter: Callable[[int], bool]) -> bool:
    x = slp.start
    while True:
        rhs = slp.rules[x]
        if len(rhs) == 1:
            return is_delimiter(rhs[0])
        x = rhs[1]


def random_text(rng: random.Random, n: int, sigma: int) -> Text:
    return Text(bytes(rng.randrange(sigma) for _ in range(n)))


def block_repetitive(seed: int, size: int) -> Text:
    """``size`` bytes of 256-byte blocks drawn from a pool of 16 random ones."""
    rng = random.Random(seed)
    pool = [bytes(rng.randrange(256) for _ in range(256)) for _ in range(16)]
    return Text.from_bytes(b"".join(pool[rng.randrange(16)]
                                    for _ in range(size // 256)))


def zipf_words_pattern(rng: random.Random, size: int) -> bytes:
    """``size`` bytes of space-separated words, drawn Zipf-like from 96."""
    vocab = [bytes(rng.randrange(97, 123) for _ in range(rng.randint(2, 9)))
             for _ in range(96)]
    chunks = []
    total = 0
    while total < size:
        w = vocab[min(int(rng.paretovariate(1.1)) - 1, len(vocab) - 1)] + b" "
        chunks.append(w)
        total += len(w)
    return b"".join(chunks)[:size]


def factor_string(fact: Factorization, text: Text, i: int) -> tuple[int, ...]:
    return text.symbols[fact.pos_l(i) - 1: fact.pos_r(i)]


def all_binary_texts(max_len: int):
    for n in range(1, max_len + 1):
        for mask in range(1 << n):
            yield Text(bytes((mask >> k) & 1 for k in range(n)))


def repair_compress_reference(text: Text) -> Cfg:
    """Re-Pair: repeatedly replace the most frequent adjacent pair.

    Pair counts are greedy non-overlapping left-to-right counts; ties go
    to the pair whose first occurrence is leftmost.  Replacement stops
    when no pair occurs twice; the remaining sequence becomes the start
    rule.  Rounds are vectorized full rescans, adequate at desk scale.
    """
    n = len(text)
    if n == 0:
        raise GrammarError("cannot build a grammar for the empty text")
    if n >= 1 << 30:
        raise GrammarError("text too long for 32-bit pair packing")
    # Work on dense labels: terminals 0..k-1 in symbol order, then one label
    # per rule from k.  Labels stay below 2n < 2^31, so a pair packs into one
    # int64 key; the relabelling is monotone, so every choice is unchanged.
    terminals, inverse = np.unique(np.fromiter(text.symbols, dtype=np.int64, count=n),
                                   return_inverse=True)
    k = len(terminals)
    seq = inverse.astype(np.int64, copy=False)
    label_rules: list[tuple[int, int]] = []
    while len(seq) >= 2:
        left = seq[:-1]
        right = seq[1:]
        keys = (left << 32) | right
        uniq, first_pos, counts = np.unique(keys, return_index=True, return_counts=True)
        # greedy non-overlap correction for runs of one symbol: a run of
        # length L holds L-1 overlapping pairs but only L//2 countable ones
        boundaries = np.flatnonzero(np.diff(seq) != 0)
        run_starts = np.concatenate(([0], boundaries + 1))
        run_lengths = np.diff(np.concatenate((run_starts, [len(seq)])))
        long_runs = run_lengths >= 2
        if long_runs.any():
            run_syms = seq[run_starts[long_runs]]
            run_keys = (run_syms << 32) | run_syms
            deltas = run_lengths[long_runs] // 2 - (run_lengths[long_runs] - 1)
            idx = np.searchsorted(uniq, run_keys)
            np.add.at(counts, idx, deltas)
        best = counts.max() if len(counts) else 0
        if best < 2:
            break
        cand = counts == best
        order = np.argsort(first_pos[cand], kind="stable")
        key = int(uniq[np.flatnonzero(cand)[order[0]]])
        a, b = key >> 32, key & 0xFFFFFFFF
        match = np.flatnonzero((left == a) & (right == b))
        if a == b:
            # keep every other match inside each consecutive run of matches
            group = np.concatenate(([0], np.cumsum(np.diff(match) != 1)))
            starts = np.concatenate(([0], np.flatnonzero(np.diff(group)) + 1))
            offset = np.arange(len(match)) - starts[group]
            match = match[offset % 2 == 0]
        out = seq.copy()
        out[match] = k + len(label_rules)
        label_rules.append((a, b))
        keep = np.ones(len(seq), dtype=bool)
        keep[match + 1] = False
        seq = out[keep]
    base = text.alphabet_size  # rule ids start above the alphabet

    def symbol(label: int) -> int:
        return int(terminals[label]) if label < k else base + label - k

    rules = {base + t: (symbol(a), symbol(b)) for t, (a, b) in enumerate(label_rules)}
    start = base + len(label_rules)
    rules[start] = tuple(symbol(v) for v in seq.tolist())
    return Cfg(rules, start)


def _smaller_neighbors(sa: list[int]) -> tuple[list[int], list[int]]:
    """Per rank, the nearest rank above/below holding a smaller position."""
    n = len(sa)
    psv = [-1] * n
    nsv = [-1] * n
    stack: list[int] = []
    for r in range(n):
        while stack and sa[stack[-1]] > sa[r]:
            stack.pop()
        psv[r] = stack[-1] if stack else -1
        stack.append(r)
    stack = []
    for r in range(n - 1, -1, -1):
        while stack and sa[stack[-1]] > sa[r]:
            stack.pop()
        nsv[r] = stack[-1] if stack else -1
        stack.append(r)
    return psv, nsv


class _Lpf:
    """Longest-previous-factor queries: nearest smaller positions in rank
    order are the LCP-maximizing earlier occurrences; ties between the two
    candidates go to the smaller source position."""

    __slots__ = ("idx", "ranks", "psv", "nsv")

    def __init__(self, idx: SuffixIndex):
        self.idx = idx
        self.ranks = suffix_ranks(idx)
        self.psv, self.nsv = _smaller_neighbors(idx.sa)

    def longest_previous(self, i: int) -> tuple[int, int]:
        idx = self.idx
        r = self.ranks[i - 1]
        best_src, best_len = 0, 0
        j = self.psv[r]
        if j >= 0:
            length = lcp_suffixes(idx, idx.sa[j], i)
            if length > 0:
                best_src, best_len = idx.sa[j], length
        j = self.nsv[r]
        if j >= 0:
            length = lcp_suffixes(idx, idx.sa[j], i)
            if length > best_len or (length == best_len and 0 < idx.sa[j] < best_src):
                if length > 0:
                    best_src, best_len = idx.sa[j], length
        return best_src, best_len


def lz77_factorize_reference(text: Text,
                             idx: SuffixIndex | None = None) -> list[Lz77Factor]:
    """Greedy LZ77 triples from per-query RMQ LCPs of both neighbours."""
    n = len(text)
    if idx is None:
        idx = build_suffix_index(text)
    lpf = _Lpf(idx) if n else None
    out: list[Lz77Factor] = []
    i = 1
    while i <= n:
        src, length = lpf.longest_previous(i)
        if length > n - i:
            length = n - i  # keep one character for the mandatory literal
        if length == 0:
            out.append(Lz77Factor(0, 0, text[i - 1]))
            i += 1
        else:
            out.append(Lz77Factor(src, length, text[i + length - 1]))
            i += length + 1
    return out


def lzss_factorize_reference(text: Text,
                             idx: SuffixIndex | None = None) -> list[LzssFactor]:
    """Greedy LZSS from per-query RMQ LCPs of both neighbours."""
    n = len(text)
    if idx is None:
        idx = build_suffix_index(text)
    lpf = _Lpf(idx) if n else None
    out: list[LzssFactor] = []
    i = 1
    while i <= n:
        src, length = lpf.longest_previous(i)
        if length > n - i + 1:
            length = n - i + 1
        if length == 0:
            out.append(LzssFactor(0, 0, text[i - 1]))
            i += 1
        else:
            out.append(LzssFactor(src, length, -1))
            i += length
    return out


def lz77_decode(factors: list[Lz77Factor], alphabet_size: int = 256) -> Text:
    """Text of LZ77 triples, copying symbol by symbol (overlap allowed)."""
    out: list[int] = []
    for f in factors:
        for k in range(f.length):
            out.append(out[f.src - 1 + k])
        out.append(f.next_sym)
    return Text(out, alphabet_size)


def lzss_decode(factors: list[LzssFactor], alphabet_size: int = 256) -> Text:
    """Text of LZSS literals and copies, copying symbol by symbol."""
    out: list[int] = []
    for f in factors:
        if f.length == 0:
            out.append(f.sym)
        else:
            for k in range(f.length):
                out.append(out[f.src - 1 + k])
    return Text(out, alphabet_size)


def greedy_factorize_reference(text: Text,
                               idx: SuffixIndex | None = None) -> Factorization:
    """Greedy LZSE from a per-symbol dict trie and suffix-index LCP queries.

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


def greedy_factorize_oracle_all_starts(text: Text) -> Factorization:
    """Reference greedy parser trying every existing factor as a source start.

    Quadratic per step and index-free: match lengths come from direct symbol
    comparison.  Pins ``greedy_factorize_oracle``, which tries only the
    starts whose first symbol matches.
    """
    n = len(text)
    syms = text.symbols
    starts: list[int] = []
    counts: list[int] = []
    bounds = [1]
    p = 0
    while p < n:
        best_len = 0
        best_pos = n + 2
        best_start = best_end = 0
        for fi in range(1, len(starts) + 1):
            fpos = bounds[fi - 1]
            cap = p - fpos + 1
            d = 0
            base = fpos - 1
            while d < cap and p + d < n and syms[p + d] == syms[base + d]:
                d += 1
            if fpos + d < bounds[fi]:  # the match ends inside F_fi: j < fi
                continue
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
        bounds.append(bounds[-1] + flen)
        p += flen
    return Factorization.from_lists(starts, counts, n, text.alphabet_size)
