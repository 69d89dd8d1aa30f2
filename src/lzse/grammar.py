"""Grammars generating a single string: LZSE conversion and Re-Pair
compression.

A grammar maps nonterminal ids to their single production; any symbol
without a production is a terminal.  Nonterminal ids must therefore not
collide with terminal symbol values (Re-Pair allocates them above the
alphabet).  The grammar expander, the SLP (Chomsky normal) form and the
semigroup range-sum evaluator, which only the tests run, live in
``tests/helpers.py``.
"""

from __future__ import annotations

from array import array
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import islice

from .factorization import Factorization
from .text import Text, alphabet_for


class GrammarError(ValueError):
    pass


class Cfg:
    """Context-free grammar with exactly one production per nonterminal."""

    __slots__ = ("rules", "start", "order")

    def __init__(self, rules: dict[int, tuple[int, ...]], start: int):
        self.rules = {x: tuple(rhs) for x, rhs in rules.items()}
        self.start = start
        if start not in self.rules:
            raise GrammarError("start symbol has no production")
        for x, rhs in self.rules.items():
            if len(rhs) == 0:
                raise GrammarError(f"empty production for {x}")
        self.order = self._topological_order()

    def is_terminal(self, sym: int) -> bool:
        return sym not in self.rules

    @property
    def size(self) -> int:
        """Total number of symbols on all right-hand sides."""
        return sum(len(rhs) for rhs in self.rules.values())

    def _topological_order(self) -> list[int]:
        # nonterminals ordered so every rule only uses earlier ones; the
        # DFS doubles as the acyclicity witness
        order: list[int] = []
        state: dict[int, int] = {}  # 1 = visiting, 2 = done
        for root in self.rules:
            if state.get(root):
                continue
            stack = [(root, 0)]
            state[root] = 1
            while stack:
                x, child = stack[-1]
                rhs = self.rules[x]
                while child < len(rhs) and (self.is_terminal(rhs[child])
                                            or state.get(rhs[child]) == 2):
                    child += 1
                if child == len(rhs):
                    stack.pop()
                    state[x] = 2
                    order.append(x)
                    continue
                y = rhs[child]
                if state.get(y) == 1:
                    raise GrammarError(f"cyclic derivation through {y}")
                stack[-1] = (x, child + 1)
                state[y] = 1
                stack.append((y, 0))
        return order



def grammar_to_lzse(g: Cfg, alphabet_size: int | None = None) -> Factorization:
    """Convert a grammar into an LZSE factorization with at most size(g) factors.

    Depth-first walk of the derivation tree: the first visit of each
    nonterminal recurses and records the factor range its leaves produced,
    later visits emit a single copy factor referencing that range, and
    terminal leaves emit char factors.
    """
    start: list[int] = []
    count: list[int] = []
    ranges: dict[int, tuple[int, int]] = {}
    rules = g.rules

    # iterative DFS; frames close in leftmost-first order so every recorded
    # range is complete before any later occurrence references it
    stack: list[tuple[str, int, int]] = [("visit", g.start, 0)]
    while stack:
        frame = stack.pop()
        if frame[0] == "close":
            _, x, first = frame
            ranges[x] = (first, len(start))
            continue
        _, sym, _ = frame
        if g.is_terminal(sym):
            start.append(0)
            count.append(sym)
            continue
        if sym in ranges:
            lo, hi = ranges[sym]
            start.append(lo)
            count.append(hi - lo + 1)
            continue
        ranges[sym] = (0, -1)  # reserve; filled by the close frame
        stack.append(("close", sym, len(start) + 1))
        for child in reversed(rules[sym]):
            stack.append(("visit", child, 0))
    if alphabet_size is None:
        terminals = [s for rhs in rules.values() for s in rhs if g.is_terminal(s)]
        alphabet_size = alphabet_for(terminals)
    return Factorization.from_lists(start, count, alphabet_size=alphabet_size)


# Re-Pair's opening rounds run as whole-sequence numpy passes only where
# they pay, decided before numpy is imported: numpy's import (about 0.09 s)
# needs a long text, each pass counts every pair of labels in one array of
# labels² 8-byte entries, so labels² (k at the first pass, one more label
# each pass) may exceed neither n nor a fixed cap, and a pass pays only
# while its pair is frequent.
_PASS_MIN_N = 1 << 16   # shorter texts run no pass
_PASS_MAX_K2 = 1 << 22  # most labels * labels a pass counts
_PASS_SAMPLE = 1 << 16  # leading symbols whose adjacent pairs decide
_PASS_SHARE = 1 / 100   # passes run while the top pair holds this share


def repair_compress(text: Text) -> Cfg:
    """Re-Pair: repeatedly replace the most frequent adjacent pair.

    Pair counts are greedy non-overlapping left-to-right counts, so a run of
    L equal symbols counts L//2 for their pair; ties go to the pair whose
    first (overlapping) occurrence is leftmost, and runs are replaced
    greedily from the left.  Replacement stops when no pair occurs twice;
    the remaining sequence becomes the start rule.

    Two phases make the rules.  The first rounds replace the most: on a
    256 KiB zipf-words text the first 40 of some 5,100 rounds make about
    three quarters of the replacements.  Where ``_passes_pay`` finds such
    a text, each of those rounds is one numpy pass over the whole
    sequence, and the passes go on while the top pair holds at least
    ``_PASS_SHARE`` of it.
    The incremental phase then takes over the shortened sequence.  Each
    round's pair and its replacements are a function of the sequence alone,
    and the handoff keeps the sequence's order, so both phases choose as
    either would alone and the grammar is the same rule for rule.
    """
    n = len(text)
    if n == 0:
        raise GrammarError("cannot build a grammar for the empty text")
    # Work on dense labels: terminals 0..k-1 in symbol order, then one label
    # per rule from k.  The relabelling is monotone, so every choice is
    # unchanged.
    terminals = sorted(set(text.symbols))
    k = len(terminals)
    label_rules: list[tuple[int, int]] = []
    if _passes_pay(text.symbols, k):
        sym = _repair_passes(text.symbols, terminals, label_rules)
    else:
        dense = {s: t for t, s in enumerate(terminals)}
        sym = [dense[s] for s in text.symbols]
    seq = _repair_rounds(sym, k, label_rules)
    base = text.alphabet_size  # rule ids start above the alphabet

    def symbol(label: int) -> int:
        return terminals[label] if label < k else base + label - k

    rules = {base + t: (symbol(a), symbol(b)) for t, (a, b) in enumerate(label_rules)}
    start = base + len(label_rules)
    rules[start] = tuple(map(symbol, seq))
    return Cfg(rules, start)


def _passes_pay(symbols, k: int) -> bool:
    """Whether Re-Pair opens with numpy passes: the text is long, its
    alphabet small, and among its first symbols the most frequent adjacent
    pair holds at least ``_PASS_SHARE`` of them (11 ms on zipf words,
    28 ms on random blocks, where Re-Pair takes 1.5 s)."""
    n = len(symbols)
    if n < _PASS_MIN_N or k * k > min(n, _PASS_MAX_K2):
        return False
    sample = symbols[:_PASS_SAMPLE]
    top = max(Counter(zip(sample, islice(sample, 1, None))).values(), default=0)
    return top >= _PASS_SHARE * len(sample)


def _repair_passes(symbols, terminals: list[int],
                   label_rules: list[tuple[int, int]]) -> list[int]:
    """Re-Pair rounds as whole-sequence numpy passes, while the top pair
    holds at least ``_PASS_SHARE`` of the sequence and labels² stays within
    min(n, ``_PASS_MAX_K2``).  Appends each round's pair to ``label_rules``
    and returns the sequence left, in dense labels.

    A pass keys the pair at i as ``seq[i] * labels + seq[i + 1]`` and
    bincounts the keys; in a run of equal symbols only every other
    overlapping pair counts.  It picks the leftmost key of highest count,
    as the incremental rounds do, and replaces its occurrences from the
    left.
    """
    import numpy as np
    raw = np.asarray(memoryview(symbols))
    seq = np.searchsorted(np.asarray(terminals, dtype=raw.dtype), raw).astype(np.int32)
    labels = len(terminals)
    most = min(len(symbols), _PASS_MAX_K2)  # below 2**31: int32 keys suffice
    while len(seq) >= 2 and labels * labels <= most:
        left = seq[:-1]
        keys = left * labels
        keys += seq[1:]
        counts = np.bincount(keys, minlength=labels * labels)
        same = np.flatnonzero(left == seq[1:])
        if len(same):
            counts -= np.bincount(keys[same[_overlapping(same)]],
                                  minlength=labels * labels)
        best = int(counts.max())
        if best < 2 or best < _PASS_SHARE * len(seq):
            break
        tied = np.flatnonzero(counts == best)
        key = int(tied[0] if len(tied) == 1 else keys[np.argmax(np.isin(keys, tied))])
        at = np.flatnonzero(keys == key)
        del keys
        a, b = divmod(key, labels)
        if a == b:
            at = at[~_overlapping(at)]
        seq[at] = labels
        keep = np.ones(len(seq), dtype=bool)
        keep[at + 1] = False
        seq = seq[keep]
        label_rules.append((a, b))
        labels += 1
    return seq.tolist()


def _overlapping(at):
    """Mask of the increasing positions ``at`` that overlap a pair taken
    before them: in each stretch of consecutive positions, greedy from the
    left takes every other one, so the second, fourth, ... overlap."""
    import numpy as np
    first = np.ones(len(at), dtype=bool)
    first[1:] = at[1:] != at[:-1] + 1
    first = np.flatnonzero(first)
    offset = np.arange(len(at)) - np.repeat(first, np.diff(first, append=len(at)))
    return (offset & 1).astype(bool)


def _repair_rounds(sym: list[int], k: int, label_rules: list[tuple[int, int]]) -> list[int]:
    """Re-Pair's incremental rounds over the dense labels ``sym``, of which
    ``k + len(label_rules)`` exist so far.  Appends each round's pair to
    ``label_rules`` and returns the final sequence.

    Counting is incremental, after Larsson and Moffat ("Off-line
    dictionary-based compression", Proc. IEEE 2000).  The sequence is a
    doubly linked list over its positions; each pair keeps its count and a
    list of its occurrences in position order, and a replacement updates
    only the pairs next to the occurrence it replaces.  A heap keyed by
    (-count, first occurrence) picks each rule, re-keying stale entries
    when they surface.  O(n log n) overall.

    Each pair has a dense id that indexes its list and its count, and
    ``occ[i]`` is the id of the occurrence starting at position i, so the
    pairs a replacement takes an occurrence from are read off ``occ``.
    Nothing is unlinked: i is dead in every list but that of ``occ[i]``,
    and a skip index per pair passes each dead entry once.  Every pair a
    replacement makes holds the new label x; two maps that live for one
    round find them: c -> the id of (c, x), with (x, x) under x, and d ->
    the id of (x, d).  The ids of pairs left without occurrences are
    reused from the next round on.
    """
    n = len(sym)
    labels = k + len(label_rules)  # keys the first scan's pairs
    # Each position's int is made once and shared by every list holding it,
    # which keeps the peak down.
    pos = list(range(-1, n + 1))
    nxt = pos[2:]
    nxt[-1] = -1
    prv = pos[:n]
    # The occurrence at i is the pair (sym[i], sym[nxt[i]]); a position
    # merged away holds -1.  Old pairs only lose occurrences and new pairs
    # gain them left to right, each once, so every list stays in position
    # order and an entry is live while ``occ`` names its pair.
    occ = [-1] * n
    where: list[list[int] | None] = []
    skip: list[int] = []
    count: list[int] = []
    # A run of L >= 2 equal symbols keeps L and the position of its other
    # end at both ends, so the run's count L//2 follows a change at either
    # end in O(1).  Both tables are int32, 4 bytes a position, not lists.
    run_len = memoryview(array("i", [0]) * n)
    run_end = memoryview(array("i", [0]) * n)
    ids: dict[int, int] = {}
    run_start = 0
    for i, a, b in zip(pos[1:n], sym, islice(sym, 1, None)):
        p = ids.get(a * labels + b)
        if p is None:
            p = ids[a * labels + b] = len(where)
            where.append([i])
            skip.append(0)
            count.append(0)
        else:
            where[p].append(i)
        occ[i] = p
        if a != b:
            count[p] += 1
            if i > run_start:  # close the run run_start..i
                run_len[run_start] = run_len[i] = i - run_start + 1
                run_end[run_start] = i
                run_end[i] = run_start
                count[occ[run_start]] += (i - run_start + 1) // 2
            run_start = i + 1
    if run_start < n - 1:
        e = n - 1
        run_len[run_start] = run_len[e] = e - run_start + 1
        run_end[run_start] = e
        run_end[e] = run_start
        count[occ[run_start]] += (e - run_start + 1) // 2
    del ids, pos

    free: list[int] = []  # ids of pairs with no occurrence left

    def new_pair(i: int, freq: int) -> int:
        # a pair made by this round, with its first occurrence at i
        if free:
            p = free.pop()
        else:
            p = len(where)
            where.append(None)
            skip.append(0)
            count.append(0)
        where[p] = [i]
        skip[p] = 0
        count[p] = freq
        occ[i] = p
        return p

    def first(p: int) -> int:
        # the first live occurrence of p, which has one
        entries = where[p]
        s = skip[p]
        while occ[entries[s]] != p:
            s += 1
        skip[p] = s
        return entries[s]

    # An old pair's count only falls and its first occurrence only moves
    # right, so its heap entry never sorts after its true key; new pairs are
    # pushed once, when their round ends.  Live pairs never share a first
    # occurrence, so the id in an entry decides no order; an entry whose id
    # has since been reused is re-keyed like any other stale one.
    heap = [(-freq, where[p][0], p) for p, freq in enumerate(count) if freq >= 2]
    heapify(heap)
    while heap:
        neg, at, pair = heappop(heap)
        freq = count[pair]
        if freq < 2:
            continue
        start = first(pair)
        if freq != -neg or start != at:
            heappush(heap, (-freq, start, pair))
            continue
        a = sym[start]
        b = sym[nxt[start]]
        x = k + len(label_rules)
        label_rules.append((a, b))
        left_of: dict[int, int] = {}   # c -> id of (c, x)
        right_of: dict[int, int] = {}  # d -> id of (x, d)
        emptied = [pair]
        for i in islice(where[pair], skip[pair], None):
            if occ[i] != pair:  # dead: an earlier replacement took it
                continue
            j = nxt[i]
            h = prv[i]
            r = nxt[j]
            if h >= 0:
                c = sym[h]
                p = occ[h]  # (c, a) loses its occurrence at h
                if c != a:
                    count[p] -= 1
                else:  # i ends a run of a (a != b): it loses its last symbol
                    s = run_end[i]
                    length = run_len[i]
                    if length % 2 == 0:
                        count[p] -= 1
                    if length > 2:
                        run_len[s] = run_len[h] = length - 1
                        run_end[s] = h
                        run_end[h] = s
                if not count[p] and c != x:  # pairs this round made: below
                    emptied.append(p)
            if r >= 0:
                d = sym[r]
                if d != b or a != b:  # (b, d) loses its occurrence at j
                    p = occ[j]
                    if d != b:
                        count[p] -= 1
                    else:  # j starts a run of b: it loses its first symbol
                        s = run_end[j]
                        length = run_len[j]
                        if length % 2 == 0:
                            count[p] -= 1
                        if length > 2:
                            run_len[s] = run_len[r] = length - 1
                            run_end[s] = r
                            run_end[r] = s
                    if not count[p]:
                        emptied.append(p)
            occ[j] = -1
            sym[i] = x
            nxt[i] = r
            if h >= 0:
                if c == x:  # extend the run of x that ends at h
                    g = prv[h]
                    if g >= 0 and sym[g] == x:
                        s = run_end[h]
                        length = run_len[h]
                    else:
                        s = h
                        length = 1
                    run_len[s] = run_len[i] = length + 1
                    run_end[s] = i
                    run_end[i] = s
                    freq = length % 2
                else:
                    freq = 1
                p = left_of.get(c)
                if p is None:
                    left_of[c] = new_pair(h, freq)
                else:
                    where[p].append(h)
                    occ[h] = p
                    count[p] += freq
            if r >= 0:
                prv[r] = i
                p = right_of.get(d)
                if p is None:
                    right_of[d] = new_pair(i, 1)
                else:
                    where[p].append(i)
                    occ[i] = p
                    count[p] += 1
        count[pair] = 0
        for made in (left_of, right_of):
            for p in made.values():
                freq = count[p]
                if freq >= 2:
                    heappush(heap, (-freq, first(p), p))
                elif not freq:  # (x, d) lost every occurrence it was given
                    emptied.append(p)
        for p in emptied:
            where[p] = None
            free.append(p)
    seq = []
    i = 0
    while i >= 0:
        seq.append(sym[i])
        i = nxt[i]
    return seq
