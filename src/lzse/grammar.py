"""Grammars generating a single string: expansion, SLP form, LZSE conversion,
Re-Pair compression and the semigroup range-sum evaluator.

A grammar maps nonterminal ids to their single production; any symbol
without a production is a terminal.  Nonterminal ids must therefore not
collide with terminal symbol values (Re-Pair allocates them above the
alphabet).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .factorization import Char, Copy, Factorization
from .text import Text


class GrammarError(ValueError):
    pass


class Cfg:
    """Context-free grammar with exactly one production per nonterminal."""

    __slots__ = ("rules", "start", "order", "_lengths")

    def __init__(self, rules: dict[int, tuple[int, ...]], start: int):
        self.rules = {x: tuple(rhs) for x, rhs in rules.items()}
        self.start = start
        if start not in self.rules:
            raise GrammarError("start symbol has no production")
        for x, rhs in self.rules.items():
            if len(rhs) == 0:
                raise GrammarError(f"empty production for {x}")
        self.order = self._topological_order()
        self._lengths: dict[int, int] | None = None

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

    def expansion_lengths(self) -> dict[int, int]:
        if self._lengths is None:
            lengths: dict[int, int] = {}
            for x in self.order:
                lengths[x] = sum(1 if self.is_terminal(s) else lengths[s]
                                 for s in self.rules[x])
            self._lengths = lengths
        return self._lengths


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
        alphabet_size = 256 if all(s < 256 for s in out) else 1 << 32
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


def grammar_to_lzse(g: Cfg, alphabet_size: int | None = None) -> Factorization:
    """Convert a grammar into an LZSE factorization with at most size(g) factors.

    Depth-first walk of the derivation tree: the first visit of each
    nonterminal recurses and records the factor range its leaves produced,
    later visits emit a single copy factor referencing that range, and
    terminal leaves emit char factors.
    """
    factors: list[Char | Copy] = []
    ranges: dict[int, tuple[int, int]] = {}
    rules = g.rules

    # iterative DFS; frames close in leftmost-first order so every recorded
    # range is complete before any later occurrence references it
    stack: list[tuple[int, int] | tuple[str, int, int]] = [("visit", g.start, 0)]
    while stack:
        frame = stack.pop()
        if frame[0] == "close":
            _, x, first = frame
            ranges[x] = (first, len(factors))
            continue
        _, sym, _ = frame
        if g.is_terminal(sym):
            factors.append(Char(sym))
            continue
        if sym in ranges:
            lo, hi = ranges[sym]
            factors.append(Copy(lo, hi - lo + 1))
            continue
        ranges[sym] = (0, -1)  # reserve; filled by the close frame
        stack.append(("close", sym, len(factors) + 1))
        for child in reversed(rules[sym]):
            stack.append(("visit", child, 0))
    if alphabet_size is None:
        terminals = [s for rhs in rules.values() for s in rhs if g.is_terminal(s)]
        alphabet_size = 256 if all(s < 256 for s in terminals) else 1 << 32
    return Factorization(factors, alphabet_size=alphabet_size)


def repair_compress(text: Text) -> Cfg:
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
    terminals, inverse = np.unique(np.asarray(text.symbols, dtype=np.int64),
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
    lengths = slp.expansion_lengths()
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


# -- grammar interchange format ----------------------------------------------

def format_grammar(g: Cfg) -> str:
    """Line-oriented text form, start rule first: ``R1 -> R2 'a' 98``.

    Printable symbols other than the space are quoted; every other symbol,
    the space (32) included, is written as its number so that the
    whitespace split in :func:`parse_grammar` sees one item per symbol.
    """
    names: dict[int, str] = {}
    counter = 0
    for x in [g.start] + [x for x in g.rules if x != g.start]:
        names[x] = f"R{counter}"
        counter += 1

    def fmt(sym: int) -> str:
        if sym in names:
            return names[sym]
        if 32 < sym < 127:
            return f"'{chr(sym)}'"
        return str(sym)

    lines = [f"{names[x]} -> {' '.join(fmt(s) for s in g.rules[x])}"
             for x in names]
    return "\n".join(lines) + "\n"


def parse_grammar(src: str) -> Cfg:
    """Inverse of :func:`format_grammar`; rule ids are reassigned densely."""
    rows: list[tuple[str, list[str]]] = []
    for lineno, line in enumerate(src.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise GrammarError(f"line {lineno}: missing '->'")
        lhs, rhs = line.split("->", 1)
        rows.append((lhs.strip(), rhs.split()))
    if not rows:
        raise GrammarError("no rules in grammar text")
    terminals: set[int] = set()
    for _, items in rows:
        for item in items:
            if item.startswith("'") and item.endswith("'") and len(item) == 3:
                terminals.add(ord(item[1]))
            elif not item.startswith("R"):
                terminals.add(int(item))
    base = max(terminals) + 1 if terminals else 0
    ids = {name: base + t for t, (name, _) in enumerate(rows)}

    def parse_sym(item: str) -> int:
        if item.startswith("'") and item.endswith("'") and len(item) == 3:
            return ord(item[1])
        if item.startswith("R"):
            if item not in ids:
                raise GrammarError(f"unknown nonterminal {item}")
            return ids[item]
        return int(item)

    rules = {ids[name]: tuple(parse_sym(i) for i in items)
             for name, items in rows}
    return Cfg(rules, ids[rows[0][0]])
