"""LZ77/LZSS baselines, field-stream extraction and zeroth-order entropy.

The baselines parse greedily with longest-previous-factor matches: one
scan of the suffix array finds each position's nearest earlier-starting
neighbours above and below in rank order, and each parse compares the text
against both at its factor starts; sources may be any earlier text
position and may self-overlap.  Field streams split each
representation into the symbol groups whose empirical entropies the size
report accounts.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import Counter
from typing import NamedTuple

from .factorization import Factorization
from .grammar import Cfg, grammar_to_lzse, repair_compress
from .greedy import greedy_factorize
from .suffixindex import SuffixIndex, build_suffix_index
from .text import Text, _prefix_compare


class Lz77Factor(NamedTuple):
    src: int      # 1-based source position, 0 when length == 0
    length: int   # copied characters
    next_sym: int # literal following the copied substring


class LzssFactor(NamedTuple):
    src: int      # 1-based source position, 0 for a literal
    length: int   # copied characters, 0 for a literal
    sym: int      # literal symbol, -1 for a copy


def _longest_previous(text: Text, idx: SuffixIndex):
    """longest(i): (source, length) of a longest previous factor at 1-based
    position i, length 0 when there is none.

    Of the two ranks nearest to i's whose suffixes start earlier, one above
    and one below, the longer match wins, the smaller source on a tie
    (Kärkkäinen, Kempa and Puglisi, CPM 2013).  One scan in rank order
    finds both: it keeps a stack of positions increasing upward over a
    sentinel position 0, where the entry under a pushed position is its
    neighbour above, and the position that pops an entry is that entry's
    neighbour below.  Both are memoryviews of ``array('i')``, which store
    and load a Python int about as fast as a list does.  longest(i)
    compares the text directly, at factor starts only.  The smaller
    source's first two symbols settle its match when it is shorter than
    that; else it gallops.  The other source wins only by matching one
    symbol more, which one compare settles before it gallops.
    """
    n = len(text)
    above = memoryview(array("i", [0]) * (n + 1))
    below = memoryview(array("i", [0]) * (n + 1))
    top = 0
    for p in idx.sa:
        while top > p:
            below[top] = p
            top = above[top]
        above[p] = top
        top = p
    syms = text.symbols
    buf, w, common_prefix = _prefix_compare(text)

    def longest(i: int) -> tuple[int, int]:
        a = above[i]
        b = below[i]
        if a > b:
            a, b = b, a
        if not a:
            a, b = b, 0
            if not a:
                return 0, 0
        # a < i, so a's suffix is the longer one
        if syms[i - 1] != syms[a - 1]:
            length = 0
        elif i == n or syms[i] != syms[a]:
            length = 1
        else:
            length = 2 + common_prefix((i + 1) * w, (a + 1) * w, (n - i - 1) * w)
        if b:
            x = (i - 1) * w
            y = (b - 1) * w
            e = (length + 1) * w
            if buf[x:x + e] == buf[y:y + e]:
                return b, length + 1 + common_prefix(x + e, y + e, (n - i + 1) * w - e)
        return a, length

    return longest


def _lz77_parse(text: Text, longest) -> list[Lz77Factor]:
    n = len(text)
    out: list[Lz77Factor] = []
    i = 1
    while i <= n:
        src, length = longest(i)
        if length > n - i:
            length = n - i  # keep one character for the mandatory literal
        if length == 0:
            out.append(Lz77Factor(0, 0, text[i - 1]))
            i += 1
        else:
            out.append(Lz77Factor(src, length, text[i + length - 1]))
            i += length + 1
    return out


def _lzss_parse(text: Text, longest) -> list[LzssFactor]:
    n = len(text)
    out: list[LzssFactor] = []
    i = 1
    while i <= n:
        src, length = longest(i)
        if length == 0:
            out.append(LzssFactor(0, 0, text[i - 1]))
            i += 1
        else:
            out.append(LzssFactor(src, length, -1))
            i += length
    return out


def lz77_factorize(text: Text, idx: SuffixIndex | None = None) -> list[Lz77Factor]:
    """Greedy LZ77 triples (source, length, next char); length 0 for fresh chars."""
    if idx is None:
        idx = build_suffix_index(text)
    return _lz77_parse(text, _longest_previous(text, idx))


def lzss_factorize(text: Text, idx: SuffixIndex | None = None) -> list[LzssFactor]:
    """Greedy LZSS: literals and (source, length) copies, overlap allowed."""
    if idx is None:
        idx = build_suffix_index(text)
    return _lzss_parse(text, _longest_previous(text, idx))


def h0(stream) -> float:
    """Zeroth-order empirical entropy in bits per symbol; 0 for empty input."""
    counts = Counter(stream)
    total = sum(counts.values())
    if total == 0:
        return 0.0
    val = -sum(c / total * math.log2(c / total) for c in counts.values())
    return val if val else 0.0  # avoid -0.0 for single-symbol streams


class FieldStreams(NamedTuple):
    method: str
    streams: dict[str, list]


def extract_field_streams(method: str, artifact) -> FieldStreams:
    """Split a method's output into its per-field symbol streams.

    lzse and repair-se report copy sources as start factor indices and
    lengths as referenced-factor counts; lz77/lzss use text offsets and
    character counts; repair reports left-hand symbols, right-hand symbols
    and the start rule's children separately.
    """
    if method in ("lzse", "repair-se"):
        if method == "repair-se":
            if not isinstance(artifact, Cfg):
                raise TypeError("repair-se expects a grammar")
            artifact = grammar_to_lzse(artifact)
        if not isinstance(artifact, Factorization):
            raise TypeError("lzse expects a Factorization")
        start, count = artifact.start, artifact.count
        return FieldStreams(method, {
            "flag": [1 if l else 0 for l in start],
            "literal": [k for l, k in zip(start, count) if not l],
            "source": [l for l in start if l],
            "length": [k for l, k in zip(start, count) if l],
        })
    if method == "lz77":
        if not (isinstance(artifact, list)
                and all(isinstance(f, Lz77Factor) for f in artifact)):
            raise TypeError("lz77 expects Lz77Factor list")
        return FieldStreams(method, {
            "source": [f.src for f in artifact if f.length > 0],
            "length": [f.length for f in artifact],
            "next_char": [f.next_sym for f in artifact],
        })
    if method == "lzss":
        if not (isinstance(artifact, list)
                and all(isinstance(f, LzssFactor) for f in artifact)):
            raise TypeError("lzss expects LzssFactor list")
        return FieldStreams(method, {
            "flag": [0 if f.length == 0 else 1 for f in artifact],
            "literal": [f.sym for f in artifact if f.length == 0],
            "source": [f.src for f in artifact if f.length > 0],
            "length": [f.length for f in artifact if f.length > 0],
        })
    if method == "repair":
        if not isinstance(artifact, Cfg):
            raise TypeError("repair expects a grammar")
        lhs = [x for x in artifact.rules if x != artifact.start]
        rhs = [s for x in lhs for s in artifact.rules[x]]
        return FieldStreams(method, {
            "left_hand": lhs,
            "right_hand": rhs,
            "start_children": list(artifact.rules[artifact.start]),
        })
    raise ValueError(f"unknown method {method!r}")


METHODS = ("lz77", "lzss", "lzse", "repair", "repair-se")


class _ChildEntries:
    """The ``_own_entries`` of one text, computed in a forked child: greedy
    and Re-Pair, while the caller builds the suffix index for lz77 and lzss.

    The child writes the pickled entries, or the pickled exception they
    raised, to a pipe and leaves through os._exit.  result() reads the pipe
    and reaps the child; close() kills and reaps a child that result() did
    not reap, so none outlives the caller.
    """

    def __init__(self, methods: list[str], text: Text):
        import pickle
        self.fd, w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(self.fd)
            os.close(w)
            raise
        if self.pid == 0:
            try:
                os.close(self.fd)
                try:
                    payload = pickle.dumps(_own_entries(methods, text), pickle.HIGHEST_PROTOCOL)
                except Exception as ex:
                    payload = pickle.dumps(ex, pickle.HIGHEST_PROTOCOL)
                with open(w, "wb") as fh:
                    fh.write(payload)
            finally:
                os._exit(0)
        os.close(w)

    def result(self) -> dict:
        import pickle
        with open(self.fd, "rb", closefd=False) as fh:
            payload = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        if status != 0 or not payload:
            raise RuntimeError("the Re-Pair child process ended without a result "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")
        entries = pickle.loads(payload)
        if isinstance(entries, BaseException):
            raise entries
        return entries

    def close(self) -> None:
        if self.pid:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        os.close(self.fd)


def _own_entries(methods: list[str], text: Text) -> dict[str, dict]:
    """The lzse, repair and repair-se entries among ``methods``: the methods
    that need no suffix index."""
    entries: dict[str, dict] = {}
    if "lzse" in methods:
        entries["lzse"] = _entry("lzse", greedy_factorize(text))
    if "repair" in methods or "repair-se" in methods:
        grammar = repair_compress(text)
        for m in ("repair", "repair-se"):
            if m in methods:
                entries[m] = _entry(m, grammar)
    return entries


def _entry(method: str, artifact) -> dict:
    fs = extract_field_streams(method, artifact)
    entry: dict = {}
    if method in ("lzse", "repair-se"):
        # one flag per factor, one source per copy factor
        entry["factors"] = len(fs.streams["flag"])
        entry["copy_factors"] = len(fs.streams["source"])
    elif method in ("lz77", "lzss"):
        entry["factors"] = len(artifact)
        entry["copy_factors"] = sum(1 for f in artifact if f.length > 0)
    else:
        entry["rules"] = len(artifact.rules)
        entry["grammar_size"] = artifact.size
    streams = {}
    total_bits = 0.0
    for name, vals in fs.streams.items():
        bits_per = h0(vals)
        streams[name] = {"count": len(vals), "h0": bits_per,
                         "bits": bits_per * len(vals)}
        total_bits += bits_per * len(vals)
    entry["streams"] = streams
    entry["total_bits"] = total_bits
    return entry


def size_report(methods, text: Text) -> dict:
    """Per-method factor counts, per-stream entropies and total bit costs.

    total_bits sums H0(stream) * |stream| over every reported stream; char
    factors therefore pay through the flag and literal streams, which the
    report keeps separate so source/length/next_char columns can be read
    off directly.  A repeated method is computed and reported once.

    Greedy and Re-Pair need no suffix index, and nothing else waits on
    them.  So where os.fork exists and lz77 or lzss is asked for with lzse,
    repair or repair-se, one forked child computes those three's entries
    (``_own_entries``) and sends back the entries, not the grammar, while
    this process builds the suffix index and computes lz77 and lzss; work
    on one side only runs inline.
    On three 256 KiB zipf-words texts the report of all five methods then
    takes 0.41-0.59 s, medians of 5 fresh processes each on a 2-CPU VM, and
    the two processes finish within about 0.1 s of each other.  This
    process's own peak RSS is about 35 MiB there and 51 MiB on the 1 MiB
    criterion-9 text; the child's, 36 and 61 MiB.  The fork comes before the suffix index imports numpy, so the
    child inherits none of numpy's threads or pages; Re-Pair imports
    numpy in the child where its passes pay.  The report is the same
    either way.
    """
    methods = list(dict.fromkeys(methods))
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    child = None
    if (hasattr(os, "fork") and any(m in ("lz77", "lzss") for m in methods)
            and any(m in ("lzse", "repair", "repair-se") for m in methods)):
        try:
            child = _ChildEntries(methods, text)
        except OSError:  # no process or pipe to spare: all runs inline
            pass
    entries: dict[str, dict] = {}
    try:
        if "lz77" in methods or "lzss" in methods:
            longest = _longest_previous(text, build_suffix_index(text))
            if "lz77" in methods:
                entries["lz77"] = _entry("lz77", _lz77_parse(text, longest))
            if "lzss" in methods:
                entries["lzss"] = _entry("lzss", _lzss_parse(text, longest))
            del longest
        entries.update(_own_entries(methods, text) if child is None else child.result())
    finally:
        if child is not None:
            child.close()
    report = {"n": len(text), "methods": {m: entries[m] for m in methods}}
    if "repair-se" in methods and "repair" in methods:
        report["repair_se_factors_le_repair_size"] = (
            entries["repair-se"]["factors"] <= entries["repair"]["grammar_size"])
    return report
