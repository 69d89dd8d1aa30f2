"""LZ77/LZSS baselines, field-stream extraction and zeroth-order entropy.

The baselines parse greedily with longest-previous-factor matches found
in one scan of the suffix and LCP arrays (the nearest earlier positions
above and below in rank order maximize the LCP); sources may be any
earlier text position and may self-overlap.  Field streams split each
representation into the symbol groups whose empirical entropies the size
report accounts.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from typing import NamedTuple

from .factorization import Char, Factorization
from .grammar import Cfg, grammar_to_lzse, repair_compress
from .greedy import greedy_factorize
from .suffixindex import SuffixIndex, build_suffix_index
from .text import Text


class Lz77Factor(NamedTuple):
    src: int      # 1-based source position, 0 when length == 0
    length: int   # copied characters
    next_sym: int # literal following the copied substring


class LzssFactor(NamedTuple):
    src: int      # 1-based source position, 0 for a literal
    length: int   # copied characters, 0 for a literal
    sym: int      # literal symbol, -1 for a copy


def _longest_previous(idx: SuffixIndex) -> tuple[list[int], list[int]]:
    """Per 1-based position i, (source, length) of a longest previous factor.

    Of the two ranks nearest to i's whose suffixes start earlier, one above
    and one below, take the longer LCP, the smaller source on a tie.  One
    scan in rank order keeps a stack of positions increasing upward, each
    with its LCP to the entry under it; the top sits in (top, below), over
    a sentinel position 0.  The entry under a pushed position is its
    neighbour above; the position that pops an entry is that entry's
    neighbour below.  m is the LCP with the top: the adjacent LCP, folded
    with the LCP of each entry popped.
    """
    n = len(idx.sa)
    src = [0] * (n + 1)
    length = [0] * (n + 1)
    stack: list[tuple[int, int]] = []
    top = below = 0
    for p, m in zip(idx.sa, idx.lcp):
        while top > p:
            if m > length[top] or (m == length[top] and p < src[top]):
                src[top] = p
                length[top] = m
            if below < m:
                m = below
            top, below = stack.pop()
        src[p] = top
        length[p] = m
        stack.append((top, below))
        top, below = p, m
    return src, length


def _lz77_parse(text: Text, src: list[int], lpf: list[int]) -> list[Lz77Factor]:
    n = len(text)
    out: list[Lz77Factor] = []
    i = 1
    while i <= n:
        length = min(lpf[i], n - i)  # keep one character for the mandatory literal
        if length == 0:
            out.append(Lz77Factor(0, 0, text[i - 1]))
            i += 1
        else:
            out.append(Lz77Factor(src[i], length, text[i + length - 1]))
            i += length + 1
    return out


def _lzss_parse(text: Text, src: list[int], lpf: list[int]) -> list[LzssFactor]:
    n = len(text)
    out: list[LzssFactor] = []
    i = 1
    while i <= n:
        length = lpf[i]
        if length == 0:
            out.append(LzssFactor(0, 0, text[i - 1]))
            i += 1
        else:
            out.append(LzssFactor(src[i], length, -1))
            i += length
    return out


def lz77_factorize(text: Text, idx: SuffixIndex | None = None) -> list[Lz77Factor]:
    """Greedy LZ77 triples (source, length, next char); length 0 for fresh chars."""
    if idx is None:
        idx = build_suffix_index(text)
    return _lz77_parse(text, *_longest_previous(idx))


def lzss_factorize(text: Text, idx: SuffixIndex | None = None) -> list[LzssFactor]:
    """Greedy LZSS: literals and (source, length) copies, overlap allowed."""
    if idx is None:
        idx = build_suffix_index(text)
    return _lzss_parse(text, *_longest_previous(idx))


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
        flags, literals, sources, lengths = [], [], [], []
        for f in artifact.factors:
            if isinstance(f, Char):
                flags.append(0)
                literals.append(f.symbol)
            else:
                flags.append(1)
                sources.append(f.start)
                lengths.append(f.count)
        return FieldStreams(method, {"flag": flags, "literal": literals,
                                     "source": sources, "length": lengths})
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


class _RepairChild:
    """Re-Pair of one text in a forked child.

    The child writes the pickled grammar, or the pickled exception Re-Pair
    raised, to a pipe and leaves through os._exit.  result() reads the pipe
    and reaps the child; close() kills and reaps a child that result() did
    not reap, so none outlives the caller.
    """

    def __init__(self, text: Text):
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
                    payload = pickle.dumps(repair_compress(text), pickle.HIGHEST_PROTOCOL)
                except Exception as ex:
                    payload = pickle.dumps(ex, pickle.HIGHEST_PROTOCOL)
                with open(w, "wb") as fh:
                    fh.write(payload)
            finally:
                os._exit(0)
        os.close(w)

    def result(self) -> Cfg:
        import pickle
        with open(self.fd, "rb", closefd=False) as fh:
            payload = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        if status != 0 or not payload:
            raise RuntimeError("the Re-Pair child process ended without a result "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")
        grammar = pickle.loads(payload)
        if isinstance(grammar, BaseException):
            raise grammar
        return grammar

    def close(self) -> None:
        if self.pid:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        os.close(self.fd)


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

    Re-Pair takes most of the time (about 1.1 s of a 256 KiB zipf-words
    text, against about 0.9 s for the suffix index, lz77, lzss and greedy
    together) and nothing else waits on it.  So where os.fork exists and
    other methods are asked for too, Re-Pair runs in one forked child while
    this process computes the rest; `lzse stats` then takes about 1.4 s
    instead of 2.2 s on that text (2-CPU VM).  The fork comes before the
    suffix index imports numpy, so the child inherits none of numpy's
    threads.  The report is the same either way.
    """
    methods = list(dict.fromkeys(methods))
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    wants_repair = "repair" in methods or "repair-se" in methods
    child = None
    if (wants_repair and hasattr(os, "fork")
            and any(m in ("lz77", "lzss", "lzse") for m in methods)):
        try:
            child = _RepairChild(text)
        except OSError:  # no process or pipe to spare: Re-Pair runs inline
            pass
    entries: dict[str, dict] = {}
    try:
        if "lz77" in methods or "lzss" in methods:
            src, lpf = _longest_previous(build_suffix_index(text))
            if "lz77" in methods:
                entries["lz77"] = _entry("lz77", _lz77_parse(text, src, lpf))
            if "lzss" in methods:
                entries["lzss"] = _entry("lzss", _lzss_parse(text, src, lpf))
            del src, lpf
        if "lzse" in methods:
            entries["lzse"] = _entry("lzse", greedy_factorize(text))
        if wants_repair:
            grammar = repair_compress(text) if child is None else child.result()
            for m in ("repair", "repair-se"):
                if m in methods:
                    entries[m] = _entry(m, grammar)
    finally:
        if child is not None:
            child.close()
    report = {"n": len(text), "methods": {m: entries[m] for m in methods}}
    if "repair-se" in methods and "repair" in methods:
        report["repair_se_factors_le_repair_size"] = (
            entries["repair-se"]["factors"] <= entries["repair"]["grammar_size"])
    return report
