"""Child process of the benchmark: the only place that imports ``lzse``.

The driver (``run.py``) starts this script with ``PYTHONPATH`` pointing at
the code under test.  Each mode prints one JSON object as its last line of
standard output; bulk results go to files in the directory it is given, so
that the driver, which holds the reference corpus, can check them.

Modes:
  query ARCHIVE [DIR TAG P R A E]
                                read + deserialize + build_access_index, then,
                                if DIR is given, time access(p) for A seconds
                                and extract(l, r) for E seconds, from position
                                P and range R of DIR's query files on
  trace-build CORPUS ARCHIVE    the layers of ``lzse compress``, one by one
  trace-query ARCHIVE DIR       the layers of the read side, one by one
  trace-stats CORPUS            the layers of ``lzse stats``, one by one
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from array import array
from pathlib import Path

from lzse import (Copy, Ibst, build_access_index, build_suffix_index, decode,
                  deserialize, extract_field_streams, grammar_to_lzse, h0,
                  greedy_factorize, lz77_factorize, lzss_factorize,
                  repair_compress, serialize, validate)
from lzse.dag import (compute_path_counts, heavy_paths, max_light_edges_on_path,
                      select_heavy_edges)
from lzse.suffixindex import RangeArgMin
from lzse.text import Text

perf = time.perf_counter


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gen2() -> int:
    return gc.get_stats()[2]["collections"]


def read_u32(path: Path) -> array:
    out = array("I")
    out.frombytes(path.read_bytes())
    return out


def time_queries(ix, qdir: Path, tag: str, pos_at: int, range_at: int,
                 access_s: float, extract_s: float) -> dict:
    """access(p), then extract(l, r), each timed one call at a time.

    Positions and ranges are read cyclically from the given offsets; the
    results go to files named with ``tag``.
    """
    positions = read_u32(qdir / "positions.bin")
    ranges = read_u32(qdir / "ranges.bin")
    ns = time.perf_counter_ns
    access = ix.access
    syms = array("I")
    times = array("q")
    i = pos_at
    deadline = ns() + int(access_s * 1e9)
    while True:
        p = positions[i % len(positions)]
        i += 1
        t0 = ns()
        s = access(p)
        t1 = ns()
        syms.append(s)
        times.append(t1 - t0)
        if t1 > deadline:
            break
    (qdir / f"symbols-{tag}.bin").write_bytes(syms.tobytes())
    (qdir / f"access_ns-{tag}.bin").write_bytes(times.tobytes())

    parts = []
    times = array("q")
    j = range_at
    deadline = ns() + int(extract_s * 1e9)
    while True:
        k = 2 * (j % (len(ranges) // 2))
        j += 1
        t0 = ns()
        part = ix.extract(ranges[k], ranges[k + 1])
        t1 = ns()
        parts.append(part.to_bytes())
        times.append(t1 - t0)
        if t1 > deadline:
            break
    (qdir / f"extract-{tag}.bin").write_bytes(b"".join(parts))
    (qdir / f"extract_ns-{tag}.bin").write_bytes(times.tobytes())
    return {"accesses": len(syms), "extracts": len(parts)}


def mode_query(archive: str, qdir: str | None = None, tag: str = "",
               pos_at: str = "0", range_at: str = "0", access_s: str = "0",
               extract_s: str = "0") -> dict:
    with open(archive, "rb") as fh:
        ix = build_access_index(deserialize(fh.read()))
    out = {"ready": time.monotonic()}
    if qdir is not None:
        out.update(time_queries(ix, Path(qdir), tag, int(pos_at), int(range_at),
                                float(access_s), float(extract_s)))
    return out


def mode_trace_build(corpus: str, archive: str) -> dict:
    m = {}
    t = perf()
    with open(corpus, "rb") as fh:
        text = Text.from_bytes(fh.read())
    m["text.load_s"] = perf() - t
    t = perf()
    idx = build_suffix_index(text)
    m["suffixindex.build_s"] = perf() - t
    m["suffixindex.rss_mib"] = rss_mib()
    t = perf()
    RangeArgMin(idx.lcp)
    m["suffixindex.rmq_build_s"] = perf() - t
    g0 = gen2()
    t = perf()
    fact = greedy_factorize(text, idx)
    m["greedy.parse_s"] = perf() - t
    m["greedy.gc_gen2"] = gen2() - g0
    m["greedy.rss_mib"] = rss_mib()
    m["greedy.z"] = fact.z
    m["greedy.copy_factors"] = sum(isinstance(f, Copy) for f in fact.factors)
    t = perf()
    blob = serialize(fact)
    m["archive.serialize_s"] = perf() - t
    with open(archive, "wb") as fh:
        fh.write(blob)
    return {"layers": m}


def mode_trace_query(archive: str, qdir: str) -> dict:
    """The read side's layers; the index is built first, as the CLI does."""
    m = {}
    t = perf()
    with open(archive, "rb") as fh:
        fact = deserialize(fh.read())
    m["archive.deserialize_s"] = perf() - t
    g0 = gen2()
    t = perf()
    ix = build_access_index(fact)
    m["access.index_build_s"] = perf() - t
    m["access.index_build_gc_gen2"] = gen2() - g0
    m["access.footprint_nodes"], m["access.footprint_hints"] = ix.footprint()

    qpath = Path(qdir)
    positions = read_u32(qpath / "positions.bin")
    syms = array("I")
    iters = visits = max_iters = 0
    for p in positions:
        sym, it, vis = ix.access_counted(p)
        syms.append(sym)
        iters += it
        visits += vis
        max_iters = max(max_iters, it)
    (qpath / "symbols-trace.bin").write_bytes(syms.tobytes())
    m["access.iters_per_access"] = iters / len(positions)
    m["access.iters_per_access_max"] = max_iters
    m["ibst.visits_per_access"] = visits / len(positions)

    ranges = read_u32(qpath / "ranges.bin")
    parts = []
    times = array("q")
    for k in range(0, len(ranges), 2):
        t = perf()
        parts.append(ix.extract(ranges[k], ranges[k + 1]).to_bytes())
        times.append(int((perf() - t) * 1e9))
    elapsed = sum(times) / 1e9
    (qpath / "extract-trace.bin").write_bytes(b"".join(parts))
    (qpath / "extract_ns-trace.bin").write_bytes(times.tobytes())
    m["access.extract_us_per_sym"] = elapsed * 1e6 / sum(map(len, parts))
    del ix

    # the parts of build_access_index, and decode, each on its own
    t = perf()
    problem = validate(fact)
    m["factorization.validate_s"] = perf() - t
    t = perf()
    Ibst(fact.bounds)
    m["ibst.global_build_s"] = perf() - t
    t = perf()
    s, e, _ = compute_path_counts(fact)
    m["dag.path_counts_s"] = perf() - t
    t = perf()
    heavy = select_heavy_edges(fact, s, e)
    m["dag.heavy_edges_s"] = perf() - t
    t = perf()
    dec = heavy_paths(fact, heavy)
    m["dag.heavy_paths_s"] = perf() - t
    m["dag.paths"] = len(dec.paths)
    m["dag.single_factor_paths"] = sum(len(p) == 1 for p in dec.paths)
    m["dag.max_light_edges"] = max_light_edges_on_path(fact, dec)
    del s, e, heavy, dec
    t = perf()
    decoded = decode(fact).to_bytes()
    m["factorization.decode_s"] = perf() - t
    Path(qdir, "decoded.bin").write_bytes(decoded)
    return {"layers": m, "valid": problem is None}


def mode_trace_stats(corpus: str) -> dict:
    """The calls ``size_report`` makes for all five methods, timed one by one."""
    m = {"grammar.to_lzse_s": 0.0, "baselines.h0_s": 0.0}
    t = perf()
    with open(corpus, "rb") as fh:
        text = Text.from_bytes(fh.read())
    m["text.load_s"] = perf() - t
    t = perf()
    idx = build_suffix_index(text)
    m["suffixindex.build_s"] = perf() - t
    m["suffixindex.rss_mib"] = rss_mib()
    t = perf()
    RangeArgMin(idx.lcp)
    m["suffixindex.rmq_build_s"] = perf() - t
    t = perf()
    grammar = repair_compress(text)
    m["grammar.repair_s"] = perf() - t
    m["grammar.rules"] = len(grammar.rules)

    artifacts = {}
    t = perf()
    artifacts["lz77"] = lz77_factorize(text, idx)
    m["baselines.lz77_s"] = perf() - t
    t = perf()
    artifacts["lzss"] = lzss_factorize(text, idx)
    m["baselines.lzss_s"] = perf() - t
    g0 = gen2()
    t = perf()
    fact = artifacts["lzse"] = greedy_factorize(text, idx)
    m["greedy.parse_s"] = perf() - t
    m["greedy.gc_gen2"] = gen2() - g0
    m["greedy.rss_mib"] = rss_mib()
    m["greedy.z"] = fact.z
    m["greedy.copy_factors"] = sum(isinstance(f, Copy) for f in fact.factors)
    artifacts["repair"] = grammar
    # size_report converts the grammar twice for repair-se: once to split
    # its streams and once to count its factors
    for _ in range(2):
        t = perf()
        se = grammar_to_lzse(grammar)
        m["grammar.to_lzse_s"] += perf() - t
    artifacts["repair-se"] = se

    for method, artifact in artifacts.items():
        t = perf()
        kind = "lzse" if method == "repair-se" else method
        streams = extract_field_streams(kind, artifact).streams
        sum(h0(v) * len(v) for v in streams.values())
        m["baselines.h0_s"] += perf() - t
    return {"layers": m, "n": len(text),
            "repair_se_factors_le_repair_size": se.z <= grammar.size}


MODES = {"query": mode_query,
         "trace-build": mode_trace_build, "trace-query": mode_trace_query,
         "trace-stats": mode_trace_stats}


if __name__ == "__main__":
    print(json.dumps(MODES[sys.argv[1]](*sys.argv[2:])))
