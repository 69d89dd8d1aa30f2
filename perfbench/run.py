#!/usr/bin/env python3
"""Benchmark driver for lzse: one workload, one seed, one run.

    python3 perfbench/run.py --workload build-block --seed 1 --seconds 30 --trace 0

The driver never imports ``lzse``.  It generates the workload's corpora from
the seed, drives the program through its public entry points (the ``lzse``
CLI as subprocesses, and ``worker.py`` for in-process library calls), checks
every output against the corpora, and prints one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` makes a separate traced run that times the
public functions of each module from outside and reports the per-layer
metrics.  Lines before the last start with ``#`` and give details: sample
counts, per-command medians and the versions measured.  See NOTES.md.

Load is a closed loop with one caller: one program process at a time.  A
run repeats a cycle (set-ups, then the workload's operations) until its
seconds are spent, so every metric samples the whole run rather than one
stretch of it; this host's speed drifts by tens of percent within a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from pathlib import Path
from typing import NamedTuple

import check
import corpora

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = str(HERE / "worker.py")
SPEC = ROOT / "BENCHMARK.json"

PROBES_PER_CYCLE = 3      # fresh `import lzse` set-ups per cycle
TRACE_PROBES = 9          # fresh `import lzse` set-ups in a traced run
STATS_CORPORA = 3         # zipf corpora per stats-zipf run, used in turn
CORPUS_STRIDE = 1_000_003  # corpus k of a run has seed + k * CORPUS_STRIDE
EXTRACT_LEN = 4096        # symbols per extract range, in-process and CLI
ACCESS_CHUNK_S = 1.0      # in-process access(p) time per query-block cycle
EXTRACT_CHUNK_S = 0.3     # in-process extract time per query-block cycle
QUERY_POSITIONS = 1 << 20
QUERY_RANGES = 1024
TRACE_POSITIONS = 20_000
TRACE_RANGES = 16
CHILD_LIMIT_S = 170.0     # no child may outlive the run's 180 s budget

PROBE = ("import time, lzse; t = time.monotonic(); import sys, numpy; "
         "print(t, numpy.__version__, sys.version.split()[0])")


class BenchError(RuntimeError):
    """The run cannot produce its metrics; no result is printed."""


class Call(NamedTuple):
    rc: int
    t0: float      # time.monotonic() just before the process was started
    wall: float    # seconds until it was reaped
    stdout: bytes


def child_env() -> dict:
    """Fixed environment: the code under test, hash seed fixed, no LZSE_*."""
    return {"PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8"}


def median(samples, what: str) -> float:
    if not samples:
        raise BenchError(f"no successful samples for {what}")
    return statistics.median(samples)


def tail(samples) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, capped at p99;
    the slowest sample when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 1000:
        return xs[-(-99 * n // 100) - 1], "p99"
    if n > 10:
        return xs[n - 11], f"p{100 * (n - 10) // n}"
    return xs[-1], "max"


def cycles(seconds: float, at_least: int = 1):
    """Cycle numbers until ``seconds`` are spent and ``at_least`` cycles
    ran; a cycle only starts while half of the previous one's duration is
    left."""
    end = time.monotonic() + seconds
    k, last = 0, 0.0
    while k < at_least or time.monotonic() + last / 2 < end:
        start = time.monotonic()
        yield k
        last = time.monotonic() - start
        k += 1


def read_array(path: Path, typecode: str) -> array:
    out = array(typecode)
    out.frombytes(path.read_bytes())
    return out


class Run:
    """One run: its scratch directory, the processes it starts, its counts.

    ``inputs[k]`` is written to ``corpus{k}.bin`` for the program;
    ``expected[k]`` is what the checks compare its outputs with.
    """

    def __init__(self, seed: int, inputs: list[bytes], expected: list[bytes]):
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        for k, data in enumerate(inputs):
            (self.dir / f"corpus{k}.bin").write_bytes(data)
        self.seed = seed
        self.n = len(inputs[0])
        self.expected = expected
        self.env = child_env()
        self.deadline = time.monotonic() + CHILD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.rss_mib: list[float] = []
        self.setups: list[float] = []
        self.startups: list[float] = []
        self.details: dict = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def record(self, ok: bool, count: int = 1) -> bool:
        self.attempted += count
        self.failed += 0 if ok else count
        return ok

    def call(self, *args: str, counted: bool = True) -> Call:
        """Run ``python args...`` in the scratch directory and wait for it.

        ``counted`` adds the child's peak RSS to ``peak_rss_mib``; work
        outside every timed window passes False.
        """
        out_path = self.dir / "stdout"
        with open(out_path, "wb") as out:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.dir,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.DEVNULL)
            killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if counted:
            self.rss_mib.append(usage.ru_maxrss / 1024.0)
        return Call(proc.returncode, t0, wall, out_path.read_bytes())

    def lzse(self, *args: str, counted: bool = True) -> Call:
        return self.call("-m", "lzse", *args, counted=counted)

    def worker(self, *args: str, counted: bool = True) -> tuple[Call, dict | None]:
        c = self.call(WORKER, *args, counted=counted)
        if c.rc != 0:
            return c, None
        return c, json.loads(c.stdout.splitlines()[-1])

    def probe(self, times: int) -> None:
        """Fresh interpreters that import ``lzse`` and exit.

        ``setups`` gets the time until the import is done; ``startups`` the
        whole process, which every CLI call pays on top of its work.
        """
        for _ in range(times):
            c = self.call("-c", PROBE)
            if self.record(c.rc == 0):
                ready, numpy_version, python_version = c.stdout.split()
                self.setups.append(float(ready) - c.t0)
                self.startups.append(c.wall)
                self.details["numpy"] = numpy_version.decode()
                self.details["python"] = python_version.decode()

    def warm(self) -> None:
        """One untimed start, so bytecode and file caches are filled."""
        self.call("-c", PROBE, counted=False)

    def make_archive(self) -> int:
        """Archive of corpus 0 written by the code under test, untimed."""
        c = self.lzse("compress", "corpus0.bin", "-o", "corpus.lzse", counted=False)
        if c.rc != 0:
            raise BenchError("lzse compress failed; the read side has no archive")
        data = (self.dir / "corpus.lzse").read_bytes()
        self.record(check.archive_matches(data, self.expected[0]))
        return len(data)

    def query_files(self, qdir: Path, positions: int, ranges: int) -> tuple[array, array]:
        """Seeded uniform positions and fixed-length ranges for the read side."""
        rng = random.Random(f"query:{self.seed}")
        n = self.n
        length = min(EXTRACT_LEN, n)
        pos = array("I", (rng.randrange(n) + 1 for _ in range(positions)))
        rs = array("I")
        for _ in range(ranges):
            lo = rng.randint(1, n - length + 1)
            rs.extend((lo, lo + length - 1))
        qdir.mkdir(exist_ok=True)
        (qdir / "positions.bin").write_bytes(pos.tobytes())
        (qdir / "ranges.bin").write_bytes(rs.tobytes())
        return pos, rs

    def check_queries(self, qdir: Path, tag: str, pos: array, rs: array,
                      pos_at: int = 0, range_at: int = 0) -> None:
        """Check a worker's access and extract results against corpus 0.

        The worker read positions and ranges cyclically from the given
        offsets, as ``worker.time_queries`` does.
        """
        exp = self.expected[0]
        syms = read_array(qdir / f"symbols-{tag}.bin", "I")
        wrong = 0
        for j, s in enumerate(syms):
            p = pos[(pos_at + j) % len(pos)]
            wrong += p > len(exp) or exp[p - 1] != s
        self.record(True, len(syms) - wrong)
        self.record(False, wrong)
        got = (qdir / f"extract-{tag}.bin").read_bytes()
        at = 0
        for j in range(len(read_array(qdir / f"extract_ns-{tag}.bin", "q"))):
            k = 2 * ((range_at + j) % (len(rs) // 2))
            lo, hi = rs[k], rs[k + 1]
            self.record(got[at:at + hi - lo + 1] == exp[lo - 1:hi])
            at += hi - lo + 1


# -- workloads, untraced ---------------------------------------------------------

def build_block(run: Run, seconds: float) -> dict:
    """Cycles of set-ups and one ``lzse compress`` of the block corpus."""
    run.warm()
    walls, size = [], 0
    arc = run.dir / "corpus.lzse"
    for _ in cycles(seconds):
        run.probe(PROBES_PER_CYCLE)
        c = run.lzse("compress", "corpus0.bin", "-o", "corpus.lzse")
        data = arc.read_bytes() if c.rc == 0 and arc.exists() else None
        run.record(data is not None and check.archive_matches(data, run.expected[0]))
        if data is not None:
            walls.append(c.wall)
            size = len(data)
            arc.unlink()
    compress = median(walls, "compress")
    op_tail, label = tail(walls)
    run.details.update(cli_compress_s=compress, compress_calls=len(walls),
                       archive_bytes=size, op="lzse compress", tail=label)
    return {"cli_s": compress, "op_p50_ms": compress * 1e3,
            "op_tail_ms": op_tail * 1e3, "compressed_bytes": size}


def query_block(run: Run, seconds: float) -> dict:
    """Cycles of: a fresh query process (set-up, then in-process access and
    extract calls timed one by one), then one round of CLI read commands."""
    size = run.make_archive()
    qdir = run.dir / "q"
    pos, rs = run.query_files(qdir, QUERY_POSITIONS, QUERY_RANGES)
    length = rs[1] - rs[0] + 1
    run.worker("query", "corpus.lzse", counted=False)  # fill caches
    access_ns, extract_ns = array("q"), array("q")
    pos_at = range_at = 0

    rng = random.Random(f"cli:{run.seed}")
    out_path = run.dir / "out.bin"
    exp = run.expected[0]
    cmds = {"decompress": [], "access": [], "extract": []}
    rounds = []
    for k in cycles(seconds):
        tag = str(k)
        c, res = run.worker("query", "corpus.lzse", str(qdir), tag, str(pos_at),
                            str(range_at), str(ACCESS_CHUNK_S), str(EXTRACT_CHUNK_S))
        if run.record(res is not None):
            run.setups.append(res["ready"] - c.t0)
            run.check_queries(qdir, tag, pos, rs, pos_at, range_at)
            access_ns.extend(read_array(qdir / f"access_ns-{tag}.bin", "q"))
            extract_ns.extend(read_array(qdir / f"extract_ns-{tag}.bin", "q"))
            pos_at += res["accesses"]
            range_at += res["extracts"]

        p = rng.randint(1, run.n)
        lo = rng.randint(1, run.n - length + 1)
        hi = lo + length - 1
        calls = (
            ("decompress", ("corpus.lzse", "-o", "out.bin"),
             lambda out: out_path.exists() and out_path.read_bytes() == exp),
            ("access", ("corpus.lzse", "-p", str(p)),
             lambda out: out == check.access_line(exp, p)),
            ("extract", ("corpus.lzse", "-l", str(lo), "-r", str(hi)),
             lambda out: out == check.extract_output(exp, lo, hi)),
        )
        walls = []
        for name, args, correct in calls:
            c = run.lzse(name, *args)
            run.record(c.rc == 0 and correct(c.stdout))
            if c.rc == 0:
                cmds[name].append(c.wall)
                walls.append(c.wall)
        out_path.unlink(missing_ok=True)
        if len(walls) == len(calls):
            rounds.append(sum(walls))

    p50 = median(access_ns, "access") / 1e6
    op_tail, label = tail(access_ns)
    run.details.update(
        {f"cli_{name}_s": median(w, name) for name, w in cmds.items()},
        cli_rounds=len(rounds), accesses=len(access_ns), op="access(p)",
        tail=label, access_p50_us=p50 * 1e3, access_tail_us=op_tail / 1e3,
        extracts=len(extract_ns), extract_len=length,
        extract_us_per_sym=median(extract_ns, "extract") / 1e3 / length,
        archive_bytes=size)
    return {"cli_s": median(rounds, "CLI read round"), "op_p50_ms": p50,
            "op_tail_ms": op_tail / 1e6, "compressed_bytes": size}


def stats_zipf(run: Run, seconds: float) -> dict:
    """Cycles of set-ups and one ``lzse stats --json`` (all five methods),
    taking the run's corpora in turn; every corpus is used at least once."""
    run.warm()
    walls, sizes = [], {}
    for k in cycles(seconds, at_least=len(run.expected)):
        run.probe(PROBES_PER_CYCLE)
        i = k % len(run.expected)
        c = run.lzse("stats", f"corpus{i}.bin", "--json")
        report = check.stats_report(c.stdout) if c.rc == 0 else None
        run.record(report is not None and check.stats_correct(report, run.expected[i]))
        if report is not None:
            walls.append(c.wall)
            sizes[i] = min(e["total_bits"] for e in report["methods"].values()) / 8
    stats = median(walls, "stats")
    op_tail, label = tail(walls)
    run.details.update(cli_stats_s=stats, stats_calls=len(walls),
                       op="lzse stats --json", tail=label)
    return {"cli_s": stats, "op_p50_ms": stats * 1e3, "op_tail_ms": op_tail * 1e3,
            "compressed_bytes": median(list(sizes.values()), "stats size")}


# -- workloads, traced: public functions of each module, timed from outside -------

def trace_build_block(run: Run) -> dict:
    run.warm()
    run.probe(TRACE_PROBES)
    _, res = run.worker("trace-build", "corpus0.bin", "corpus.lzse")
    if res is None:
        raise BenchError("traced compress failed")
    run.record(check.archive_matches((run.dir / "corpus.lzse").read_bytes(),
                                     run.expected[0]))
    return res["layers"]


def trace_query_block(run: Run) -> dict:
    run.make_archive()
    run.warm()
    run.probe(TRACE_PROBES)
    qdir = run.dir / "q"
    pos, rs = run.query_files(qdir, TRACE_POSITIONS, TRACE_RANGES)
    _, res = run.worker("trace-query", "corpus.lzse", str(qdir))
    if res is None:
        raise BenchError("traced read side failed")
    run.record(res["valid"])
    run.record((qdir / "decoded.bin").read_bytes() == run.expected[0])
    run.check_queries(qdir, "trace", pos, rs)
    return res["layers"]


def trace_stats_zipf(run: Run) -> dict:
    run.warm()
    run.probe(TRACE_PROBES)
    _, res = run.worker("trace-stats", "corpus0.bin")
    if res is None:
        raise BenchError("traced stats failed")
    run.record(res["n"] == len(run.expected[0])
               and res["repair_se_factors_le_repair_size"] is True)
    return res["layers"]


def block_corpora(seed: int) -> list[bytes]:
    return [corpora.block_repetitive(seed)]


def zipf_corpora(seed: int) -> list[bytes]:
    return [corpora.zipf_periodic(seed + k * CORPUS_STRIDE)
            for k in range(STATS_CORPORA)]


WORKLOADS = {
    "build-block": (block_corpora, build_block, trace_build_block),
    "query-block": (block_corpora, query_block, trace_query_block),
    "stats-zipf": (zipf_corpora, stats_zipf, trace_stats_zipf),
}
DEFAULT_SEEDS = {"build-block": corpora.BLOCK_SEED, "query-block": corpora.BLOCK_SEED,
                 "stats-zipf": corpora.ZIPF_SEED}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lzse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout's own git repository, if it is one."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 inputs: list[bytes] | None = None,
                 expected: list[bytes] | None = None) -> tuple[dict, dict]:
    """One run: (the result object, details).

    ``inputs`` replaces the workload's generated corpora and ``expected``
    the corpora the checks compare against; both exist for the self-test.
    """
    generate, untraced, traced = WORKLOADS[name]
    if inputs is None:
        inputs = generate(seed)
    run = Run(seed, inputs, inputs if expected is None else expected)
    try:
        spec = json.loads(SPEC.read_text())
        if trace:
            entries = spec["per_layer"]
            values = {e["name"]: 0 for e in entries}
            layers = traced(run)
            layers["cli.startup_s"] = median(run.startups, "start-up")
            unknown = set(layers) - set(values)
            if unknown:
                raise BenchError(f"layer metrics missing from BENCHMARK.json: {unknown}")
            values.update(layers)
        else:
            entries = spec["end_to_end"]
            values = untraced(run, seconds)
            values["setup_s"] = median(run.setups, "set-up")
            values["peak_rss_mib"] = max(run.rss_mib)
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                   for e in entries}
    finally:
        run.close()
    run.details.update(workload=name, seed=seed, corpora=len(inputs),
                       corpus_bytes=len(inputs[0]), setup_samples=len(run.setups),
                       failure_rate=run.failed / max(run.attempted, 1))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, run.details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="corpus seed (default: the acceptance corpus seed)")
    ap.add_argument("--seconds", type=float,
                    default=json.loads(SPEC.read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lzse" / "__init__.py").is_file():
        print(f"error: no lzse package under {SRC}", file=sys.stderr)
        return 2
    corpora.check_pinned()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    result, details = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    details.update(commit=commit(), source=source_digest(),
                   nproc=os.cpu_count(), trace=args.trace)
    for key, value in details.items():
        print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
