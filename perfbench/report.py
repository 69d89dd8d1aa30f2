#!/usr/bin/env python3
"""Every benchmark number for one seed, as tables.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload it makes one untraced run and one traced run (the same
runs ``run.py`` makes) and prints: the end-to-end metrics by name, unit,
direction and bound; the per-command details behind them; the per-layer
table of the traced runs; and per workload how much of the untraced
end-to-end time the traced layer times cover, with the difference.
"""

from __future__ import annotations

import argparse
import json

import run

# The layer times that make up each workload's end-to-end time, with the
# number of times each layer runs in it, and the untraced figures they are
# compared with.  query-block's CLI round starts three interpreters and
# deserializes three times, builds the index for access and extract, decodes
# for decompress, and extracts EXTRACT_LEN symbols; its set-up does it once.
COVERAGE = {
    "build-block": ({"cli.startup_s": 1, "text.load_s": 1, "suffixindex.build_s": 1,
                     "greedy.parse_s": 1, "archive.serialize_s": 1},
                    ("cli_compress_s",)),
    "query-block": ({"cli.startup_s": 4, "archive.deserialize_s": 4,
                     "access.index_build_s": 3, "factorization.decode_s": 1,
                     "access.extract_us_per_sym": run.EXTRACT_LEN / 1e6},
                    ("setup_s", "cli_decompress_s", "cli_access_s", "cli_extract_s")),
    "stats-zipf": ({"cli.startup_s": 1, "text.load_s": 1, "suffixindex.build_s": 1,
                    "grammar.repair_s": 1, "baselines.lz77_s": 1, "baselines.lzss_s": 1,
                    "greedy.parse_s": 1, "grammar.to_lzse_s": 1, "baselines.h0_s": 1},
                   ("cli_stats_s",)),
}


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}" if abs(v) < 1e5 else f"{v:.0f}"
    return str(v)


def table(rows: list[list[str]]) -> None:
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def main(argv=None) -> int:
    spec = json.loads(run.SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    names = list(run.WORKLOADS)
    plain, traced = {}, {}
    for name in names:
        plain[name] = run.run_workload(name, args.seed, args.seconds, False)
        traced[name] = run.run_workload(name, args.seed, args.seconds, True)

    print(f"# seed {args.seed}, {args.seconds:g} s per run; commit {run.commit()}, "
          f"source {run.source_digest()}; details: python "
          f"{plain[names[0]][1].get('python')}, numpy {plain[names[0]][1].get('numpy')}")
    print("\n## End-to-end metrics (untraced)\n")
    rows = [["metric", "unit", "better", "bound", *names]]
    for e in spec["end_to_end"]:
        rows.append([e["name"], e["unit"], e["better"], f"{e['bound']:.0%}",
                     *(fmt(values(plain[w][0])[e["name"]]) for w in names)])
    rows.append(["failure_rate", "1", "lower", "-",
                 *(f"{plain[w][0]['failed']}/{plain[w][0]['attempted']}" for w in names)])
    table(rows)

    print("\n## Details (untraced)\n")
    for w in names:
        print(f"{w}: " + ", ".join(f"{k}={fmt(v)}" for k, v in plain[w][1].items()
                                   if k not in ("workload", "python", "numpy")))

    print("\n## Per-layer metrics (traced)\n")
    rows = [["layer metric", "unit", *names]]
    for e in spec["per_layer"]:
        rows.append([e["name"], e["unit"],
                     *(fmt(values(traced[w][0])[e["name"]]) for w in names)])
    rows.append(["failure_rate", "1",
                 *(f"{traced[w][0]['failed']}/{traced[w][0]['attempted']}" for w in names)])
    table(rows)

    print("\n## Trace coverage of the untraced end-to-end time\n")
    rows = [["workload", "untraced s", "traced layers s", "coverage",
             "traced - untraced s"]]
    for w in names:
        weights, untraced_keys = COVERAGE[w]
        layer = values(traced[w][0])
        known = {**values(plain[w][0]), **plain[w][1]}
        untraced = sum(known[k] for k in untraced_keys)
        covered = sum(layer[k] * times for k, times in weights.items())
        rows.append([w, fmt(untraced), fmt(covered), f"{covered / untraced:.1%}",
                     fmt(covered - untraced)])
    table(rows)
    print("\nA negative difference is time no layer accounts for; a positive one "
          "is tracing overhead (the traced run times each layer in a process "
          "that also holds the other layers' data).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
