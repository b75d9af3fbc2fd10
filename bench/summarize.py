#!/usr/bin/env python3
"""Summarize benchmark result files across seeds.

    python3 bench/summarize.py [--workload W] [--trace 0|1]
        [--append-trajectory LABEL]

Reads `.bench_results/<workload>-seed<n>-trace<t>.json` and prints, per
workload and metric, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
inter-quartile distance as a share of the median. With
`--append-trajectory`, the summaries of the untraced and the traced runs
are appended as one point to `bench/trajectory.json`, the benchmark's
committed history.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.json"


def load(workload: str | None, trace: int) -> dict:
    """{workload: [record, ...]} of the correct runs, by seed."""
    runs = {}
    pattern = f"{workload or '*'}-seed*-trace{trace}.json"
    for path in sorted(RESULTS.glob(pattern)):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["result"]["correct"]:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def summarize(records) -> dict:
    out = {}
    for name, first in records[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in records]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) \
            if len(values) > 1 else (values[0],) * 3
        out[name] = {"unit": first["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def describe(records, summary) -> dict:
    return {
        "seeds": [r["seed"] for r in records],
        "environment": records[0]["environment"],
        "loadavg_before": [r["loadavg_before"] for r in records],
        "loadavg_after": [r["loadavg_after"] for r in records],
        "metrics": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append-trajectory", metavar="LABEL")
    args = parser.parse_args(argv)
    runs = load(args.workload, args.trace)
    if not runs:
        print("no result files", file=sys.stderr)
        return 1
    for workload, records in sorted(runs.items()):
        print(f"{workload}: {len(records)} runs, "
              f"seeds {[r['seed'] for r in records]}")
        for name, s in summarize(records).items():
            print(f"  {name:40s} median {s['median']:12.4f} {s['unit']:6s}"
                  f" q1 {s['q1']:12.4f} q3 {s['q3']:12.4f}"
                  f" spread {100 * s['spread']:6.2f}%")
    if args.append_trajectory:
        point = {"label": args.append_trajectory, "workloads": {}}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for workload, records in sorted(
                    load(args.workload, trace).items()):
                point["workloads"].setdefault(workload, {})[key] = \
                    describe(records, summarize(records))
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) \
            if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n",
                              encoding="utf-8")
        print(f"appended point {args.append_trajectory!r} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
