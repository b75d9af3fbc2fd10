#!/usr/bin/env python3
"""pmpdas benchmark: light-client sampling, block publication and the
churn sweep.

    python3 bench/run.py --workload {sample,publish,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`.
Everything runs single-threaded in this one process, as a closed loop with
one client. With `--trace 0` the run sets up three times (reporting the
median set-up time), measures rounds for about S seconds, checks the
program's outputs and prints the end-to-end metrics. With `--trace 1` it
runs a fixed amount of work three times, once untraced and twice traced,
prints the per-layer metrics of the first traced pass and the tracing
overhead, and fails if the exact counts of the two traced passes differ.
Times are scaled to a reference host speed (see `hostspeed.py`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A result file with an
environment stamp, and for traced runs a span file, go to
`.bench_results/`. `bench/METRICS.md` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("sample", "publish", "sweep")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # operations beyond the reported tail percentile
RAW_LIMIT = 1.5  # a measuring loop ends within this many --seconds of wall
TRACED_SWEEP_SEEDS = 40
ARM_NAMES = ("vanilla", "batched", "grouped", "pmp")
# The name each end-to-end metric has in the workload it is read on.
LOCAL_NAMES = {
    "sample": {"ops_per_s": "samples_per_s", "p50_ms": "sample_p50_ms",
               "tail_ms": "sample_tail_ms"},
    "publish": {"ops_per_s": "publish_cells_per_s", "p50_ms": "publish_p50_ms",
                "tail_ms": "publish_tail_ms"},
    "sweep": {"ops_per_s": "sweep_runs_per_s", "p50_ms": "sweep_run_p50_ms",
              "tail_ms": "sweep_run_tail_ms"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_program():
    src = ROOT / "src"
    if not (src / "pmpdas" / "__init__.py").is_file():
        raise SystemExit(f"error: the pmpdas sources are not at {src}; "
                         f"run the benchmark from a full checkout")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# Environment stamp

def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pmpdas").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Runs

def make_workload(name: str, seed: int, fixed: bool):
    import workloads  # after import_program has put src/ on the path
    if name == "sample":
        return workloads.Sample(seed)
    if name == "publish":
        return workloads.Publish(seed)
    return workloads.Sweep(seed, RESULTS,
                           TRACED_SWEEP_SEEDS if fixed else 200)


def measure(workload, seconds: int) -> dict:
    """Set up SETUP_REPEATS times, then run whole cycles of rounds while
    another cycle is expected to end within `seconds` at the reference
    host speed (so a run does about the same work on a slow host), and
    within RAW_LIMIT * `seconds` of wall time. Every time is returned raw
    and scaled to the reference host speed."""
    clock = hostspeed.ScaledClock(workload.probe_interval_s)
    setups = []
    for _ in range(SETUP_REPEATS):
        state, laps = workload.setup(clock)
        setups.append(laps)
    entries = []
    busy = []
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        for _ in range(workload.cycle):
            done, laps = workload.round(state, rounds, clock)
            entries += done
            busy += laps
            rounds += 1
        elapsed = time.perf_counter() - loop_start
        at_reference = elapsed * hostspeed.REFERENCE_PROBE_S / \
            statistics.median(clock.probes)
        growth = (rounds + workload.cycle) / rounds
        if len(entries) > TAIL_BEYOND and (
                at_reference * growth > seconds
                or elapsed * growth > RAW_LIMIT * seconds):
            break
    clock.refresh(force=True)
    extra = workload.check(state)

    def both(laps):
        return sum(lap[0] for lap in laps), sum(map(clock.scaled, laps))

    return {"setups": [both(laps) for laps in setups],
            "entries": [(arm, *both([lap]), ops)
                        for arm, lap, ops in entries],
            "busy": both(busy),
            "rounds": rounds, "elapsed": elapsed, "probes": clock.probes,
            "extra": extra}


def summary_metrics(run: dict, column: int) -> tuple:
    """End-to-end metrics from raw (column 1) or scaled (2) times, and the
    pooled tail: the time with exactly TAIL_BEYOND operations above it."""
    entries = run["entries"]
    busy = run["busy"][column - 1]
    metrics = {
        "setup_s": statistics.median(s[column - 1] for s in run["setups"]),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": sum(e[3] for e in entries) / busy,
    }
    for arm in ARM_NAMES:
        metrics["p50_ms." + arm] = 1e3 * statistics.median(
            e[column] for e in entries if e[0] == arm)
    metrics["pmp_object_bytes_per_cell"] = \
        run["extra"]["pmp_object_bytes_per_cell"]
    times = sorted(e[column] for e in entries)
    rank = len(times) - TAIL_BEYOND  # 1-based
    tail = {"tail_ms": 1e3 * times[rank - 1],
            "percentile": 100.0 * rank / len(times), "count": len(times)}
    return metrics, tail


def end_to_end(run: dict) -> tuple:
    metrics, tail = summary_metrics(run, 2)
    raw_metrics, raw_tail = summary_metrics(run, 1)
    probes = run["probes"]
    details = {
        "rounds": run["rounds"],
        "measured_s": run["elapsed"],
        "tail": tail,
        "per_arm_operations": {arm: sum(1 for e in run["entries"]
                                        if e[0] == arm)
                               for arm in ARM_NAMES},
        "host_probe_ms": {"reference": 1e3 * hostspeed.REFERENCE_PROBE_S,
                          "count": len(probes),
                          "median": 1e3 * statistics.median(probes),
                          "min": 1e3 * min(probes),
                          "max": 1e3 * max(probes)},
        "raw": {**raw_metrics, "tail_ms": raw_tail["tail_ms"],
                "setup_samples_s": [s[0] for s in run["setups"]]},
        "checks": {k: v for k, v in run["extra"].items()
                   if k != "pmp_object_bytes_per_cell"},
    }
    return metrics, details


def fixed_pass(workload, tracer=None) -> dict:
    """Set up once, run the workload's fixed traced round count, check.
    Returns the times of the set-up steps and the timed operations,
    scaled to the reference host speed, and the operation count."""
    clock = hostspeed.ScaledClock(workload.probe_interval_s)
    state, laps = workload.setup(clock)
    ops = 0
    for i in range(workload.traced_rounds):
        if tracer is not None:
            tracer.round = f"round-{i}"
        done, busy = workload.round(state, i, clock)
        laps += busy
        ops += sum(n for _, _, n in done)
    if tracer is not None:
        tracer.round = "check"
    workload.check(state)
    clock.refresh(force=True)
    return {"laps": [clock.scaled(lap) for lap in laps], "ops": ops}


def traced(name: str, seed: int) -> tuple:
    import tracing
    import workloads
    untraced = fixed_pass(make_workload(name, seed, True))
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = fixed_pass(make_workload(name, seed, True), tracer)
        finally:
            tracer.uninstall()
        passes.append((result, tracer))
    (first, tracer), (second, tracer2) = passes
    metrics = tracer.summarize()
    counts = tracing.exact_counts(metrics)
    counts2 = tracing.exact_counts(tracer2.summarize())
    differing = sorted(k for k in counts if counts[k] != counts2[k])
    if differing:
        raise workloads.BenchFailure(
            "exact per-layer counts differ between two traced runs: "
            + ", ".join(f"{k} {counts[k]} vs {counts2[k]}"
                        for k in differing))
    # The same steps ran in every pass: the median of their traced to
    # untraced time ratios resists the host's swings better than the
    # ratio of the pass totals.
    ratio = statistics.median(
        (a + b) / (2 * u) for u, a, b in zip(
            untraced["laps"], first["laps"], second["laps"]))
    untraced_s = sum(untraced["laps"])
    metrics["trace.overhead_ms"] = 1e3 * untraced_s * (ratio - 1)
    metrics["trace.overhead_pct"] = 100.0 * (ratio - 1)
    metrics["trace.spans"] = len(tracer.spans)
    details = {
        "untraced_s": untraced_s,
        "traced_s": [sum(first["laps"]), sum(second["laps"])],
        "operations": first["ops"],
        "spans_file": f"spans-{name}-seed{seed}.jsonl",
    }
    with open(RESULTS / details["spans_file"], "w", encoding="utf-8") as fh:
        for record in tracer.span_records():
            fh.write(json.dumps(record) + "\n")
    return metrics, details, first["ops"] * 3


# ---------------------------------------------------------------------------
# Reporting

def declared_units(trace: int) -> dict:
    """{metric: unit} that BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def local_name(workload: str, name: str) -> str:
    names = LOCAL_NAMES[workload]
    if name.startswith("p50_ms."):
        return names["p50_ms"] + name[len("p50_ms"):]
    return names.get(name, name)


def report(workload, result, details, trace):
    for name, metric in result["metrics"].items():
        shown = name if trace else local_name(workload, name)
        line = f"{shown:42s} {metric['value']:14.4f} {metric['unit']}"
        print(line + (f"   ({name})" if shown != name else ""))
    if not trace:
        tail = details["tail"]
        print(f"{local_name(workload, 'tail_ms'):42s} {tail['tail_ms']:14.4f}"
              f" ms   p{tail['percentile']:.1f} of {tail['count']} "
              f"operations, all arms")
    print(f"{'error_rate':42s} "
          f"{result['failed'] / result['attempted']:14.4f} ratio   "
          f"({result['failed']} of {result['attempted']} operations)")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    os.environ.pop("PMP_SEED", None)  # the ablation command reads it
    RESULTS.mkdir(exist_ok=True)
    import workloads

    units = declared_units(args.trace)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "loadavg_before": os.getloadavg()}
    attempted = 1
    try:
        if args.trace:
            metrics, details, attempted = traced(args.workload, args.seed)
        else:
            run = measure(make_workload(args.workload, args.seed, False),
                          args.seconds)
            attempted = sum(e[3] for e in run["entries"])
            metrics, details = end_to_end(run)
        if set(metrics) != set(units):
            raise RuntimeError("metrics differ from BENCHMARK.json: "
                               f"{sorted(set(metrics) ^ set(units))}")
        result = {"correct": True, "attempted": attempted, "failed": 0,
                  "metrics": {k: {"value": metrics[k], "unit": u}
                              for k, u in units.items()}}
    except workloads.BenchFailure as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        details = {"failure": str(exc)}
        result = {"correct": False, "attempted": attempted, "failed": 1,
                  "metrics": {}}
    except Exception as exc:  # a program error fails the run, not the harness
        traceback.print_exc()
        details = {"failure": repr(exc)}
        result = {"correct": False, "attempted": attempted, "failed": 1,
                  "metrics": {}}
    record["loadavg_after"] = os.getloadavg()
    record["details"] = details
    record["result"] = result
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if result["correct"]:
        print(f"workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}; results in {out.relative_to(ROOT)}")
        report(args.workload, result, details, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
