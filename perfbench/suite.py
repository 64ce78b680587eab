"""Run every workload, each in a fresh interpreter, and print the metrics.

Usage:
    python3 perfbench/suite.py                       # all workloads, untraced and traced
    python3 perfbench/suite.py --workloads collision --seeds 1,2,3,4,5 --trace 0
    python3 perfbench/suite.py --out perfbench/baseline.json

Each run measures for ``run_seconds`` of BENCHMARK.json.  For each
workload it prints the end-to-end metrics (with failed_frac,
the share of attempted jobs that failed) and, from the traced run, the
per-layer metrics and the tracing overhead: traced wall_s over untraced
wall_s.  With several seeds it prints each metric's median and its
spread, the distance between the first and third quartile over the
median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 600


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    document = json.loads(lines[-2])
    document["result_line"] = json.loads(lines[-1])
    return document


def spread(values: list) -> float | None:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(docs: list) -> dict:
    """Median and spread over seeds of every metric, plus failed_frac."""
    names = list(docs[0]["metrics"])
    out = {}
    for name in names + ["failed_frac"]:
        if name == "failed_frac":
            values, unit = [d["failed_frac"] for d in docs], "ratio"
        else:
            values = [d["metrics"][name]["value"] for d in docs]
            unit = docs[0]["metrics"][name]["unit"]
        out[name] = {"median": statistics.median(values), "spread": spread(values),
                     "unit": unit, "values": values}
    return out


def print_table(title: str, summary: dict, runs: int) -> None:
    print(f"\n== {title} ({runs} run{'s' * (runs > 1)})")
    for name, row in summary.items():
        spread_text = "" if row["spread"] is None else f"   spread {100 * row['spread']:.1f}%"
        print(f"  {name:40s} {row['median']:14.6g} {row['unit']:6s}{spread_text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="reports,dynamics,collision")
    parser.add_argument("--seeds", default="1", help="comma separated seeds")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", default=None, help="write every run document and summary here")
    args = parser.parse_args(argv)
    seconds = run_seconds()
    seeds = [int(s) for s in args.seeds.split(",")]
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = report["workloads"][workload] = {}
        for trace in modes:
            docs = [run_one(workload, seed, seconds, trace) for seed in seeds]
            summary = summarize(docs)
            kind = "per_layer" if trace else "end_to_end"
            entry[kind] = {"summary": summary, "runs": docs}
            print_table(f"{workload} {kind.replace('_', '-')}", summary, len(docs))
        if len(modes) == 2:
            traced = entry["per_layer"]["summary"]["trace.wall_s"]["median"]
            plain = entry["end_to_end"]["summary"]["wall_s"]["median"]
            entry["trace_overhead"] = traced / plain
            print(f"  tracing overhead: traced wall_s {traced:.4g} s / untraced {plain:.4g} s"
                  f" = {traced / plain:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(hoist_machine_facts(report), fh, separators=(",", ":"))
    return 0


def hoist_machine_facts(report: dict) -> dict:
    """Keep the machine facts once at the top; each run keeps its load average."""
    for entry in report["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            for doc in entry.get(kind, {}).get("runs", []):
                report.setdefault("machine", doc["machine"])
                del doc["machine"]
    return report


def run_seconds() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return int(json.load(fh)["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
