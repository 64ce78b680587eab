"""gaussbath benchmark: CLI subcommands run in-process, closed loop.

Usage:
    python3 perfbench/run.py --workload reports --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's fixed job list back to
back (a pass), each job through ``gaussbath.cli.main`` with stdout
captured, the way a sweep script waits on each command.  No threads are
started here and BLAS keeps its default thread setting.  After an
untimed warm-up pass, passes repeat while the next one should end
within ``--seconds``.
Every output is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
module's public functions (see tracer.py) and reports per-layer metrics
per pass.  Set-up time comes from fresh interpreters (probe.py), each
importing gaussbath.cli and running the workload's first job cold.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is the full result document (seed, machine facts,
per-job latencies, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from time import perf_counter
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import machine  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
MAX_LISTED_FAILURES = 20

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_gmean_ms": "ms",
    "job_max_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span name -> the per-layer fields reported for it.
LAYER_SPANS = {
    "lindblad.gks_decompose": ("ms", "calls"),
    "linalg.operator_norm": ("ms", "calls"),
    "lindblad.schrodinger_liouvillian": ("ms", "calls"),
    "lindblad.heisenberg_generator": ("ms", "calls"),
    "lindblad.steady_state": ("ms", "calls"),
    "lindblad.evolve": ("ms", "self_ms", "calls"),
    "linalg.mat_exp": ("ms", "calls"),
    "collision.simulate": ("ms", "self_ms", "calls"),
    "collision.step_unitary": ("ms", "calls"),
    "linalg.partial_trace": ("ms", "calls"),
    "collision.trace_distance": ("ms", "calls"),
    "wick.time_to_normal": ("ms",),
    "wick.normal_to_time": ("ms",),
    "noise.unitarity_defect": ("ms",),
    "doubling.scalar_split": ("ms",),
}
PARSE_SPANS = ("cli.load_model_dict", "cli.model_from_dict", "cli.block_from_dict",
               "cli.load_density_matrix")
FIELD_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count"}


def per_layer_units() -> dict:
    units = {
        "cli.emit.ms": "ms",
        "cli.parse.ms": "ms",
        "cli.in_bytes": "B",
        "cli.out_bytes": "B",
        "collision.steps": "count",
        "trace.wall_s": "s",
    }
    for name, fields in LAYER_SPANS.items():
        for f in fields:
            units[f"{name}.{f}"] = FIELD_UNITS[f]
    return units


PER_LAYER = per_layer_units()


class JobResult(NamedTuple):
    code: object  # exit code, or the traceback text of an uncaught exception
    stdout: str
    warned: list
    seconds: float


def run_job(cli, job) -> JobResult:
    """One CLI call with stdout and stderr captured; only ``main`` is timed."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed job, not a failed run
                code = "traceback: " + traceback.format_exc(limit=3)
            seconds = perf_counter() - t0
    return JobResult(code, out.getvalue(), [str(w.message) for w in caught], seconds)


class Runner:
    """Runs passes over one job list, checking every output."""

    def __init__(self, cli, jobs, tracer=None):
        self.cli = cli
        self.jobs = jobs
        self.tracer = tracer
        self.context: dict = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.passes: list[dict] = []

    def run_pass(self, index) -> None:
        """Run every job once; index None marks the untimed warm-up."""
        latencies, out_bytes = [], 0
        for k, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job = (index, k)
            result = run_job(self.cli, job)
            self.attempted += 1
            reason = checks.check(job, result.code, result.stdout, result.warned, self.context)
            if reason is not None:
                self.failures.append({"job": job.name, "pass": index, "reason": reason})
            latencies.append(result.seconds)
            out_bytes += len(result.stdout.encode())
        if index is not None:
            self.passes.append(
                {"latencies": latencies, "wall": sum(latencies), "out_bytes": out_bytes})

    def measure(self, seconds: float) -> None:
        """Warm up, then run passes while the next one should end within ``seconds``."""
        self.run_pass(None)
        start = perf_counter()
        while True:
            self.run_pass(len(self.passes))
            elapsed = perf_counter() - start
            if elapsed * (len(self.passes) + 1) / len(self.passes) > seconds:
                break


def probe_setup(first_job, count: int) -> tuple[list, list]:
    """Times of ``count`` fresh interpreters running the first job cold.

    Each probe's output goes through the job's check.  A probe that
    crashes before reporting is timed from outside, so every probe
    yields a time; a failed one is also listed as a failure.
    """
    times, failures = [], []
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), SRC, *first_job.argv]
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        outside = perf_counter() - t0
        try:
            reply = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            reply = {"seconds": outside, "stdout": "", "warned": [],
                     "code": f"probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
        times.append(reply["seconds"])
        reason = checks.check(first_job, reply["code"], reply["stdout"], reply["warned"], {})
        if reason is not None:
            failures.append({"job": "setup:" + first_job.name, "pass": None, "reason": reason})
    return times, failures


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, setup_times: list) -> dict:
    walls = [p["wall"] for p in runner.passes]
    per_job = list(zip(*(p["latencies"] for p in runner.passes)))
    medians = [statistics.median(xs) for xs in per_job]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "job_gmean_ms": 1e3 * math.exp(statistics.fmean(math.log(m) for m in medians)),
        "job_max_ms": 1e3 * statistics.median(max(p["latencies"]) for p in runner.passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(runner: Runner, in_bytes: int) -> dict:
    totals = tracing.aggregate(runner.tracer)
    rows = []
    for index, record in enumerate(runner.passes):
        spans = totals.get(index, {})

        def get(name, col):
            return spans.get(name, (0.0, 0.0, 0))[col]

        row = {
            "cli.emit.ms": get("cli.main", 1),
            "cli.parse.ms": sum(get(name, 0) for name in PARSE_SPANS),
            "cli.in_bytes": in_bytes,
            "cli.out_bytes": record["out_bytes"],
            "collision.steps": get("collision.steps", 0),
            "trace.wall_s": record["wall"],
        }
        for name, fields in LAYER_SPANS.items():
            for f in fields:
                row[f"{name}.{f}"] = get(name, {"ms": 0, "self_ms": 1, "calls": 2}[f])
        rows.append(row)
    return {name: metric(statistics.median(r[name] for r in rows), unit)
            for name, unit in PER_LAYER.items()}


def job_table(runner: Runner) -> dict:
    per_job = zip(*(p["latencies"] for p in runner.passes))
    return {job.name: {"median_ms": 1e3 * statistics.median(xs), "max_ms": 1e3 * max(xs)}
            for job, xs in zip(runner.jobs, per_job)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result document, contract line)."""
    load_start = machine.loadavg()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    tracer = None
    try:
        jobs = workloads.build(workload, seed, workdir)
        setup_times, setup_failures = [], []
        if not trace:
            setup_times, setup_failures = probe_setup(jobs[0], SETUP_PROBES)
        from gaussbath import cli

        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            traced_sites = tracer.patched_sites()
        runner = Runner(cli, jobs, tracer)
        workloads.prepare_chained(jobs, lambda job: run_job(cli, job).stdout)
        in_bytes = sum(os.path.getsize(p) for job in jobs for p in job.inputs)
        runner.measure(seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = setup_failures + runner.failures
    attempted = runner.attempted + SETUP_PROBES * (not trace)
    metrics = per_layer(runner, in_bytes) if trace else end_to_end(runner, setup_times)
    document = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(runner.passes),
        "pass_wall_s": [p["wall"] for p in runner.passes],
        "pass_latencies_ms": [[round(1e3 * x, 3) for x in p["latencies"]] for p in runner.passes],
        "setup_probes_s": setup_times,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:MAX_LISTED_FAILURES],
        "jobs": job_table(runner),
        "machine": machine.facts(),
        "loadavg": {"start": load_start, "end": machine.loadavg()},
        "metrics": metrics,
    }
    if trace:
        document["traced_functions"] = traced_sites
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}
    return document, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaussbath", "cli.py")):
        print(f"perfbench: no gaussbath sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    document, line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(document))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
