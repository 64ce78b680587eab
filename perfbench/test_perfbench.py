"""Tests of the benchmark itself: seeded inputs, output checks, tracer.

Run with:  python3 -m pytest perfbench
"""

import dataclasses
import io
import json
import os
import sys
import types
import warnings

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from gaussbath import cli  # noqa: E402

# One job of every kind, smallest sizes; partners come before the jobs
# that compare against them.
SAMPLE = {
    "reports": ["generator/d4", "convert-normal/d16", "convert-time/d16", "split/0"],
    "dynamics": ["steady/d16", "evolve-expm/d4", "evolve-rk4/d4"],
    "collision": ["oracle-thermal/d2c5", "oracle-squeezed/d2c5"],
}


def sample_jobs(tmp_path, seed=3):
    jobs = []
    for workload, names in SAMPLE.items():
        workdir = tmp_path / workload
        workdir.mkdir()
        by_name = {job.name: job for job in workloads.build(workload, seed, str(workdir))}
        jobs += [by_name[name] for name in names]
    workloads.prepare_chained(jobs, lambda job: run.run_job(cli, job).stdout)
    return jobs


def read_tree(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def inputs(seed, name):
        d = tmp_path / name
        d.mkdir()
        jobs = workloads.build("dynamics", seed, str(d))
        return [(job.argv[0], read_tree(p)) for job in jobs for p in job.inputs]

    a, b, c = inputs(5, "a"), inputs(5, "b"), inputs(6, "c")
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_stay_in_their_bands(tmp_path, workload):
    for job in workloads.build(workload, 9, str(tmp_path)):
        for path in job.inputs if job.kind != "convert-time" else ():
            tree = read_tree(path)
            if "gamma" not in tree:
                continue
            n, m = tree["n"], complex(tree["m_re"], tree["m_im"])
            assert 0.25 <= n <= 0.75
            assert abs(m) <= 0.5 * np.sqrt(n * (n + 1.0)) + 1e-15
            if job.kind == "steady" or "thermal" in job.name:
                assert m == 0
        if "E" in job.expect:
            e11 = job.expect["E"]["c11"]
            assert np.allclose(e11, e11.conj().T)
            assert 0.5 * np.linalg.norm(e11, 2) <= 0.5 + 1e-12


def test_sample_jobs_pass_their_checks(tmp_path):
    jobs = sample_jobs(tmp_path)
    runner = run.Runner(cli, jobs)
    runner.run_pass(0)
    assert runner.failures == []
    assert runner.attempted == len(jobs)


def corrupt(job, text):
    """Change one number the job's check must notice."""
    if job.kind in ("evolve", "oracle"):
        lines = text.splitlines()
        header = lines[0].split(",")
        row = lines[-1].split(",")
        col = header.index("pop_0") if job.kind == "evolve" else header.index("max_trace_distance")
        row[col] = "0.5"
        return "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    tree = json.loads(text)
    if job.kind == "generator":
        tree["liouvillian"][1][0][0] += 1e-3
    elif job.kind == "convert-normal":
        tree["L"]["c00"][0][0][0] += 1e-6
    elif job.kind == "convert-time":
        tree["E"]["c11"][0][0][1] += 1e-6
    elif job.kind == "split":
        tree["x"] += 1e-6
    elif job.kind == "steady":
        tree["populations"][0] += 1e-6
    return json.dumps(tree)


@pytest.mark.parametrize("damage", ["value", "truncated", "exit", "warning"])
def test_corrupted_output_counts_as_failed(tmp_path, damage):
    jobs = sample_jobs(tmp_path)

    def damaged_main(argv):
        real_stdout = sys.stdout
        sys.stdout = buf = io.StringIO()
        try:
            code = cli.main(argv)
        finally:
            sys.stdout = real_stdout
        job = next(j for j in jobs if j.argv == argv)
        text = buf.getvalue()
        if damage == "value":
            text = corrupt(job, text)
        elif damage == "truncated":
            text = text[: len(text) // 2]
        elif damage == "exit":
            code = 3
        else:
            warnings.warn("ancilla boundary population reached 2e-3")
        sys.stdout.write(text)
        return code

    runner = run.Runner(types.SimpleNamespace(main=damaged_main), jobs)
    runner.run_pass(0)
    assert [f["job"] for f in runner.failures] == [job.name for job in jobs]
    assert runner.attempted == len(jobs)


def test_setup_probe_output_is_checked(tmp_path):
    job = next(j for j in sample_jobs(tmp_path) if j.kind == "split")
    times, failures = run.probe_setup(job, 1)
    assert len(times) == 1 and failures == []
    wrong = dataclasses.replace(job, expect={**job.expect, "n": job.expect["n"] + 0.1})
    times, failures = run.probe_setup(wrong, 1)
    assert len(times) == 1
    assert [f["job"] for f in failures] == ["setup:" + job.name]


def test_tracer_patches_every_importer_and_restores():
    from gaussbath import collision, lindblad, linalg

    originals = (linalg.mat_exp, lindblad.evolve)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = tracer.patched_sites()
        for site in ("gaussbath.linalg.mat_exp", "gaussbath.lindblad.mat_exp",
                     "gaussbath.collision.mat_exp", "gaussbath.lindblad.evolve",
                     "gaussbath.cli.evolve", "gaussbath.collision.evolve"):
            assert site in sites
        assert collision.mat_exp is lindblad.mat_exp is linalg.mat_exp
        assert linalg.mat_exp is not originals[0]
    finally:
        tracer.uninstall()
    assert (linalg.mat_exp, lindblad.evolve, collision.evolve) == (*originals, originals[1])


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "gaussbath.linalg", ("operator_norm", "renamed_away"))
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TracerError, match="renamed_away"):
        tracer.install()
    tracer.uninstall()


def test_spans_nest_and_carry_job_ids(tmp_path):
    jobs = [j for j in sample_jobs(tmp_path) if j.kind == "oracle"][:1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner = run.Runner(cli, jobs, tracer)
        runner.run_pass(0)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
        assert span.job == (0, 0)
        assert span.start <= span.end and span.self_time <= span.duration + 1e-12
    assert all(s.parent.name == "cli.main" for s in by_name["collision.simulate"])
    assert all(s.parent.name == "collision.simulate" for s in by_name["collision.step_unitary"])
    assert by_name["cli.main"][0].parent is None
    totals = tracing.aggregate(tracer)[0]
    assert totals["collision.steps"][0] == sum(round(0.5 / dt) for dt in (0.04, 0.02, 0.01))


def test_benchmark_json_matches_the_harness():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "reports", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
