"""Seeded inputs and fixed job lists for the three benchmark workloads.

Every model is a truncated oscillator, C = a and F = a+a, with
gamma = 1.  Sizes are fixed; the seed only draws the bath state (n, m),
the initial states and the E blocks.  All input files are written
before anything is timed, so the program sees only files.

The bands are n in [0.25, 0.75] and |m| <= 0.5 sqrt(n(n+1)) with a
random phase.  Within them no listed oracle job crosses the ancilla
truncation threshold at its cutoff.  The evolve models draw inside the
same bands with n + |m| held fixed, so that their work does not change
with the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("reports", "dynamics", "collision")

GENERATOR_DIMS = (4, 8, 16, 24)
CONVERT_DIMS = (16, 32, 64)
SPLIT_POINTS = 4
STEADY_DIMS = (16, 24, 32)
EXPM_DIMS = (4, 8, 16, 24)
RK4_DIMS = (4, 8)
EVOLVE_T_FINAL = 5.0
EVOLVE_POINTS = 101
EVOLVE_N_PLUS_M = 0.7
ORACLE_CASES = ((2, 5), (4, 5), (4, 8), (8, 5))
ORACLE_DT_LIST = "0.04,0.02,0.01"
ORACLE_T_FINAL = 0.5
GAMMA = 1.0


@dataclass
class Job:
    """One CLI invocation plus what its output check needs to know.

    ``inputs`` are the files the program reads; ``expect`` holds the
    values the check compares against (bath state, E block, ...).
    ``pair`` names an earlier job of the same pass whose output this
    job's check compares with.
    """

    name: str
    kind: str
    argv: list
    inputs: list
    expect: dict = field(default_factory=dict)
    pair: str | None = None


def oscillator(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilator a and number operator a+a on d levels."""
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)
    return a, np.diag(np.arange(d, dtype=float)).astype(complex)


def draw_bath(rng: np.random.Generator, squeezed: bool) -> tuple[float, complex]:
    n = float(rng.uniform(0.25, 0.75))
    if not squeezed:
        return n, 0j
    radius = 0.5 * np.sqrt(n * (n + 1.0)) * rng.uniform()
    return n, complex(radius * np.exp(2j * np.pi * rng.uniform()))


def draw_bath_fixed_scale(rng: np.random.Generator) -> tuple[float, complex]:
    """A squeezed-thermal bath with n + |m| = EVOLVE_N_PLUS_M.

    The RK4 substep and the expm scaling both follow the generator scale
    gamma (2n + 1 + 2|m|) ||C||^2 + ||F||, so holding n + |m| fixed keeps
    the work of an evolve job the same for every seed.  n in [0.4, 0.7]
    stays inside both bands: |m| = 0.7 - n <= 0.5 sqrt(n(n+1)).
    """
    n = float(rng.uniform(0.4, EVOLVE_N_PLUS_M))
    radius = EVOLVE_N_PLUS_M - n
    return n, complex(radius * np.exp(2j * np.pi * rng.uniform()))


def random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d: int) -> np.ndarray:
    a = random_complex(rng, (d, d))
    return (a + a.conj().T) / (2.0 * np.sqrt(d))


def random_density(rng, d: int) -> np.ndarray:
    a = random_complex(rng, (d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_e_block(rng, d: int) -> dict:
    """A Hermitian generator quadruple with ||kappa E11|| <= 0.5."""
    e11 = random_hermitian(rng, d)
    kappa = GAMMA / 2.0
    e11 *= 0.5 * rng.uniform(0.5, 1.0) / (kappa * np.linalg.norm(e11, 2))
    e10 = random_complex(rng, (d, d)) / np.sqrt(2.0 * d)
    return {
        "c00": random_hermitian(rng, d),
        "c01": e10.conj().T,
        "c10": e10,
        "c11": e11,
    }


def dump_cmatrix(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def model_dict(d: int, n: float, m: complex) -> dict:
    c, f = oscillator(d)
    return {
        "dim": d,
        "gamma": GAMMA,
        "n": n,
        "m_re": m.real,
        "m_im": m.imag,
        "C": dump_cmatrix(c),
        "F": dump_cmatrix(f),
    }


def _write_json(path: str, tree) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree, fh)
    return path


class _Builder:
    def __init__(self, workdir: str, seed: int, workload: str):
        # One stream per workload, so that a workload's inputs do not
        # depend on which other workloads exist.
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.workdir = workdir
        self.jobs: list[Job] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def model(self, name: str, d: int, bath: tuple, extra: dict | None = None):
        n, m = bath
        tree = model_dict(d, n, m)
        tree.update(extra or {})
        return _write_json(self.path(name + ".json"), tree), n, m

    def rho0(self, name: str, d: int):
        rho = random_density(self.rng, d)
        return _write_json(self.path(name + ".rho0.json"), {"rho": dump_cmatrix(rho)}), rho

    def add(self, job: Job):
        self.jobs.append(job)


def build_reports(b: _Builder):
    for d in GENERATOR_DIMS:
        path, n, m = b.model(f"gen{d}", d, draw_bath(b.rng, squeezed=True))
        c, f = oscillator(d)
        b.add(Job(f"generator/d{d}", "generator", ["generator", "--model", path], [path],
                  {"dim": d, "n": n, "m": m, "C": c, "F": f}))
    for d in CONVERT_DIMS:
        e = random_e_block(b.rng, d)
        path, n, m = b.model(f"conv{d}", d, draw_bath(b.rng, squeezed=True),
                             extra={"E": {k: dump_cmatrix(v) for k, v in e.items()}})
        normal = b.path(f"conv{d}.normal.json")
        b.add(Job(f"convert-normal/d{d}", "convert-normal",
                  ["convert", "--model", path, "--direction", "to-normal"], [path],
                  {"dim": d, "E": e}))
        # The to-time job reads what to-normal wrote; prepare_chained
        # writes that file before timing.
        b.add(Job(f"convert-time/d{d}", "convert-time",
                  ["convert", "--model", normal, "--direction", "to-time"], [normal],
                  {"dim": d, "E": e}, pair=f"convert-normal/d{d}"))
    for k in range(SPLIT_POINTS):
        n, m = draw_bath(b.rng, squeezed=True)
        argv = ["split", "--n", repr(n), "--m-re", repr(m.real), "--m-im", repr(m.imag)]
        b.add(Job(f"split/{k}", "split", argv, [], {"n": n, "m": m}))


def build_dynamics(b: _Builder):
    for d in STEADY_DIMS:
        path, n, m = b.model(f"steady{d}", d, draw_bath(b.rng, squeezed=False))
        b.add(Job(f"steady/d{d}", "steady", ["steady", "--model", path], [path],
                  {"dim": d, "n": n}))
    models = {}
    for d in EXPM_DIMS:
        path, n, m = b.model(f"evolve{d}", d, draw_bath_fixed_scale(b.rng))
        rho_path, rho = b.rho0(f"evolve{d}", d)
        models[d] = (path, rho_path, rho)
    for method, dims in (("expm", EXPM_DIMS), ("rk4", RK4_DIMS)):
        for d in dims:
            path, rho_path, rho = models[d]
            argv = ["evolve", "--model", path, "--rho0", rho_path,
                    "--t-final", repr(EVOLVE_T_FINAL), "--points", str(EVOLVE_POINTS),
                    "--method", method]
            pair = f"evolve-expm/d{d}" if method == "rk4" else None
            b.add(Job(f"evolve-{method}/d{d}", "evolve", argv, [path, rho_path],
                      {"dim": d, "rho0": rho}, pair=pair))


def build_collision(b: _Builder):
    for squeezed in (False, True):
        bath = "squeezed" if squeezed else "thermal"
        for d, cutoff in ORACLE_CASES:
            path, n, m = b.model(f"oracle{d}c{cutoff}{bath}", d, draw_bath(b.rng, squeezed))
            argv = ["oracle", "--model", path, "--t-final", repr(ORACLE_T_FINAL),
                    "--dt-list", ORACLE_DT_LIST, "--cutoff", str(cutoff)]
            b.add(Job(f"oracle-{bath}/d{d}c{cutoff}", "oracle", argv, [path],
                      {"dim": d, "dts": [float(s) for s in ORACLE_DT_LIST.split(",")]}))


BUILDERS = {"reports": build_reports, "dynamics": build_dynamics, "collision": build_collision}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's input files into workdir and return its jobs.

    The jobs run in list order; the first one is the set-up job.
    Jobs whose input is another job's output still need
    ``prepare_chained`` before they can run.
    """
    b = _Builder(workdir, seed, workload)
    BUILDERS[workload](b)
    return b.jobs


def prepare_chained(jobs: list[Job], run) -> None:
    """Write the inputs that chained jobs read, using ``run(job) -> stdout``."""
    by_name = {job.name: job for job in jobs}
    for job in jobs:
        if job.kind == "convert-time":
            text = run(by_name[job.pair])
            with open(job.inputs[0], "w", encoding="utf-8") as fh:
                fh.write(text)
