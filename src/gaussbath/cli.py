"""Command line front end.

Subcommands
-----------
convert    rewrite a coefficient quadruple between orderings
generator  effective Hamiltonian, Kossakowski matrix, Liouvillian
evolve     propagate an initial state, writing a CSV time series
steady     stationary state report
oracle     collision-model convergence table (CSV)
split      doubled-vacuum split coefficients for scalar (n, m)

Model files are JSON; complex scalars appear as [re, im] pairs and
complex matrices as nested lists of such pairs (see
schemas/model.schema.json).  Every matrix crosses this boundary in one
numpy conversion each way: ``_parse_cmatrix`` accepts only a
dim x dim x 2 array of finite numbers, and ``_pairs`` writes any
complex scalar or array back as pairs.  Reports are JSON trees on the
same convention; time series are CSV.  Initial states are only decoded
here; the library checks them where they enter.  Exit codes: 0
success, 2 validation failure, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .collision import convergence_study
from .doubling import scalar_split, split_residuals
from .errors import FormatError, GaussBathError
from .lindblad import (
    SystemModel,
    evolve,
    gks_decompose,
    schrodinger_liouvillian,
    steady_state,
)
from .linalg import DEFAULT_TOL, adjoint, vectorize
from .noise import NoiseParams, unitarity_defect
from .wick import NORMAL_ORDERED, TIME_ORDERED, ItoCoefficients, normal_to_time, time_to_normal

BLOCK_KEYS = ("c00", "c01", "c10", "c11")


# ---------------------------------------------------------------- parsing

def _parse_cmatrix(obj, dim: int, where: str) -> np.ndarray:
    """A dim x dim complex matrix from nested [re, im] pairs of finite numbers."""
    try:
        a = np.asarray(obj)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.shape != (dim, dim, 2):
        raise FormatError(f"field '{where}': expected {dim} rows of {dim} [re, im] pairs")
    if not np.issubdtype(a.dtype, np.number) or not np.all(np.isfinite(a)):
        raise FormatError(f"field '{where}': entries must be finite numbers")
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _require(raw: dict, key: str, kind, where: str):
    if key not in raw:
        raise FormatError(f"field '{where}': missing")
    value = raw[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise FormatError(f"field '{where}': expected {kind.__name__}")


def _optional_float(raw: dict, key: str, default: float = 0.0) -> float:
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise FormatError(f"field '{key}': expected a number")


def _load_json(path: str):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity literals."""

    def reject(constant):
        raise FormatError(f"{path}: non-finite number {constant} is not allowed")

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_model_dict(path: str) -> dict:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return raw


def model_from_dict(raw: dict) -> SystemModel:
    dim = _require(raw, "dim", int, "dim")
    if dim < 1:
        raise FormatError("field 'dim': must be a positive integer")
    gamma = _require(raw, "gamma", float, "gamma")
    noise = NoiseParams(
        gamma=gamma,
        sigma=_optional_float(raw, "sigma"),
        n=_optional_float(raw, "n"),
        m=complex(_optional_float(raw, "m_re"), _optional_float(raw, "m_im")),
        alpha=complex(_optional_float(raw, "alpha_re"), _optional_float(raw, "alpha_im")),
    )
    c = _parse_cmatrix(_require(raw, "C", list, "C"), dim, "C")
    f = _parse_cmatrix(_require(raw, "F", list, "F"), dim, "F")
    return SystemModel(C=c, F=f, noise=noise)


def block_from_dict(raw: dict, name: str, dim: int, kind: str) -> ItoCoefficients:
    if name not in raw or not isinstance(raw[name], dict):
        raise FormatError(f"field '{name}': missing coefficient block")
    block = raw[name]
    mats = {}
    for key in BLOCK_KEYS:
        if key not in block:
            raise FormatError(f"field '{name}.{key}': missing")
        mats[key] = _parse_cmatrix(block[key], dim, f"{name}.{key}")
    return ItoCoefficients(kind, mats["c00"], mats["c01"], mats["c10"], mats["c11"])


def load_density_matrix(path: str, dim: int) -> np.ndarray:
    raw = _load_json(path)
    payload = raw.get("rho") if isinstance(raw, dict) else raw
    return _parse_cmatrix(payload, dim, "rho")


# ---------------------------------------------------------------- dumping

def _pairs(a) -> list:
    """A complex scalar or array as (nested lists of) [re, im] pairs."""
    return np.stack([np.real(a), np.imag(a)], -1).astype(float).tolist()


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_report(tree: dict, out: str | None) -> None:
    _write_text(json.dumps(tree, indent=2), out)


# ---------------------------------------------------------------- commands

def cmd_convert(args) -> int:
    raw = load_model_dict(args.model)
    model = model_from_dict(raw)
    params = model.noise
    dim = model.dim
    report = dict(raw)
    if args.direction == "to-normal":
        e = block_from_dict(raw, "E", dim, TIME_ORDERED)
        l = time_to_normal(e, params)
        report["L"] = {key: _pairs(getattr(l, key)) for key in BLOCK_KEYS}
        report["report"] = {
            "direction": "to-normal",
            "unitarity_defect": unitarity_defect(l, params.gamma),
            "hermitian_generator_input": e.hermitian_generator(),
        }
    else:
        l = block_from_dict(raw, "L", dim, NORMAL_ORDERED)
        e = normal_to_time(l, params)
        report["E"] = {key: _pairs(getattr(e, key)) for key in BLOCK_KEYS}
        report["report"] = {"direction": "to-time"}
    _write_report(report, args.out)
    return 0


def cmd_generator(args) -> int:
    model = model_from_dict(load_model_dict(args.model))
    form = gks_decompose(model)
    heis = form.heisenberg_matrix()
    report = {
        "dim": model.dim,
        "h_eff": _pairs(form.h_eff),
        "jump_basis": ["C", "C_dagger"],
        "kossakowski": _pairs(form.kossakowski),
        "kossakowski_eigenvalues": form.kossakowski_eigenvalues().tolist(),
        "completely_positive": form.is_cp(DEFAULT_TOL),
        "liouvillian": _pairs(adjoint(heis)),
        "heisenberg": _pairs(heis),
    }
    _write_report(report, args.out)
    return 0


def cmd_evolve(args) -> int:
    model = model_from_dict(load_model_dict(args.model))
    rho0 = load_density_matrix(args.rho0, model.dim)
    if args.t_final <= 0:
        raise FormatError("--t-final must be positive")
    if args.points < 2:
        raise FormatError("--points must be at least 2")
    grid = np.linspace(0.0, args.t_final, args.points)
    states = evolve(model, rho0, grid, method=args.method)
    d = model.dim
    header = ["t"] + [f"rho_{i}_{j}_{part}" for j in range(d) for i in range(d)
                      for part in ("re", "im")]
    header += [f"pop_{k}" for k in range(d)] + ["purity"]
    # Row k: t, vec(rho) as interleaved (re, im), populations, purity.
    vecs = np.ascontiguousarray(states.transpose(0, 2, 1)).reshape(grid.size, -1).view(float)
    table = np.column_stack([
        grid,
        vecs,
        np.diagonal(states, axis1=1, axis2=2).real,
        np.trace(states @ states, axis1=1, axis2=2).real,
    ])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{x:.12g}" for x in row] for row in table.tolist())
    _write_text(buf.getvalue(), args.out)
    return 0


def cmd_steady(args) -> int:
    model = model_from_dict(load_model_dict(args.model))
    rho = steady_state(model)
    liouv = schrodinger_liouvillian(model)
    report = {
        "dim": model.dim,
        "rho": _pairs(rho),
        "populations": rho.diagonal().real.tolist(),
        "eigenvalues": np.linalg.eigvalsh(rho).tolist(),
        "trace": _pairs(np.trace(rho)),
        "liouvillian_residual": float(np.linalg.norm(liouv @ vectorize(rho))),
    }
    _write_report(report, args.out)
    return 0


def cmd_oracle(args) -> int:
    model = model_from_dict(load_model_dict(args.model))
    if args.rho0 is not None:
        rho0 = load_density_matrix(args.rho0, model.dim)
    else:
        rho0 = np.eye(model.dim, dtype=complex) / model.dim
    try:
        dts = [float(s) for s in args.dt_list.split(",") if s.strip()]
    except ValueError as exc:
        raise FormatError("--dt-list must be a comma separated list of numbers") from exc
    result = convergence_study(model, rho0, args.t_final, dts, args.cutoff)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["dt", "max_trace_distance", "order_vs_prev", "fitted_order", "monotone"]
    )
    prev = None
    for dt, err in zip(result.dts, result.errors):
        if prev is None or err == 0:
            order = ""
        else:
            order = f"{np.log(prev[1] / err) / np.log(prev[0] / dt):.6g}"
        writer.writerow(
            [f"{dt:.12g}", f"{err:.12g}", order,
             f"{result.fitted_order:.6g}", str(result.monotone).lower()]
        )
        prev = (dt, err)
    _write_text(buf.getvalue(), args.out)
    return 0


def cmd_split(args) -> int:
    m = complex(args.m_re, args.m_im)
    s = scalar_split(args.n, m)
    res = split_residuals(args.n, m, s)
    report = {
        "n": args.n,
        "m": _pairs(m),
        "x": s.x,
        "y": s.y,
        "z": _pairs(s.z),
        "residuals": {key: float(val) for key, val in res.items()},
    }
    _write_report(report, args.out)
    return 0


# ---------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussbath",
        description="Gaussian-bath quantum noise engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("convert", help="convert between orderings")
    common(p)
    p.add_argument(
        "--direction", choices=["to-normal", "to-time"], default="to-normal",
        help="to-normal reads block E, to-time reads block L",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("generator", help="Kossakowski form and Liouvillian")
    common(p)
    p.set_defaults(func=cmd_generator)

    p = sub.add_parser("evolve", help="propagate an initial state (CSV)")
    common(p)
    p.add_argument("--rho0", required=True, help="initial density matrix JSON file")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--method", choices=["expm", "rk4"], default="expm")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("steady", help="stationary state report")
    common(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("oracle", help="collision-model convergence table (CSV)")
    common(p)
    p.add_argument("--rho0", default=None, help="initial state (default maximally mixed)")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt-list", required=True, help="comma separated step sizes")
    p.add_argument("--cutoff", type=int, default=5)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("split", help="scalar doubled-vacuum split")
    common(p, model=False)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--m-re", type=float, default=0.0)
    p.add_argument("--m-im", type=float, default=0.0)
    p.set_defaults(func=cmd_split)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"gaussbath: i/o error: {exc}", file=sys.stderr)
        return 4
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"gaussbath: numerical error: {exc}", file=sys.stderr)
        return 3
    except (GaussBathError, ValueError) as exc:
        print(f"gaussbath: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
