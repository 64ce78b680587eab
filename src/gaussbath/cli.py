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
dim x dim x 2 array of finite numbers, and ``_report_json`` writes a
report tree as compact JSON.  Report trees hold complex scalars and
arrays themselves; ``_pairs_json`` writes each one straight from numpy
as pairs, formatting every distinct entry once, and every other leaf
goes through ``json.dumps``.  A non-finite value anywhere in a report
raises OverflowError naming its field, so no report holds NaN or
Infinity.  Time series are CSV from one writer, ``_write_csv``: a
header and pre-formatted lines joined with commas, each ended with
CRLF, which is what csv.writer writes for cells that need no quoting.
Initial states are only decoded here; the library checks them where
they enter.  Exit codes: 0 success, 2 validation failure, 3 numerical
failure or out of memory, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .collision import convergence_study
from .doubling import scalar_split, split_residuals
from .errors import FormatError, GaussBathError
from .lindblad import SystemModel, evolve, gks_decompose, steady_state
from .linalg import DEFAULT_TOL, adjoint, require_dense, require_finite_result, vectorize
from .noise import BLOCK_KEYS, NoiseParams, unitarity_defect
from .wick import NORMAL_ORDERED, TIME_ORDERED, ItoCoefficients, normal_to_time, time_to_normal


# ---------------------------------------------------------------- parsing

def _parse_cmatrix(obj, dim: int, where: str) -> np.ndarray:
    """A dim x dim complex matrix from nested [re, im] pairs of finite numbers."""
    try:
        a = np.asarray(obj)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.shape != (dim, dim, 2):
        raise FormatError(f"field '{where}': expected {dim} rows of {dim} [re, im] pairs")
    # numpy reads a JSON bool mixed in with numbers as 0 or 1; reject it too.
    if (not np.issubdtype(a.dtype, np.number) or not np.all(np.isfinite(a))
            or any(isinstance(x, bool) for row in obj for pair in row for x in pair)):
        raise FormatError(f"field '{where}': entries must be finite numbers")
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _require(raw: dict, key: str, kind):
    if key not in raw:
        raise FormatError(f"field '{key}': missing")
    value = raw[key]
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise FormatError(f"field '{key}': expected {kind.__name__}")


def _number(raw: dict, key: str, default: float | None = None) -> float:
    """A JSON number field as a float; a field without a default is required."""
    if key not in raw:
        if default is None:
            raise FormatError(f"field '{key}': missing")
        return default
    value = raw[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FormatError(f"field '{key}': expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        raise FormatError(f"field '{key}': number is too large") from None


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
    dim = _require(raw, "dim", int)
    if dim < 1:
        raise FormatError("field 'dim': must be a positive integer")
    noise = NoiseParams(
        gamma=_number(raw, "gamma"),
        sigma=_number(raw, "sigma", 0.0),
        n=_number(raw, "n", 0.0),
        m=complex(_number(raw, "m_re", 0.0), _number(raw, "m_im", 0.0)),
        alpha=complex(_number(raw, "alpha_re", 0.0), _number(raw, "alpha_im", 0.0)),
    )
    c = _parse_cmatrix(_require(raw, "C", list), dim, "C")
    f = _parse_cmatrix(_require(raw, "F", list), dim, "F")
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
    payload = _require(raw, "rho", list) if isinstance(raw, dict) else raw
    return _parse_cmatrix(payload, dim, "rho")


# ---------------------------------------------------------------- dumping

def _pairs_json(a, where: str = "value") -> str:
    """A complex scalar or array as compact JSON (nested lists of) [re, im] pairs.

    Each distinct (re, im) bit pattern is formatted once, by float repr as
    json.dumps does; the bit patterns keep -0.0 apart from 0.0.  They are
    grouped by a two-key sort of their uint64 halves, which numpy sorts far
    faster than 16-byte void items.
    """
    a = require_finite_result(np.asarray(a, dtype=complex), f"report field '{where}'")
    bits = np.ascontiguousarray(a.reshape(-1)).view(np.uint64).reshape(-1, 2)
    order = np.lexsort((bits[:, 1], bits[:, 0]))
    ranked = bits[order]
    first = np.ones(len(ranked), dtype=bool)  # where a run of equal patterns starts
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    index = np.empty(len(ranked), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    distinct = ranked[first].view(complex).ravel()
    text = np.array([f"[{z.real!r},{z.imag!r}]" for z in distinct.tolist()], dtype=object)
    cells = text[index].reshape(a.shape)
    while cells.ndim:  # join the last axis into rows until one string is left
        rows = cells.reshape(-1, cells.shape[-1]).tolist()
        cells = np.array(["[" + ",".join(row) + "]" for row in rows],
                         dtype=object).reshape(cells.shape[:-1])
    return cells.item()


def _report_json(tree, where: str = "") -> str:
    """A report tree as compact JSON: complex values as pairs, other leaves by json.dumps."""
    if isinstance(tree, dict):
        return "{" + ",".join(
            json.dumps(key) + ":" + _report_json(value, f"{where}.{key}" if where else key)
            for key, value in tree.items()
        ) + "}"
    if isinstance(tree, (complex, np.ndarray)):  # np.complex128 subclasses complex
        return _pairs_json(tree, where)
    try:
        return json.dumps(tree, separators=(",", ":"), allow_nan=False)
    except ValueError:  # NaN or Infinity in a float leaf
        raise OverflowError(f"report field '{where}' is not finite") from None


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_report(tree: dict, out: str | None) -> None:
    _write_text(_report_json(tree), out)


def _write_csv(header: list, lines: list, out: str | None) -> None:
    """A CSV table from a header and pre-formatted lines, as csv.writer writes plain cells."""
    _write_text("\r\n".join([",".join(header), *lines, ""]), out)


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
        report["L"] = {key: getattr(l, key) for key in BLOCK_KEYS}
        report["report"] = {
            "direction": "to-normal",
            "unitarity_defect": unitarity_defect(l, params.gamma),
            "hermitian_generator_input": e.hermitian_generator(),
        }
    else:
        l = block_from_dict(raw, "L", dim, NORMAL_ORDERED)
        e = normal_to_time(l, params)
        report["E"] = {key: getattr(e, key) for key in BLOCK_KEYS}
        report["report"] = {"direction": "to-time"}
    _write_report(report, args.out)
    return 0


def cmd_generator(args) -> int:
    model = model_from_dict(load_model_dict(args.model))
    form = gks_decompose(model)
    heis = form.heisenberg_matrix()
    report = {
        "dim": model.dim,
        "h_eff": form.h_eff,
        "jump_basis": ["C", "C_dagger"],
        "kossakowski": form.kossakowski,
        "kossakowski_eigenvalues": form.kossakowski_eigenvalues().tolist(),
        "completely_positive": form.is_cp(DEFAULT_TOL),
        "liouvillian": adjoint(heis),
        "heisenberg": heis,
    }
    _write_report(report, args.out)
    return 0


def cmd_evolve(args) -> int:
    model = model_from_dict(load_model_dict(args.model))
    rho0 = load_density_matrix(args.rho0, model.dim)
    if not 0 < args.t_final < np.inf:
        raise FormatError("--t-final must be positive and finite")
    if args.points < 2:
        raise FormatError("--points must be at least 2")
    d = model.dim
    require_dense(args.points * d * d, f"--points {args.points} at d = {d}", "points * d^2")
    grid = np.linspace(0.0, args.t_final, args.points)
    states = evolve(model, rho0, grid, method=args.method)
    header = ["t"] + [f"rho_{i}_{j}_{part}" for j in range(d) for i in range(d)
                      for part in ("re", "im")]
    header += [f"pop_{k}" for k in range(d)] + ["purity"]
    # Row k: t, vec(rho) as interleaved (re, im), populations, purity.
    table = np.column_stack([
        grid,
        np.ascontiguousarray(vectorize(states)).view(float),
        np.diagonal(states, axis1=1, axis2=2).real,
        np.trace(states @ states, axis1=1, axis2=2).real,
    ])
    line = ",".join(["%.12g"] * table.shape[1])
    _write_csv(header, [line % tuple(row) for row in table.tolist()], args.out)
    return 0


def cmd_steady(args) -> int:
    model = model_from_dict(load_model_dict(args.model))
    rho = steady_state(model)
    residual = gks_decompose(model).schrodinger_sparse() @ vectorize(rho)
    # Scaled by the power of two at its largest entry, the squares stay in the
    # double range; the scaling is exact, so an in-range norm keeps every bit.
    unit = np.ldexp(1.0, np.frexp(np.abs(residual).max())[1] - 1)
    report = {
        "dim": model.dim,
        "rho": rho,
        "populations": rho.diagonal().real.tolist(),
        "eigenvalues": np.linalg.eigvalsh(rho).tolist(),
        "trace": np.trace(rho),
        "liouvillian_residual": float(np.linalg.norm(residual / unit) * unit),
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
    # A zero error has no logarithm: its order cells stay empty.
    fitted = "" if result.fitted_order is None else f"{result.fitted_order:.6g}"
    monotone = str(result.monotone).lower()
    lines, prev = [], None
    for dt, err in zip(result.dts, result.errors):
        if prev is None or err == 0 or prev[1] == 0:
            order = ""
        else:
            order = f"{np.log(prev[1] / err) / np.log(prev[0] / dt):.6g}"
        lines.append(f"{dt:.12g},{err:.12g},{order},{fitted},{monotone}")
        prev = (dt, err)
    header = ["dt", "max_trace_distance", "order_vs_prev", "fitted_order", "monotone"]
    _write_csv(header, lines, args.out)
    return 0


def cmd_split(args) -> int:
    m = complex(args.m_re, args.m_im)
    s = scalar_split(args.n, m)
    res = split_residuals(args.n, m, s)
    report = {
        "n": args.n,
        "m": m,
        "x": s.x,
        "y": s.y,
        "z": complex(s.z),
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
    except (ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"gaussbath: numerical error: {exc}", file=sys.stderr)
        return 3
    except (GaussBathError, ValueError) as exc:
        print(f"gaussbath: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
