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
as pairs, the bytes json.dumps writes for nested lists, with Python
work per run of equal entries along a row and per distinct entry, not
per cell; every other leaf goes through ``json.dumps``.  A non-finite
value anywhere in a report raises OverflowError naming its field, so no
report holds NaN or Infinity.  Time series are CSV from one writer, ``_write_csv``: a
header and pre-formatted lines joined with commas, each ended with
CRLF, which is what csv.writer writes for cells that need no quoting.
The state columns of ``evolve`` are linalg.hermitian_part of each computed
state, equal to it bit for bit where it is Hermitian.
Each of its d^2 real parameters is formatted once, so mirrored cells
are exact: rho_j_i_re is the string of rho_i_j_re, rho_j_i_im that of
rho_i_j_im with its sign flipped, and every rho_k_k_im cell is 0.
Initial states are only decoded here; the library checks them where
they enter.  Exit codes: 0 success, 2 validation failure, 3 numerical
failure or out of memory, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys

import numpy as np

from .collision import convergence_study
from .doubling import scalar_split, split_residuals
from .errors import FormatError, GaussBathError
from .lindblad import SystemModel, evolve, steady_state
from .linalg import adjoint, hermitian_part, require_finite_result, vectorize
from .noise import (BLOCK_KEYS, NORMAL_ORDERED, TIME_ORDERED, ItoCoefficients, NoiseParams,
                    is_gaussian_state, unitarity_defect)
from .wick import normal_to_time, time_to_normal


# ---------------------------------------------------------------- parsing

def _parse_cmatrix(obj, dim: int, where: str, bools: bool = True) -> np.ndarray:
    """A dim x dim complex matrix from nested [re, im] pairs of finite numbers.

    bools False says that obj was read from JSON text whose every true and
    false is a value outside every list, so no leaf can be a bool and the
    scan for one is skipped.
    """
    try:
        a = np.asarray(obj)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.shape != (dim, dim, 2):
        raise FormatError(f"field '{where}': expected {dim} rows of {dim} [re, im] pairs")
    # numpy reads a JSON bool mixed in with numbers as 0 or 1; reject it too.
    if (not np.issubdtype(a.dtype, np.number) or not np.all(np.isfinite(a))
            or bools and any(isinstance(x, bool) for row in obj for pair in row for x in pair)):
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


class _FileObject(dict):
    """A JSON object read from a file; bools is whether a list in it can hold a bool,
    so _parse_cmatrix scans its matrices for a bool leaf only then."""

    bools = True


def _bools_outside_lists(tree: dict) -> int:
    """The number of bool values that tree reaches through objects alone, never a list."""
    count, stack = 0, [tree]
    while stack:  # no recursion: the decoder nests deeper than the Python stack allows
        for value in stack.pop().values():
            if isinstance(value, dict):
                stack.append(value)
            else:
                count += isinstance(value, bool)
    return count


def _load_json(path: str):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity literals; an object
    comes back as a _FileObject."""

    def reject(constant):
        raise FormatError(f"{path}: non-finite number {constant} is not allowed")

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        tree = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise FormatError(f"{path}: nested too deeply to read") from None
    if isinstance(tree, dict):
        tree = _FileObject(tree)
        # Every bool is a true or false in the text, so when the bools reached
        # without a list account for every such substring, no list holds one.
        tree.bools = text.count("true") + text.count("false") != _bools_outside_lists(tree)
    return tree


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
    bools = getattr(raw, "bools", True)
    c = _parse_cmatrix(_require(raw, "C", list), dim, "C", bools)
    f = _parse_cmatrix(_require(raw, "F", list), dim, "F", bools)
    return SystemModel(C=c, F=f, noise=noise)


def block_from_dict(raw: dict, name: str, dim: int, kind: str) -> ItoCoefficients:
    if name not in raw or not isinstance(raw[name], dict):
        raise FormatError(f"field '{name}': missing coefficient block")
    block = raw[name]
    mats = {}
    for key in BLOCK_KEYS:
        if key not in block:
            raise FormatError(f"field '{name}.{key}': missing")
        mats[key] = _parse_cmatrix(block[key], dim, f"{name}.{key}", getattr(raw, "bools", True))
    return ItoCoefficients(kind, mats["c00"], mats["c01"], mats["c10"], mats["c11"])


def load_density_matrix(path: str, dim: int) -> np.ndarray:
    raw = _load_json(path)
    payload = _require(raw, "rho", list) if isinstance(raw, dict) else raw
    return _parse_cmatrix(payload, dim, "rho", getattr(raw, "bools", True))


# ---------------------------------------------------------------- dumping

def _changes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where the pair (x[i], y[i]) differs from the pair before it; the first always does."""
    change = np.empty(len(x), dtype=bool)
    change[0] = True
    np.not_equal(x[1:], x[:-1], out=change[1:])
    change[1:] |= y[1:] != y[:-1]
    return change


def _pairs_json(a, where: str = "value") -> str:
    """A complex scalar or array as compact JSON (nested lists of) [re, im] pairs.

    The Python work grows with the runs and the distinct values, not with
    the cells.  A run is a maximal stretch of equal (re, im) bit patterns
    along a row (the last axis); the bit patterns keep -0.0 apart from 0.0.
    Each distinct pattern among the run heads is formatted once, by float
    repr as json.dumps does, after a two-key sort of their uint64 halves.
    A run of k cells is one string, and the whole text is one comma join
    of the runs, with brackets added to the first and last run of each row
    and of each block of an outer axis.
    """
    a = np.asarray(a, dtype=complex)
    what = f"report field '{where}'"
    if not a.ndim:
        z = complex(require_finite_result(a, what))
        return f"[{z.real!r},{z.imag!r}]"
    if not a.size:  # nested empty lists, as json.dumps writes them
        return json.dumps(np.zeros(a.shape).tolist(), separators=(",", ":"))
    flat = np.ascontiguousarray(a).reshape(-1)
    width = a.shape[-1]
    bits = flat.view(np.uint64)
    re, im = bits[0::2], bits[1::2]
    head = _changes(re, im)
    head[::width] = True  # every row starts a run
    edges = np.append(head, True).nonzero()[0]  # the start of each run, then the end
    starts = edges[:-1]
    order = np.lexsort((im[starts], re[starts]))
    ranked = starts[order]  # the run heads, equal patterns side by side
    first = _changes(re[ranked], im[ranked])  # where a distinct pattern starts
    index = np.empty(len(order), dtype=np.intp)
    index[order] = first.cumsum() - 1
    distinct = require_finite_result(flat[ranked[first]], what)
    pieces = np.array([f"[{z.real!r},{z.imag!r}]" for z in distinct.tolist()], dtype=object)[index]
    if len(starts) < flat.size:
        length = edges[1:] - starts
        long = (length > 1).nonzero()[0]
        text = pieces[long]
        pieces[long] = (text + ",") * (length[long] - 1) + text
    at_row = edges % width == 0
    rows, ends = at_row[:-1].nonzero()[0], at_row[1:].nonzero()[0]  # first, last run of a row
    step = 1
    for side in (1, *a.shape[-2::-1]):  # each row, then each block of step rows
        step *= side
        pieces[rows[::step]] = "[" + pieces[rows[::step]]
        pieces[ends[step - 1::step]] += "]"
    return ",".join(pieces.tolist())


def _report_json(tree, where: str = "") -> str:
    """A report tree as compact JSON: complex values as pairs, other leaves by json.dumps.

    Every brace, key, colon and leaf text goes into one flat list, joined once, so a
    large field's text is copied once, not once per enclosing object.
    """
    parts = []
    _report_parts(tree, where, parts)
    return "".join(parts)


def _report_parts(tree, where: str, parts: list) -> None:
    """Append the texts of a report tree, in order, to parts."""
    if isinstance(tree, dict):
        parts.append("{")
        for key, value in tree.items():
            parts.extend((json.dumps(key), ":"))
            _report_parts(value, f"{where}.{key}" if where else key, parts)
            parts.append(",")
        if tree:
            parts[-1] = "}"  # in place of the last comma
        else:
            parts.append("}")
    elif isinstance(tree, (complex, np.ndarray)):  # np.complex128 subclasses complex
        parts.append(_pairs_json(tree, where))
    else:
        try:
            parts.append(json.dumps(tree, separators=(",", ":"), allow_nan=False))
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


def _evolve_lines(t: np.ndarray, h: np.ndarray) -> list:
    """The evolve CSV rows of Hermitian states h at times t, as pre-formatted lines.

    Each real parameter of a state is formatted once, by %.12g.  A row
    string holds a literal "0", t, the diagonal and the purity
    (';'-separated), then '|' and the upper-triangle (re, im) pairs.  The
    conjugate pairs are the pairs string with each imaginary cell's sign
    flipped, which is exact because %g is odd, -0 included; one gather
    then picks every cell of the row in header order.
    """
    d = h.shape[1]
    upper = np.triu_indices(d, 1)
    u = len(upper[0])
    pair = {ij: 3 + d + m for m, ij in enumerate(zip(*(a.tolist() for a in upper)))}
    order = [1]  # t
    for j in range(d):
        for i in range(d):
            if i == j:
                order += [2 + i, 0]
            else:
                order.append(pair[i, j] if i < j else pair[j, i] + u)
    pick = operator.itemgetter(*order, *range(2, 3 + d))  # then populations, purity
    line = ";".join(["0"] + ["%.12g"] * (d + 2)) + "|" + ";".join(["%.12g,%.12g"] * u)
    table = np.column_stack([
        t,
        np.diagonal(h, axis1=1, axis2=2).real,
        np.trace(h @ h, axis1=1, axis2=2).real,
        np.ascontiguousarray(h[:, upper[0], upper[1]]).view(float),
    ])
    lines = []
    for row in table.tolist():
        head, pairs = (line % tuple(row)).split("|")
        conj = pairs.replace(",", ",-").replace(",--", ",")
        lines.append(",".join(pick(";".join((head, pairs, conj)).split(";"))))
    return lines


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
    form = model.form
    liouv = form.liouvillian.dense()
    report = {
        "dim": model.dim,
        "h_eff": form.h_eff,
        "jump_basis": ["C", "C_dagger"],
        "kossakowski": form.kossakowski,
        "kossakowski_eigenvalues": form.kossakowski_eigenvalues().tolist(),
        "completely_positive": is_gaussian_state(model.noise.n, model.noise.m),
        "liouvillian": liouv,
        "heisenberg": adjoint(liouv),
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
    # Where it is not 0, the step is np.linspace's own, bit for bit.
    dt = args.t_final / (args.points - 1)
    if dt == 0:
        raise FormatError(f"--t-final {args.t_final!r} over the {args.points - 1} intervals "
                          f"of --points {args.points} underflows to a zero step")
    h = hermitian_part(evolve(model, rho0, dt, args.points - 1, method=args.method))
    header = ["t"] + [f"rho_{i}_{j}_{part}" for j in range(d) for i in range(d)
                      for part in ("re", "im")]
    header += [f"pop_{k}" for k in range(d)] + ["purity"]
    t = np.linspace(0.0, args.t_final, args.points)
    _write_csv(header, _evolve_lines(t, h), args.out)
    return 0


def cmd_steady(args) -> int:
    model = model_from_dict(load_model_dict(args.model))
    rho = steady_state(model)
    residual = model.form.liouvillian.matvec(vectorize(rho))  # the L' of the solve
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

    def cell(order):  # no order (None) is an empty cell
        return "" if order is None else f"{order:.6g}"

    fitted, monotone = cell(result.fitted_order), str(result.monotone).lower()
    lines = [f"{dt:.12g},{err:.12g},{cell(order)},{fitted},{monotone}"
             for dt, err, order in zip(result.dts, result.errors, result.orders)]
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between calls."""
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
