"""Output checks, one per job kind.

Each check parses what the program printed and raises CheckFailed when
the output is malformed or a stated invariant does not hold.  Checks
recompute what they can from the inputs instead of trusting a number
the program reports about itself.  They run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np


class CheckFailed(Exception):
    """A job's output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def cmatrix(obj, d: int, where: str) -> np.ndarray:
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"{where}: not a complex matrix") from exc
    require(a.shape == (d, d, 2), f"{where}: shape {a.shape}, expected {(d, d, 2)}")
    return a[..., 0] + 1j * a[..., 1]


def parse_json(text: str) -> dict:
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    require(isinstance(tree, dict), "output is not a JSON object")
    return tree


def field(tree: dict, key: str):
    require(key in tree, f"output lacks '{key}'")
    return tree[key]


def parse_csv(text: str) -> tuple[list, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) >= 2, "CSV has no data rows")
    header, body = rows[0], rows[1:]
    require(all(len(r) == len(header) for r in body), "CSV rows differ in length")
    return header, body


def numeric(body, columns) -> np.ndarray:
    try:
        return np.array([[float(r[c]) for c in columns] for r in body])
    except ValueError as exc:
        raise CheckFailed(f"CSV holds a non-number: {exc}") from exc


def relative_zero(residual: float, scale: float, tol: float, what: str) -> None:
    require(residual <= tol * max(scale, 1.0),
            f"{what}: residual {residual:.3e} exceeds {tol:.0e} x {scale:.3e}")


# ---------------------------------------------------------------- per kind

def reference_liouvillian(c, f, n: float, m: complex, gamma: float) -> np.ndarray:
    """Schrodinger generator rebuilt from the Kossakowski form, column stacking.

    L'(rho) = -i[F, rho] + sum_jk K_jk (V_k rho V_j+ - 1/2 {V_j+ V_k, rho})
    over V = (C, C+) with K = gamma [[n+1, m], [conj(m), n]]; this is a
    different route from the program's sandwich expression.
    """
    d = c.shape[0]
    eye = np.eye(d)

    def sandwich(a, b):  # vec(a X b)
        return np.kron(b.T, a)

    jumps = (c, c.conj().T)
    k = gamma * np.array([[n + 1.0, m], [np.conj(m), n]])
    out = -1j * (sandwich(f, eye) - sandwich(eye, f))
    for j in range(2):
        for i in range(2):
            vjv = jumps[j].conj().T @ jumps[i]
            out += k[j, i] * (sandwich(jumps[i], jumps[j].conj().T)
                              - 0.5 * (sandwich(vjv, eye) + sandwich(eye, vjv)))
    return out


def check_generator(job, text: str, context: dict) -> None:
    d, n, m = job.expect["dim"], job.expect["n"], job.expect["m"]
    tree = parse_json(text)
    require(field(tree, "dim") == d, "wrong dim")
    liouv = cmatrix(field(tree, "liouvillian"), d * d, "liouvillian")
    heis = cmatrix(field(tree, "heisenberg"), d * d, "heisenberg")
    scale = np.abs(liouv).max()
    vec_id = np.eye(d).flatten(order="F")
    relative_zero(np.abs(vec_id @ liouv).max(), scale, 1e-10, "trace preservation vec(I)+ L'")
    relative_zero(np.abs(heis @ vec_id).max(), np.abs(heis).max(), 1e-10, "unitality L vec(I)")
    c, f = job.expect["C"], job.expect["F"]
    relative_zero(np.abs(liouv - reference_liouvillian(c, f, n, m, 1.0)).max(), scale, 1e-10,
                  "liouvillian against the Kossakowski form")
    relative_zero(np.abs(heis - liouv.conj().T).max(), scale, 1e-10,
                  "heisenberg against the adjoint of the liouvillian")
    kossakowski = cmatrix(field(tree, "kossakowski"), 2, "kossakowski")
    expected = 1.0 * np.array([[n + 1.0, m], [np.conj(m), n]])
    require(np.abs(kossakowski - expected).max() <= 1e-12,
            "kossakowski differs from gamma [[n+1, m], [conj(m), n]]")
    require(field(tree, "completely_positive") is True, "completely_positive is not true")


def unitarity_violation(blocks: dict, gamma: float) -> float:
    """max_ij ||L_ij + L_ji+ + gamma L_1i+ L_1j||_2 over the four blocks."""
    t = {(0, 0): blocks["c00"], (0, 1): blocks["c01"],
         (1, 0): blocks["c10"], (1, 1): blocks["c11"]}
    worst = 0.0
    for i in (0, 1):
        for j in (0, 1):
            r = t[(i, j)] + t[(j, i)].conj().T + gamma * (t[(1, i)].conj().T @ t[(1, j)])
            worst = max(worst, float(np.linalg.norm(r, 2)))
    return worst


def read_block(tree: dict, name: str, d: int) -> dict:
    block = field(tree, name)
    require(isinstance(block, dict), f"'{name}' is not a block")
    return {k: cmatrix(field(block, k), d, f"{name}.{k}") for k in ("c00", "c01", "c10", "c11")}


def check_convert_normal(job, text: str, context: dict) -> None:
    d = job.expect["dim"]
    tree = parse_json(text)
    report = field(tree, "report")
    require(report.get("direction") == "to-normal", "report.direction is not to-normal")
    defect = report.get("unitarity_defect")
    require(isinstance(defect, float) and defect <= 1e-10,
            f"reported unitarity_defect {defect!r} exceeds 1e-10")
    recomputed = unitarity_violation(read_block(tree, "L", d), 1.0)
    require(recomputed <= 1e-10, f"recomputed unitarity defect {recomputed:.3e} exceeds 1e-10")
    require(report.get("hermitian_generator_input") is True, "input not seen as Hermitian")


def check_convert_time(job, text: str, context: dict) -> None:
    d = job.expect["dim"]
    tree = parse_json(text)
    require(field(tree, "report").get("direction") == "to-time", "report.direction is not to-time")
    got = read_block(tree, "E", d)
    for key, want in job.expect["E"].items():
        err = np.abs(got[key] - want).max()
        require(err <= 1e-10, f"E.{key} round trip error {err:.3e} exceeds 1e-10")


def check_split(job, text: str, context: dict) -> None:
    n, m = job.expect["n"], job.expect["m"]
    tree = parse_json(text)
    residuals = field(tree, "residuals")
    require(isinstance(residuals, dict) and len(residuals) == 3, "residuals malformed")
    for key, val in residuals.items():
        require(isinstance(val, float) and val <= 1e-12, f"residual {key} = {val!r} exceeds 1e-12")
    x, y = float(field(tree, "x")), float(field(tree, "y"))
    z = cmatrix([[field(tree, "z")]], 1, "z")[0, 0]
    recomputed = (
        abs(x * x - y * y + abs(z) ** 2 - 1.0),
        abs(x * x + abs(z) ** 2 - (n + 1.0)),
        abs(y * z - m),
    )
    require(max(recomputed) <= 1e-12, f"split identities off by {max(recomputed):.3e}")


def check_steady(job, text: str, context: dict) -> None:
    d, n = job.expect["dim"], job.expect["n"]
    tree = parse_json(text)
    ratio = n / (n + 1.0)
    expected = ratio ** np.arange(d)
    expected /= expected.sum()
    pops = np.asarray(field(tree, "populations"), dtype=float)
    require(pops.shape == (d,), "populations have the wrong length")
    err = np.abs(pops - expected).max()
    require(err <= 1e-8, f"populations off the thermal ladder by {err:.3e}")
    rho = cmatrix(field(tree, "rho"), d, "rho")
    err = np.abs(np.diag(rho).real - expected).max()
    require(err <= 1e-8, f"rho diagonal off the thermal ladder by {err:.3e}")
    tr = cmatrix([[field(tree, "trace")]], 1, "trace")[0, 0]
    require(abs(tr - 1.0) <= 1e-10, f"trace {tr} is not 1")


def check_evolve(job, text: str, context: dict) -> None:
    d = job.expect["dim"]
    header, body = parse_csv(text)
    require(len(body) == 101, f"{len(body)} rows, expected 101")
    rho_cols = [i for i, h in enumerate(header) if h.startswith("rho_")]
    pop_cols = [i for i, h in enumerate(header) if h.startswith("pop_")]
    require(header[0] == "t" and len(rho_cols) == 2 * d * d and len(pop_cols) == d,
            "CSV header does not match the dimension")
    t = numeric(body, [0])[:, 0]
    require(t[0] == 0.0 and abs(t[-1] - 5.0) <= 1e-12, "time grid is not [0, 5]")
    pops = numeric(body, pop_cols)
    tr_err = np.abs(pops.sum(axis=1) - 1.0).max()
    require(tr_err <= 1e-9, f"trace drifts from 1 by {tr_err:.3e}")
    require(pops.min() >= -1e-9, f"population {pops.min():.3e} below -1e-9")
    flat = numeric(body, rho_cols)
    states = flat[:, 0::2] + 1j * flat[:, 1::2]
    start_err = np.abs(states[0] - job.expect["rho0"].flatten(order="F")).max()
    require(start_err <= 1e-10, f"first row differs from rho0 by {start_err:.3e}")
    if job.pair is not None:
        require(job.pair in context, f"no output of {job.pair} to compare with")
        err = np.abs(states - context[job.pair]).max()
        require(err <= 1e-8, f"differs from {job.pair} by {err:.3e}")
    context[job.name] = states


def check_oracle(job, text: str, context: dict) -> None:
    header, body = parse_csv(text)
    require(header == ["dt", "max_trace_distance", "order_vs_prev", "fitted_order", "monotone"],
            "unexpected CSV header")
    dts = numeric(body, [0])[:, 0]
    require(np.allclose(dts, job.expect["dts"], rtol=0, atol=1e-15), "dt column is wrong")
    errors = numeric(body, [1])[:, 0]
    require(errors[-1] < 1e-2, f"error {errors[-1]:.3e} at dt = 0.01 is not below 1e-2")
    order = numeric(body, [3])[:, 0]
    require(order.min() >= 0.8, f"fitted order {order.min():.3f} below 0.8")
    require(all(r[4] == "true" for r in body), "errors are not monotone")


CHECKS = {
    "generator": check_generator,
    "convert-normal": check_convert_normal,
    "convert-time": check_convert_time,
    "split": check_split,
    "steady": check_steady,
    "evolve": check_evolve,
    "oracle": check_oracle,
}


def check(job, code, text: str, warned: list, context: dict) -> str | None:
    """Return None when the job passed, else the reason it failed.

    ``context`` carries parsed outputs that later jobs compare against.
    A job's old entry is dropped first, so a partner cannot pass against
    an output from an earlier pass.
    """
    context.pop(job.name, None)
    if code != 0:
        return f"exit code {code}"
    if warned:
        return f"warning raised: {warned[0]}"
    try:
        CHECKS[job.kind](job, text, context)
    except CheckFailed as exc:
        return str(exc)
    return None
