"""Discrete collision-model cross-check for the Gaussian master equation.

Each time step couples the system to a fresh pair of ancilla modes in
their joint vacuum.  The pair carries the doubled-vacuum increment

    B = sqrt(gamma dt) (x b1 + y b2+ + z b2),

whose second moments reproduce the Gaussian Ito table at order dt:
<B B+> = gamma dt (n+1), <B+ B> = gamma dt n, <B B> = gamma dt m,
<B+ B+> = gamma dt conj(m), and [B, B+] = gamma dt on the low-lying
levels.  One collision applies

    U = exp( -i [ dt (F + conj(alpha) C + alpha C+) (x) 1
                  + C (x) B+ + C+ (x) B ] )

and traces the ancillas out.  The pair starts in vacuum, so a collision
is one channel with Kraus operators K_k = (1 (x) <k|) U (1 (x) |0>);
S = sum_k conj(K_k) (x) K_k is built once, applied steps times by
linalg.propagate, and preserves trace because U is unitary: the chain
is one step map repeated, like evolve's trajectories.  The chain needs
only the d columns U |j, 00>.  H is listed once as three sandwiches and
summed by linalg's one assembly into CollisionConfig.hamiltonian, the
immutable config's one H.  One linalg.exp_plan of -iH, H's data times
-i (exact), for one step on d columns names the route: the columns come
from step_unitary, the dense exp(-iH) of that same H, or from
linalg.expm_action running that plan, with no dense H built.  U comes
from the increment, not from L', so the chain is independent evidence
for L'.  Trotter error per step is O(dt^2), so the reduced dynamics
converges to exp(t L') at first order in dt.  The comparison runs at
sigma = 0; a sigma shift is a system Hamiltonian term and has no
collision counterpart in this scheme.  convergence_study builds once
per call what its step sizes share: the unit increment B0 (the config's
unit, which each step scales by sqrt(gamma dt), so H has the same bits)
and one exact reference per nested family: a row whose dt is r dt_f
exactly in floating point for a finer listed dt_f reads every r-th state
of that finer evolve, any other row its own, so a row's error may move
by rounding only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .doubling import SplitCoefficients, represent_annihilator, scalar_split
from .errors import DimensionError, DomainError, TruncationWarning
from .lindblad import SystemModel, evolve, validate_density_matrix, validate_trajectory
from .linalg import (
    SandwichSum,
    adjoint,
    exp_plan,
    expm_action,
    mat_exp,
    negligible,
    propagate,
    require_dense,
    sandwich_sum,
)
from .noise import require_count, require_positive

__all__ = [
    "CollisionConfig",
    "CollisionResult",
    "convergence_study",
    "increment_operator",
    "simulate",
    "step_unitary",
    "trace_distance",
]

# Ancilla boundary occupation above this level triggers a truncation warning.
BOUNDARY_TOL = 1e-3

# The rounding allowance of a trace distance at unit trace: an error within it counts as
# exact, with no order fitted to it, and an error may rise by it and stay monotone.
ROUNDING_TOL = 1e-12


@dataclass(frozen=True)
class CollisionConfig:
    """One collision-model run: model, step size, step count, Fock cutoff.

    validate_trajectory checks (dt, steps) as evolve does, and noise.require_count
    the cutoff (an integer >= 2; >= 3 for a non-vacuum bath); steps and cutoff are
    stored as the Python ints those rules return, so no size product can wrap.
    unit is B0 = represent_annihilator(1, split, cutoff), the increment at gamma dt = 1,
    read-only; it is built here unless given, so that the configs of one model and
    cutoff (a convergence study's) can share one, and a given one must be that B0.
    """

    model: SystemModel
    dt: float
    steps: int
    cutoff: int
    split: SplitCoefficients = field(init=False)
    unit: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        noise, d = self.model.noise, self.model.dim
        object.__setattr__(self, "steps", validate_trajectory(self.dt, self.steps, d))
        object.__setattr__(self, "cutoff", require_count("cutoff", self.cutoff, 2))
        if (noise.n > 0 or noise.m != 0) and self.cutoff < 3:
            raise DomainError("cutoff must be at least 3 for a non-vacuum bath")
        # The dense arrays of a run beside the stored trajectory: the step Hamiltonian
        # and unitary on system times ancilla pair, and the step channel S.
        require_dense((d * self.cutoff**2) ** 2, f"cutoff {self.cutoff} at d = {d}",
                      "(d * cutoff^2)^2")
        require_dense(d**4, f"the step channel at d = {d}", "(d^2)^2")
        if noise.sigma != 0:
            raise DomainError(
                "collision comparisons are defined at sigma = 0; "
                "a sigma shift is a Hamiltonian term with no ancilla counterpart"
            )
        object.__setattr__(self, "split", scalar_split(noise.n, noise.m))
        if self.unit is None:
            unit = represent_annihilator(np.ones(1), self.split, self.cutoff)
            unit.flags.writeable = False  # the configs that share it
            object.__setattr__(self, "unit", unit)
        elif np.shape(self.unit) != (self.cutoff**2,) * 2:
            raise DimensionError(f"unit has shape {np.shape(self.unit)}, the ancilla pair "
                                 f"at cutoff {self.cutoff} is {self.cutoff**2}-dimensional")

    @cached_property
    def hamiltonian(self) -> SandwichSum:
        """The step Hamiltonian H on system (x) ancilla pair, assembled once on first use."""
        return sandwich_sum(_step_sandwiches(self), "collision overflow: the step Hamiltonian")


def increment_operator(config: CollisionConfig) -> np.ndarray:
    """The increment B = sqrt(gamma dt) B0 on the two-mode ancilla space, B0 the config's unit,
    the doubled annihilator of one mode."""
    return np.sqrt(config.model.noise.gamma * config.dt) * config.unit


def _step_sandwiches(config: CollisionConfig) -> list:
    """(A, B) pairs of the step Hamiltonian on system (x) ancilla pair, H = sum sandwich(A, B).

    H = dt drift (x) 1 + C (x) B+ + C+ (x) B with kron(X, Y) = sandwich(Y, X^T)
    and the c-number drift F + conj(alpha) C + alpha C+.  Factors may overflow.
    """
    model, alpha = config.model, config.model.noise.alpha
    with np.errstate(over="ignore", invalid="ignore"):
        b = increment_operator(config)
        drift = model.F + np.conj(alpha) * model.C + alpha * adjoint(model.C)
        return [(np.eye(b.shape[0]), config.dt * drift.T), (adjoint(b), model.C.T),
                (b, adjoint(model.C).T)]


def step_unitary(config: CollisionConfig) -> np.ndarray:
    """Unitary for one collision on system (x) ancilla pair: the dense exp(-iH) of config's H."""
    return mat_exp(-1j * config.hamiltonian.dense())


def _kraus_tensor(config: CollisionConfig) -> np.ndarray:
    """kraus[i, k, j] = <i, k| U |j, 0>, so that K_k = kraus[:, k, :].

    One linalg.exp_plan of -iH, from config's H, for one step on the d columns
    |j> (x) |00> names the route: the dense step_unitary, or linalg.expm_action
    running that plan.  A non-finite tensor raises OverflowError on either route.
    """
    d, pair_dim = config.model.dim, config.cutoff**2
    h = config.hamiltonian
    generator = h._replace(data=-1j * h.data)  # -iH, exactly
    plan = exp_plan(generator, 1.0, 1, columns=d)
    if plan.dense:
        return step_unitary(config).reshape(d, pair_dim, d, pair_dim)[:, :, :, 0]
    vacuum = np.zeros((d * pair_dim, d), dtype=complex)
    vacuum[np.arange(d) * pair_dim, np.arange(d)] = 1.0
    columns = expm_action(plan, vacuum, "the Kraus operators")[1]
    return columns.reshape(d, pair_dim, d)


def _step_channel(config: CollisionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Superoperator S of one collision and the boundary observable E.

    tr(E rho) is the pair population at the top Fock level of either mode.
    """
    d, cutoff = config.model.dim, config.cutoff
    kraus = _kraus_tensor(config)
    # sandwich(K, K+) = kron(conj(K), K), summed over k.
    step = np.einsum("akb,ikj->aibj", kraus.conj(), kraus).reshape(d * d, d * d)
    top = np.zeros((cutoff, cutoff), dtype=bool)
    top[-1, :] = top[:, -1] = True
    edge = kraus[:, top.ravel(), :]
    boundary = np.einsum("ikb,ikj->bj", edge.conj(), edge)
    return step, boundary


def simulate(config: CollisionConfig, rho0: np.ndarray) -> np.ndarray:
    """Run the collision chain, returning states at every step boundary.

    The step channel is trace preserving by construction, so no state
    is renormalized.  If the ancilla population at the cutoff boundary
    ever exceeds 1e-3 the run completes but emits a TruncationWarning.
    """
    rho = validate_density_matrix(rho0, config.model.dim)
    step, boundary = _step_channel(config)
    out = propagate(rho, step, config.steps)
    worst_boundary = float(np.einsum("bj,kjb->k", boundary, out[:-1]).real.max())
    if worst_boundary > BOUNDARY_TOL:
        warnings.warn(
            f"ancilla boundary population reached {worst_boundary:.2e}; "
            f"cutoff {config.cutoff} is too small for this model",
            TruncationWarning,
            stacklevel=2,
        )
    return out


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Half the trace norm of a - b; for equal-shape stacks, one per pair by one batched SVD."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"trace_distance needs square matrices (or stacks) of one shape, "
                             f"got {a.shape} and {b.shape}")
    dist = 0.5 * np.linalg.svd(a - b, compute_uv=False).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


@dataclass
class CollisionResult:
    """Error table of a convergence study against exp(t L'), rows from the largest dt down.

    An error within ROUNDING_TOL counts as exact and has no order: orders[k] is the
    log-log slope log(err[k-1] / err[k]) / log(dt[k-1] / dt[k]), None in row 0 and
    where either error is exact; fitted_order is the least-squares slope over the
    errors that are not exact, None when fewer than two are.
    """

    dts: list
    errors: list
    orders: list
    fitted_order: float | None
    monotone: bool


def convergence_study(
    model: SystemModel,
    rho0: np.ndarray,
    t_final: float,
    dts,
    cutoff: int,
) -> CollisionResult:
    """Collision-versus-Liouvillian error as a function of step size.

    For each dt the collision trajectory is compared with the exact
    exp(t L') propagation on the same grid and the maximum trace
    distance recorded.  The study builds once what its steps share: the
    unit increment B0 of CollisionConfig, which each config scales by
    sqrt(gamma dt), and one exact reference per nested family.  A step dt
    that equals r dt_f exactly in floating point, r an integer, for a finer
    listed dt_f reads every r-th state of the evolve at the finest such dt_f,
    which runs to the largest r steps of its family; any other step, and one
    whose r steps would break the trajectory budget, reads its own evolve
    (0.01 * 3 == 0.03 shares, 0.1 * 3 != 0.3 does not).  A
    shared reference holds exp(dt_f L')^(k r) rho0 in place of exp(dt L')^k
    rho0, so its row's error moves by rounding only.  Every evolve reads the
    model's one L', so the study assembles it once, and each reference is
    built after the first chain that reads it.  Nothing is kept between calls.
    t_final and each step size pass noise.require_positive before any
    t_final / dt is formed; the step sizes must be distinct, and t_final / dt
    must round to at least one step.  The orders follow the CollisionResult
    rule; an error rise beyond 10 percent plus ROUNDING_TOL is flagged as not
    monotone in the result, not fatal.
    """
    require_positive(t_final=t_final)
    dts = list(dts)
    for dt in dts:
        require_positive(dt=dt)
    dts = sorted(map(float, dts), reverse=True)
    if len(dts) < 2:
        raise DomainError("need at least two step sizes to study convergence")
    for a, b in zip(dts, dts[1:]):
        if a == b:  # two rows at one dt leave no slope between them
            raise DomainError(f"dt = {a} is repeated in the step sizes")
    configs = []
    for dt in dts:
        steps = float(t_final) / dt  # Python floats: an overflow is inf, with no warning
        if not np.isfinite(steps):
            raise DomainError(f"t_final = {t_final} over dt = {dt} is not a finite step count")
        steps = int(round(steps))
        if steps == 0:
            raise DomainError(f"t_final = {t_final} over dt = {dt} rounds to 0 steps")
        configs.append(CollisionConfig(model=model, dt=dt, steps=steps, cutoff=cutoff,
                                       unit=configs[0].unit if configs else None))
    # (root, r): the finest listed step with dt == r root exactly, dt itself (r = 1) when
    # none finer is; each config passed its budget, so dt / root is a modest ratio.
    reads, length = [], {}
    for config in configs:
        root = next(f for f in reversed(dts) if round(config.dt / f) * f == config.dt)
        r = round(config.dt / root)
        try:  # r steps can outrun the root's grid by up to about half of dt / root
            validate_trajectory(root, r * config.steps, model.dim)
        except DomainError:  # past the trajectory budget: the row keeps its own reference
            root, r = config.dt, 1
        reads.append((root, r))
        length[root] = max(length.get(root, 0), r * config.steps)
    references, errors = {}, []
    for config, (root, r) in zip(configs, reads):  # every step count is checked first
        approx = simulate(config, rho0)
        if root not in references:
            references[root] = evolve(model, rho0, root, length[root], method="expm")
        # A family's finest step is its last row: its reference is not read again.
        exact = references.pop(root) if root == config.dt else references[root]
        errors.append(float(trace_distance(approx, exact[: r * config.steps + 1 : r]).max()))
    rows = [(dt, err, negligible(err, 1.0, ROUNDING_TOL)) for dt, err in zip(dts, errors)]
    fit = [(dt, err) for dt, err, exact in rows if not exact]
    slope = float(np.polyfit(*np.log(fit).T, 1)[0]) if len(fit) >= 2 else None
    orders = [None] + [
        None if prev_exact or exact else float(np.log(prev_err / err) / np.log(prev_dt / dt))
        for (prev_dt, prev_err, prev_exact), (dt, err, exact) in zip(rows, rows[1:])
    ]
    monotone = all(negligible(b - 1.1 * a, 1.0, ROUNDING_TOL) for a, b in zip(errors, errors[1:]))
    return CollisionResult(dts=dts, errors=errors, orders=orders, fitted_order=slope,
                           monotone=monotone)
