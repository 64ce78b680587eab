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

and traces the ancillas out.  Trotter error per step is O(dt^2), so the
reduced dynamics converges to exp(t L') at first order in dt.  The
comparison runs at sigma = 0; a sigma shift is a system Hamiltonian
term and has no collision counterpart in this scheme.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .doubling import SplitCoefficients, represent_annihilator, scalar_split
from .errors import DimensionError, DomainError, TruncationWarning
from .lindblad import SystemModel, evolve, validate_density_matrix
from .linalg import adjoint, mat_exp, partial_trace, require_square

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


@dataclass
class CollisionConfig:
    """One collision-model run: model, step size, step count, Fock cutoff."""

    model: SystemModel
    dt: float
    steps: int
    cutoff: int
    split: SplitCoefficients = field(init=False)

    def __post_init__(self):
        noise = self.model.noise
        if self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise DomainError(f"steps must be at least 1, got {self.steps}")
        if self.cutoff < 2:
            raise DomainError(f"cutoff must be at least 2, got {self.cutoff}")
        if (noise.n > 0 or noise.m != 0) and self.cutoff < 3:
            raise DomainError("cutoff must be at least 3 for a non-vacuum bath")
        if noise.sigma != 0:
            raise DomainError(
                "collision comparisons are defined at sigma = 0; "
                "a sigma shift is a Hamiltonian term with no ancilla counterpart"
            )
        self.split = scalar_split(noise.n, noise.m)


def increment_operator(config: CollisionConfig) -> np.ndarray:
    """The increment B on the two-mode ancilla space: the doubled annihilator of one mode."""
    amp = np.sqrt(config.model.noise.gamma * config.dt)
    return amp * represent_annihilator(np.ones(1), config.split, config.cutoff)


def step_unitary(config: CollisionConfig) -> np.ndarray:
    """Unitary for one collision on system (x) ancilla pair.

    The displacement alpha enters as the c-number Hamiltonian term
    conj(alpha) C + alpha C+ scaled by dt.
    """
    model = config.model
    b = increment_operator(config)
    pair_dim = b.shape[0]
    alpha = model.noise.alpha
    drift = model.F + np.conj(alpha) * model.C + alpha * adjoint(model.C)
    h = (
        config.dt * np.kron(drift, np.eye(pair_dim))
        + np.kron(model.C, adjoint(b))
        + np.kron(adjoint(model.C), b)
    )
    return mat_exp(-1j * h)


def _boundary_projector_diag(cutoff: int) -> np.ndarray:
    """Diagonal mask of pair states with either mode at the top level."""
    levels = np.arange(cutoff)
    top1 = (levels[:, None] == cutoff - 1)
    top2 = (levels[None, :] == cutoff - 1)
    return (top1 | top2).astype(float).ravel()


def simulate(config: CollisionConfig, rho0: np.ndarray) -> np.ndarray:
    """Run the collision chain, returning states at every step boundary.

    The reduced state is renormalized only by the exact partial trace;
    trace and Hermiticity are preserved by construction.  If the
    ancilla population at the cutoff boundary ever exceeds 1e-3 the run
    completes but emits a TruncationWarning.
    """
    rho = validate_density_matrix(rho0)
    d = config.model.dim
    if rho.shape[0] != d:
        raise DimensionError("rho0 dimension does not match the model")
    u = step_unitary(config)
    ud = adjoint(u)
    pair_dim = config.cutoff**2
    vac = np.zeros((pair_dim, pair_dim), dtype=complex)
    vac[0, 0] = 1.0
    boundary = np.tile(_boundary_projector_diag(config.cutoff), d)

    out = np.empty((config.steps + 1, d, d), dtype=complex)
    out[0] = rho
    worst_boundary = 0.0
    for k in range(config.steps):
        full = u @ np.kron(rho, vac) @ ud
        worst_boundary = max(worst_boundary, float(np.real(np.diag(full)) @ boundary))
        rho = partial_trace(full, (d, pair_dim), which="second")
        rho = (rho + adjoint(rho)) / 2.0
        out[k + 1] = rho
    if worst_boundary > BOUNDARY_TOL:
        warnings.warn(
            f"ancilla boundary population reached {worst_boundary:.2e}; "
            f"cutoff {config.cutoff} is too small for this model",
            TruncationWarning,
            stacklevel=2,
        )
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b."""
    a = require_square(a, "trace_distance lhs")
    b = require_square(b, "trace_distance rhs")
    if a.shape != b.shape:
        raise DimensionError("trace_distance operands differ in shape")
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())


@dataclass
class CollisionResult:
    """Error table of a convergence study against exp(t L')."""

    dts: list
    errors: list
    fitted_order: float
    ratios: list
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
    distance recorded.  The empirical order is the log-log slope; a
    non-monotone error sequence (10 percent slack for noise) is flagged
    in the result, not fatal.
    """
    if t_final <= 0:
        raise DomainError("t_final must be positive")
    dts = sorted((float(dt) for dt in dts), reverse=True)
    if len(dts) < 2:
        raise DomainError("need at least two step sizes to study convergence")
    errors = []
    for dt in dts:
        steps = max(1, int(round(t_final / dt)))
        config = CollisionConfig(model=model, dt=dt, steps=steps, cutoff=cutoff)
        grid = np.arange(steps + 1) * dt
        approx = simulate(config, rho0)
        exact = evolve(model, rho0, grid, method="expm")
        errors.append(max(
            trace_distance(approx[k], exact[k]) for k in range(steps + 1)
        ))
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    monotone = all(errors[i + 1] <= errors[i] * 1.1 for i in range(len(errors) - 1))
    return CollisionResult(
        dts=list(dts),
        errors=errors,
        fitted_order=slope,
        ratios=ratios,
        monotone=monotone,
    )
