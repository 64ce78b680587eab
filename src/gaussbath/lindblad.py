"""Master-equation engine for a system driven by one Gaussian channel.

The system couples to the bath through an operator C, with free
Hamiltonian F, channel weight kappa = gamma/2 + i*sigma and bath state
(n, m, alpha).  The evolution equation dU = -iC U dA+ - iC+ U dA - G U dt
with

    G = i(F + conj(alpha) C + alpha C+)
        + kappa ((n+1) C+C + n CC+ + conj(m) CC + m C+C+)

closes, via the Gaussian Ito table, into the Heisenberg generator

    L(X) = gamma [ (n+1) C+XC + n CXC+ + conj(m) CXC + m C+XC+ ]
           - X G - G+ X,

which is unital (L(1) = 0).  GKSForm.heisenberg_matrix is the one
place a generator is assembled; the Schrodinger generator is its
Hilbert-Schmidt adjoint L' = L+, so tr(L(X) rho) = tr(X L'(rho)) holds by
construction.  The independent evidence for L is the Ito-closure test,
which rebuilds L(X) column by column as the dt part of
dU+ X + X dU + dU+ X dU from the Gaussian Ito table in noise.
All superoperators act on column-stacked operators (see linalg).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import (
    DecompositionError,
    DegenerateKernelError,
    DimensionError,
    DomainError,
    FormatError,
)
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    devectorize,
    is_hermitian,
    mat_exp,
    operator_norm,
    require_square,
    sandwich,
    vectorize,
)
from .noise import NoiseParams
from .wick import NORMAL_ORDERED, ItoCoefficients

__all__ = [
    "GKSForm",
    "StepFunction",
    "SystemModel",
    "commutator_superoperator",
    "dissipation_quadratic",
    "effective_G",
    "evolve",
    "exp_vector_propagator",
    "extract_commutator_hamiltonian",
    "gks_decompose",
    "heisenberg_generator",
    "schrodinger_liouvillian",
    "steady_state",
    "validate_density_matrix",
]


# Relative singular-value threshold for the Liouvillian kernel in steady_state.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SystemModel:
    """System operators (C, F) plus the channel parameters."""

    C: np.ndarray
    F: np.ndarray
    noise: NoiseParams

    def __post_init__(self):
        object.__setattr__(self, "C", require_square(self.C, "C"))
        object.__setattr__(self, "F", require_square(self.F, "F"))
        if self.C.shape != self.F.shape:
            raise DimensionError("C and F must share one dimension")
        if not (np.all(np.isfinite(self.C)) and np.all(np.isfinite(self.F))):
            raise DomainError("C and F must be finite")
        if not is_hermitian(self.F, 1e-9):
            raise DomainError("F must be Hermitian")

    @property
    def dim(self) -> int:
        return self.C.shape[0]


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity within DEFAULT_TOL."""
    rho = require_square(rho, "density matrix")
    if not is_hermitian(rho):
        raise DomainError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho)
    if abs(tr - 1.0) > DEFAULT_TOL:
        raise DomainError(f"density matrix has trace {tr}, expected 1")
    evals = np.linalg.eigvalsh((rho + adjoint(rho)) / 2.0)
    if evals.min() < -DEFAULT_TOL:
        raise DomainError(f"density matrix has eigenvalue {evals.min():.3e} < 0")
    return rho


def _kossakowski_sum(k: np.ndarray, jumps) -> np.ndarray:
    """sum_jl K_jl V_j+ V_l over a jump basis V."""
    return sum(
        k[j, l] * (adjoint(vj) @ vl)
        for j, vj in enumerate(jumps)
        for l, vl in enumerate(jumps)
    )


def _bath_matrix(noise: NoiseParams) -> np.ndarray:
    """[[n+1, m], [conj(m), n]]: the Kossakowski matrix over (C, C+) per unit gamma."""
    return np.array([[noise.n + 1.0, noise.m], [np.conj(noise.m), noise.n]], dtype=complex)


def dissipation_quadratic(model: SystemModel) -> np.ndarray:
    """The Hermitian quadratic Q = (n+1) C+C + n CC+ + conj(m) CC + m C+C+."""
    return _kossakowski_sum(_bath_matrix(model.noise), (model.C, adjoint(model.C)))


def effective_G(model: SystemModel) -> np.ndarray:
    """The dt coefficient -G of the evolution equation, returned as G.

    G + G+ = gamma Q, so the anti-Hermitian part carries F, the
    displacement and sigma while the Hermitian part is pure dissipation.
    """
    return gks_decompose(model).effective_G()


def heisenberg_generator(model: SystemModel) -> np.ndarray:
    """Superoperator of L(X) acting on column-stacked X."""
    return gks_decompose(model).heisenberg_matrix()


def schrodinger_liouvillian(model: SystemModel) -> np.ndarray:
    """Superoperator of L'(rho) = ... - G rho - rho G+, the adjoint of L."""
    return adjoint(heisenberg_generator(model))


def commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """Superoperator of X -> i[h, X] on column-stacked X."""
    h = require_square(h, "commutator argument")
    eye = np.eye(h.shape[0])
    return 1j * (sandwich(h, eye) - sandwich(eye, h))


def extract_commutator_hamiltonian(s: np.ndarray) -> tuple[np.ndarray, float]:
    """Recover h (up to a multiple of the identity) from s = i[h, .].

    Probes the superoperator on |j><0| and reads the first column.  The
    Hermitian part of the probe is returned together with the residual
    norm of s minus the reconstructed commutator superoperator.
    """
    s = require_square(s, "superoperator")
    d = int(round(np.sqrt(s.shape[0])))
    if d * d != s.shape[0]:
        raise DimensionError("superoperator dimension is not a perfect square")
    h_raw = np.zeros((d, d), dtype=complex)
    for j in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[j, 0] = 1.0
        phi_e = devectorize(s @ vectorize(e), d)
        h_raw[:, j] = -1j * phi_e[:, 0]
    h_raw -= h_raw[0, 0] * np.eye(d)
    h = (h_raw + adjoint(h_raw)) / 2.0
    residual = operator_norm(s - commutator_superoperator(h))
    return h, residual


@dataclass
class GKSForm:
    """Generator split into Hamiltonian plus Kossakowski dissipator.

    ``jumps`` is the fixed operator basis (C, C+) and ``kossakowski``
    the 2x2 coefficient matrix; the state is Gaussian-physical exactly
    when that matrix is positive semidefinite.
    """

    h_eff: np.ndarray
    jumps: tuple[np.ndarray, np.ndarray]
    kossakowski: np.ndarray

    def effective_G(self) -> np.ndarray:
        """G = i H_eff + 1/2 sum_jk K_jk V_j+ V_k, so that L(X) = ... - X G - G+ X."""
        return 1j * self.h_eff + 0.5 * _kossakowski_sum(self.kossakowski, self.jumps)

    def heisenberg_matrix(self) -> np.ndarray:
        """The Heisenberg superoperator: sum_jk K_jk V_j+ X V_k - X G - G+ X."""
        g = self.effective_G()
        eye = np.eye(g.shape[0])
        # Weights go on the d x d factors so each d^4 product is formed once.
        out = sandwich(eye, -g)
        out += sandwich(-adjoint(g), eye)
        for j, vj in enumerate(self.jumps):
            for k, vk in enumerate(self.jumps):
                out += sandwich(self.kossakowski[j, k] * adjoint(vj), vk)
        return out

    def kossakowski_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.kossakowski)

    def is_cp(self, tol: float = 1e-12) -> bool:
        return bool(self.kossakowski_eigenvalues().min() >= -tol)


def gks_decompose(model: SystemModel) -> GKSForm:
    """Write the Heisenberg generator in Kossakowski form over (C, C+).

        L(X) = i[H_eff, X]
               + sum_jk K_jk ( V_j+ X V_k - 1/2 {V_j+ V_k, X} )

    with H_eff = F + conj(alpha) C + alpha C+ + sigma Q and

        K = gamma [[n+1, m], [conj(m), n]].

    K is PSD exactly on the Gaussian-valid region |m|^2 <= n(n+1); an
    unphysical m shows up as a negative eigenvalue, not as an error.
    """
    noise = model.noise
    alpha = noise.alpha
    h_eff = (
        model.F
        + np.conj(alpha) * model.C
        + alpha * adjoint(model.C)
        + noise.sigma * dissipation_quadratic(model)
    )
    return GKSForm(
        h_eff=h_eff,
        jumps=(model.C, adjoint(model.C)),
        kossakowski=noise.gamma * _bath_matrix(noise),
    )


def _rk4_default_step(model: SystemModel, spacing: float) -> float:
    noise = model.noise
    scale = noise.gamma * (2.0 * noise.n + 1.0 + 2.0 * abs(noise.m)) * operator_norm(model.C) ** 2
    scale += operator_norm(model.F)
    step = spacing / 20.0
    if scale > 0.0:
        step = min(step, 0.01 / scale)
    return step


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("time grid must be a one-dimensional array")
    if abs(grid[0]) > 1e-15:
        raise DomainError("time grid must start at 0")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise DomainError("time grid must be strictly increasing")
    return grid


def evolve(
    model: SystemModel,
    rho0: np.ndarray,
    grid: np.ndarray,
    method: str = "expm",
) -> np.ndarray:
    """Propagate rho0 along the grid under exp(t L').

    method "expm" exponentiates the Liouvillian per grid interval
    (exact up to roundoff); "rk4" integrates with a fixed substep of
    the smallest spacing/20, capped by 0.01 over the generator scale
    gamma (2n+1+2|m|) ||C||^2 + ||F||.
    """
    grid = _check_grid(grid)
    rho0 = validate_density_matrix(rho0)
    if rho0.shape[0] != model.dim:
        raise DimensionError("rho0 dimension does not match the model")
    liouv = schrodinger_liouvillian(model)
    d = model.dim
    out = np.empty((grid.size, d, d), dtype=complex)
    out[0] = rho0
    if grid.size == 1:
        return out
    spacings = np.diff(grid)

    if method == "expm":
        cache: dict[float, np.ndarray] = {}
        v = vectorize(rho0)
        for idx, dt in enumerate(spacings):
            key = round(float(dt), 15)
            if key not in cache:
                cache[key] = mat_exp(dt * liouv)
            v = cache[key] @ v
            out[idx + 1] = devectorize(v, d)
        return out

    if method == "rk4":
        step = _rk4_default_step(model, spacings.min())
        v = vectorize(rho0)
        for idx, dt in enumerate(spacings):
            nsub = max(1, ceil(dt / step))
            h = dt / nsub
            for _ in range(nsub):
                k1 = liouv @ v
                k2 = liouv @ (v + 0.5 * h * k1)
                k3 = liouv @ (v + 0.5 * h * k2)
                k4 = liouv @ (v + h * k3)
                v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[idx + 1] = devectorize(v, d)
        return out

    raise DomainError(f"method must be 'expm' or 'rk4', got {method!r}")


def steady_state(model: SystemModel) -> np.ndarray:
    """Stationary density matrix from the Liouvillian kernel.

    Takes the right singular vector of the smallest singular value,
    Hermitian-projects and trace-normalizes.  A kernel of dimension
    other than one raises DegenerateKernelError carrying the count.
    """
    liouv = schrodinger_liouvillian(model)
    d = model.dim
    _, svals, vh = np.linalg.svd(liouv)
    threshold = max(float(svals[0]), 1.0) * RANK_RTOL
    kernel_dim = int(np.sum(svals <= threshold))
    if kernel_dim != 1:
        raise DegenerateKernelError(
            f"Liouvillian kernel has dimension {kernel_dim}, expected 1",
            kernel_dim=kernel_dim,
        )
    rho = devectorize(vh[-1].conj(), d)
    rho = (rho + adjoint(rho)) / 2.0
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DecompositionError("kernel element of the Liouvillian is traceless")
    rho = rho / tr
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -DEFAULT_TOL:
        raise DecompositionError(
            f"steady state has negative eigenvalue {evals.min():.3e}"
        )
    return rho


class StepFunction:
    """Piecewise-constant complex test function on [0, infinity).

    ``times`` are the ascending breakpoints starting at 0, ``values``
    the value on [times[k], times[k+1]); the final value extends to
    infinity.
    """

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=complex)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise FormatError("times and values must be 1d arrays of equal length")
        if times.size == 0 or abs(times[0]) > 1e-15:
            raise FormatError("step function breakpoints must start at 0")
        if np.any(np.diff(times) <= 0):
            raise FormatError("step function breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise FormatError("step function data must be finite")
        self.times = times
        self.values = values

    @classmethod
    def constant(cls, value: complex) -> "StepFunction":
        return cls([0.0], [value])

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls.constant(0.0)

    def __call__(self, t: float) -> complex:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return complex(self.values[max(idx, 0)])

    def breakpoints_within(self, t: float) -> np.ndarray:
        return self.times[(self.times > 0.0) & (self.times < t)]


def _as_step_function(f) -> StepFunction:
    if f is None:
        return StepFunction.zero()
    if isinstance(f, StepFunction):
        return f
    if isinstance(f, (int, float, complex)):
        return StepFunction.constant(complex(f))
    raise FormatError(
        "test functions must be StepFunction instances or constants; "
        f"got {type(f).__name__}"
    )


def exp_vector_propagator(
    l: ItoCoefficients,
    f,
    g,
    t: float,
    weighting: str = "unweighted",
    gamma: float | None = None,
) -> np.ndarray:
    """Matrix-element propagator between exponential vectors.

    Solves dT/ds = (L00 + lam_g(s) L01 + conj(lam_f(s)) L10
    + conj(lam_f(s)) lam_g(s) L11) T with T_0 = 1, where lam is the
    annihilator eigenvalue on an exponential vector: the test function
    itself for weighting "unweighted", or gamma times it for weighting
    "gamma" (the two readings of the exponential-vector normalization).
    Step functions make the solution a product of matrix exponentials,
    one per constancy interval.
    """
    if l.kind != NORMAL_ORDERED:
        raise DomainError("exp_vector_propagator expects normal-ordered coefficients")
    if t < 0:
        raise DomainError("t must be nonnegative")
    if weighting not in ("unweighted", "gamma"):
        raise DomainError(f"weighting must be 'unweighted' or 'gamma', got {weighting!r}")
    scale = 1.0
    if weighting == "gamma":
        if gamma is None or not gamma > 0:
            raise DomainError("gamma weighting requires a positive gamma")
        scale = gamma
    fs, gs = _as_step_function(f), _as_step_function(g)

    d = l.dim
    result = np.eye(d, dtype=complex)
    if t == 0:
        return result
    cuts = np.unique(np.concatenate(
        [[0.0, t], fs.breakpoints_within(t), gs.breakpoints_within(t)]
    ))
    for left, right in zip(cuts[:-1], cuts[1:]):
        lam_f = scale * fs(left)
        lam_g = scale * gs(left)
        gen = (
            l.c00
            + lam_g * l.c01
            + np.conj(lam_f) * l.c10
            + np.conj(lam_f) * lam_g * l.c11
        )
        result = mat_exp((right - left) * gen) @ result
    return result
