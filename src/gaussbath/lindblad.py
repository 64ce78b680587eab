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

which is unital (L(1) = 0).  GKSForm.sandwiches lists L as six sandwiches
of d x d factors; linalg's one assembly sums them from the nonzeros of the
factors (heisenberg_matrix).  The Schrodinger generator L' = L+ is the
Hilbert-Schmidt adjoint, so tr(L(X) rho) = tr(X L'(rho)) by construction;
every L' sums the adjoint sandwiches sandwich(A+, B+), dense in
schrodinger_matrix and CSC in schrodinger_sparse, equal bit for bit.
steady_state solves it by a sparse LU with its row 0 replaced by the scaled
trace functional, certified by a condition estimate; the dense SVD of L'
decides only when that certificate fails.
evolve takes an evenly spaced grid, so a trajectory is one step map
repeated; its "expm" takes the dense map exp(dt L') or one expm_multiply
call through the sparse L', as linalg.dense_exp_is_cheaper picks.  The
independent evidence for L is the Ito-closure test, which rebuilds L(X)
column by column as the dt part of dU+ X + X dU + dU+ X dU from the
Gaussian Ito table in noise.
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
)
from .linalg import (
    DEFAULT_TOL,
    MAX_DENSE_DIM,
    adjoint,
    dense_exp_is_cheaper,
    devectorize,
    expm_action,
    is_hermitian,
    is_psd,
    mat_exp,
    negligible,
    operator_norm,
    propagate,
    psd_eigh,
    require_dense,
    require_finite_result,
    require_square,
    sandwich,
    sandwich_sum,
    sandwich_sum_sparse,
    vectorize,
)
from .noise import NoiseParams

__all__ = [
    "GKSForm",
    "SystemModel",
    "commutator_superoperator",
    "dissipation_quadratic",
    "evolve",
    "extract_commutator_hamiltonian",
    "gks_decompose",
    "heisenberg_generator",
    "schrodinger_liouvillian",
    "steady_state",
    "validate_density_matrix",
]


# Relative singular-value threshold for the Liouvillian kernel in steady_state;
# its inverse bounds the condition estimate of the sparse solve.
RANK_RTOL = 1e-10

# The OverflowError of every generator assembly, L or L', dense or sparse.
_OVERFLOW = "generator overflow: the Heisenberg generator"


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
        if not is_hermitian(self.F):
            raise DomainError("F must be Hermitian")

    @property
    def dim(self) -> int:
        return self.C.shape[0]


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity and positivity (psd_eigh at the unit-trace scale) and unit trace."""
    rho = require_square(rho, "density matrix")
    psd_eigh(rho, 1.0, name="density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > DEFAULT_TOL:
        raise DomainError(f"density matrix has trace {tr}, expected 1")
    return rho


def _kossakowski_sum(k: np.ndarray, jumps) -> np.ndarray:
    """sum_jl (K_jl V_j+) V_l over a jump basis V, the weight on a factor before the product."""
    return sum(
        (k[j, l] * adjoint(vj)) @ vl
        for j, vj in enumerate(jumps)
        for l, vl in enumerate(jumps)
    )


def _bath_matrix(noise: NoiseParams) -> np.ndarray:
    """[[n+1, m], [conj(m), n]]: the Kossakowski matrix over (C, C+) per unit gamma."""
    return np.array([[noise.n + 1.0, noise.m], [np.conj(noise.m), noise.n]], dtype=complex)


def dissipation_quadratic(model: SystemModel) -> np.ndarray:
    """The Hermitian quadratic Q = (n+1) C+C + n CC+ + conj(m) CC + m C+C+."""
    return _kossakowski_sum(_bath_matrix(model.noise), (model.C, adjoint(model.C)))


def heisenberg_generator(model: SystemModel) -> np.ndarray:
    """Superoperator of L(X) acting on column-stacked X."""
    return gks_decompose(model).heisenberg_matrix()


def schrodinger_liouvillian(model: SystemModel) -> np.ndarray:
    """Superoperator of L'(rho) = ... - G rho - rho G+, the adjoint of L."""
    return gks_decompose(model).schrodinger_matrix()


def commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """Superoperator of X -> i[h, X] on column-stacked X."""
    h = require_square(h, "commutator argument")
    eye = np.eye(h.shape[0])
    return 1j * (sandwich(h, eye) - sandwich(eye, h))


def extract_commutator_hamiltonian(s: np.ndarray) -> tuple[np.ndarray, float]:
    """Recover h (up to a multiple of the identity) from s = i[h, .].

    s[:d, j] is the first column of i[h, |j><0|], i (h - h_00) |j>, so
    h less h_00 is read off s[:d, :d].  Its Hermitian part is returned
    with the residual norm of s minus the rebuilt commutator superoperator.
    """
    s = require_square(s, "superoperator")
    d = int(round(np.sqrt(s.shape[0])))
    if d * d != s.shape[0]:
        raise DimensionError("superoperator dimension is not a perfect square")
    h_raw = -1j * s[:d, :d]
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
        """G = i H_eff + 1/2 sum_jk K_jk V_j+ V_k, so that L(X) = ... - X G - G+ X.

        -G is the dt coefficient of the evolution equation.  G + G+ =
        gamma Q, so the anti-Hermitian part carries F, the displacement
        and sigma while the Hermitian part is pure dissipation.
        """
        return 1j * self.h_eff + 0.5 * _kossakowski_sum(self.kossakowski, self.jumps)

    def sandwiches(self) -> list:
        """The six (A, B) of L = sum sandwich(A, B): sum_jk K_jk V_j+ X V_k - X G - G+ X.

        Weights go on the d x d factors so each product is formed once.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.effective_G()
            eye = np.eye(g.shape[0])
            return [(eye, -g), (-adjoint(g), eye)] + [
                (self.kossakowski[j, k] * adjoint(vj), vk)
                for j, vj in enumerate(self.jumps) for k, vk in enumerate(self.jumps)]

    def heisenberg_matrix(self) -> np.ndarray:
        """L as a dense array; a generator beyond the double range raises OverflowError."""
        return sandwich_sum(self.sandwiches(), _OVERFLOW)

    def schrodinger_sandwiches(self) -> list:
        """The (A+, B+) of L' = L+, by sandwich(A, B)+ = sandwich(A+, B+)."""
        return [(adjoint(a), adjoint(b)) for a, b in self.sandwiches()]

    def schrodinger_matrix(self) -> np.ndarray:
        """L' as a dense array, equal entry for entry to schrodinger_sparse."""
        return sandwich_sum(self.schrodinger_sandwiches(), _OVERFLOW)

    def schrodinger_sparse(self):
        """L' as a scipy.sparse CSC array."""
        return sandwich_sum_sparse(self.schrodinger_sandwiches(), _OVERFLOW)

    def kossakowski_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.kossakowski)

    def is_cp(self, tol: float = 1e-12) -> bool:
        """K is PSD: no eigenvalue below -tol times the largest |eigenvalue|."""
        return is_psd(self.kossakowski, rtol=tol)


def gks_decompose(model: SystemModel) -> GKSForm:
    """Write the Heisenberg generator in Kossakowski form over (C, C+).

        L(X) = i[H_eff, X]
               + sum_jk K_jk ( V_j+ X V_k - 1/2 {V_j+ V_k, X} )

    with H_eff = F + conj(alpha) C + alpha C+ + sigma Q and

        K = gamma [[n+1, m], [conj(m), n]].

    K is PSD exactly on the Gaussian-valid region |m|^2 <= n(n+1); an
    unphysical m shows up as a negative eigenvalue, not as an error.
    H_eff or K beyond the double range raises OverflowError.
    """
    noise = model.noise
    alpha = noise.alpha
    with np.errstate(over="ignore", invalid="ignore"):
        h_eff = (
            model.F
            + np.conj(alpha) * model.C
            + alpha * adjoint(model.C)
            + _kossakowski_sum(noise.sigma * _bath_matrix(noise), (model.C, adjoint(model.C)))
        )
        kossakowski = noise.gamma * _bath_matrix(noise)
    for part in (h_eff, kossakowski):
        require_finite_result(part, "generator overflow: the Kossakowski form")
    return GKSForm(h_eff=h_eff, jumps=(model.C, adjoint(model.C)), kossakowski=kossakowski)


def _rk4_default_step(model: SystemModel, spacing: float) -> float:
    noise = model.noise
    norm_c = operator_norm(model.C)  # a float product overflows to inf, unlike float ** 2
    scale = noise.gamma * (2.0 * noise.n + 1.0 + 2.0 * abs(noise.m)) * norm_c * norm_c
    scale += operator_norm(model.F)
    step = spacing / 20.0
    if scale > 0.0:
        step = min(step, 0.01 / scale)
    return step


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("time grid must be a one-dimensional array")
    if not np.all(np.isfinite(grid)):
        raise DomainError("time grid must be finite")
    if grid[0] != 0:
        raise DomainError("time grid must start at 0")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise DomainError("time grid must be strictly increasing")
    # Against np.linspace itself, which the command line grid equals bit for bit,
    # even where k grid[1] is far from it (a subnormal step).
    deviation = np.abs(grid - np.linspace(0.0, grid[-1], grid.size))
    if not np.all(negligible(deviation, grid[-1], 1e-12)):
        raise DomainError("time grid must be evenly spaced, within 1e-12 of its last point")
    return grid


def _taylor4(a: np.ndarray) -> np.ndarray:
    """I + A + A^2/2 + A^3/6 + A^4/24 in Horner form: one RK4 step of a linear ODE."""
    eye = np.eye(a.shape[0])
    t = eye + a / 4.0
    for k in (3.0, 2.0, 1.0):
        t = eye + (a @ t) / k
    return t


def evolve(
    model: SystemModel,
    rho0: np.ndarray,
    grid: np.ndarray,
    method: str = "expm",
) -> np.ndarray:
    """Propagate rho0 along an evenly spaced grid under exp(t L').

    The grid starts at 0 and deviates from np.linspace(0, grid[-1],
    grid.size) by at most 1e-12 of grid[-1], else DomainError; its step
    dt = grid[1] makes one map, so the trajectory is that map repeated.
    One gks_decompose per call serves the route rule and every L' it takes.
    "expm" takes the route linalg.dense_exp_is_cheaper picks for L' and
    the grid: the map exp(dt L') applied by linalg.propagate, or one
    expm_multiply call over the whole grid.  A non-finite state raises
    OverflowError on either route, as does dt L' or an RK4 substep count
    beyond the double range.  "rk4" takes nsub equal substeps h <=
    min(dt/20, 0.01/scale), scale = gamma (2n+1+2|m|) ||C||^2 + ||F||.
    One RK4 substep of a linear equation is exactly T4(hL') = I + hL' +
    (hL')^2/2 + (hL')^3/6 + (hL')^4/24, so the map is T4(hL')^nsub by
    repeated squaring: O(d^6 log nsub) in place of 4 nsub O(d^4) matvecs
    per interval, which is less work once t_final exceeds about d/40 (for
    very short runs at large d, matvecs take fewer flops).  Taylor-4
    substeps stay an independent check of the Pade expm, so "rk4" rejects
    d >= 46, and either method a grid too long to store, both up front by
    linalg.require_dense.
    """
    grid = _check_grid(grid)
    rho0 = validate_density_matrix(rho0)
    d = model.dim
    if rho0.shape[0] != d:
        raise DimensionError("rho0 dimension does not match the model")
    if method not in ("expm", "rk4"):
        raise DomainError(f"method must be 'expm' or 'rk4', got {method!r}")
    require_dense(grid.size * d * d, f"a time grid of {grid.size} points at d = {d}",
                  "points * d^2")
    if method == "rk4":
        require_dense(d**4, f"method 'rk4' at d = {d} (d^2 = {d * d})", "(d^2)^2",
                      "; use --method expm")
    if grid.size == 1:
        return np.array([rho0])
    dt, count = grid[1], grid.size - 1
    form = gks_decompose(model)
    if method == "expm" and not dense_exp_is_cheaper(form.schrodinger_sandwiches(), dt, count):
        vecs = expm_action(form.schrodinger_sparse(), vectorize(rho0), "the trajectory",
                           start=0.0, stop=count * dt, num=count + 1, endpoint=True)
        vecs[0] = vectorize(rho0)
        return devectorize(vecs, d)
    liouv = form.schrodinger_matrix()
    rk4_step = _rk4_default_step(model, dt) if method == "rk4" else np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # expm: one substep
        nsub = max(1, ceil(require_finite_result(
            dt / rk4_step, "evolve overflow: the RK4 substep count")))
        step = require_finite_result((dt / nsub) * liouv, "evolve overflow: dt L'")
    step_map = mat_exp(step) if method == "expm" else np.linalg.matrix_power(_taylor4(step), nsub)
    return propagate(rho0, step_map, count)


def steady_state(model: SystemModel) -> np.ndarray:
    """Stationary density matrix: the Liouvillian kernel by one sparse LU solve.

    L' is the sparse CSC matrix of GKSForm.schrodinger_sparse.  Its row
    0, the (0, 0) diagonal equation, depends on the others because L'
    preserves trace, so A is L' with row 0 replaced by s vec(I)+,
    s = ||L'||_1; then A vec(rho) = s e_0 holds the stationarity and
    tr rho = 1, and the scale s keeps both the answer and the certificate
    unchanged by the unit of time.  The certificate is the
    condition estimate kappa = ||A||_1 onenormest(A^-1).  When the LU
    finds A singular or kappa >= 1/RANK_RTOL, the dense SVD of L' decides
    (_dense_kernel_vector): it counts the kernel and raises
    DegenerateKernelError with kernel_dim unless that count is one.
    Above the MAX_DENSE_DIM budget for d^2 it raises at once, naming kappa,
    with kernel_dim None.  The result is Hermitian-projected,
    trace-normalized and checked positive.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    d = model.dim
    form = gks_decompose(model)
    liouv = form.schrodinger_sparse()
    scale = scipy.sparse.linalg.norm(liouv, 1)
    liouv.data[liouv.indices == 0] = 0.0  # row 0 gives way to the trace row
    trace_row = scipy.sparse.csc_array(
        (np.full(d, scale, dtype=complex), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))),
        shape=liouv.shape,
    )
    a = liouv + trace_row
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = scale
    try:
        lu = scipy.sparse.linalg.splu(a)
    except RuntimeError:  # SuperLU: the factor is exactly singular
        kappa = np.inf
    else:
        inverse = scipy.sparse.linalg.LinearOperator(
            a.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="H"), dtype=complex
        )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vec = lu.solve(rhs)
            # t = 1 draws no random columns, so the estimate is reproducible.
            kappa = scipy.sparse.linalg.norm(a, 1) * scipy.sparse.linalg.onenormest(inverse, t=1)
    if not kappa < 1.0 / RANK_RTOL:  # NaN included
        vec = _dense_kernel_vector(form, kappa)
    rho = devectorize(vec, d)
    rho = (rho + adjoint(rho)) / 2.0
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DecompositionError("kernel element of the Liouvillian is traceless")
    rho = rho / tr
    try:
        psd_eigh(rho, 1.0, name="steady state")
    except DomainError as exc:
        raise DecompositionError(str(exc)) from exc
    return rho


def _dense_kernel_vector(form: GKSForm, kappa: float) -> np.ndarray:
    """The right singular vector of the smallest singular value of the dense L' of form.

    A kernel of dimension other than one, counted at RANK_RTOL relative to
    the largest singular value, raises DegenerateKernelError with the count.
    """
    d = form.h_eff.shape[0]
    if d * d > MAX_DENSE_DIM:
        raise DegenerateKernelError(
            f"Liouvillian kernel is not certified one-dimensional: condition estimate "
            f"{kappa:.3e} >= {1.0 / RANK_RTOL:.0e}, and d^2 = {d * d} is beyond the "
            f"dense budget {MAX_DENSE_DIM} for counting it",
            kernel_dim=None,
        )
    _, svals, vh = np.linalg.svd(form.schrodinger_matrix())
    kernel_dim = int(np.sum(negligible(svals, svals[0], RANK_RTOL)))
    if kernel_dim != 1:
        raise DegenerateKernelError(
            f"Liouvillian kernel has dimension {kernel_dim}, expected 1",
            kernel_dim=kernel_dim,
        )
    return vh[-1].conj()
