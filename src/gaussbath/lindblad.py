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
of d x d factors.  The Schrodinger generator L' = L+ is the Hilbert-Schmidt
adjoint, so tr(L(X) rho) = tr(X L'(rho)) by construction.  Model and form
are immutable: SystemModel.form is the one GKSForm, GKSForm.liouvillian
the one L', the adjoint pairs (A+, B+) summed by linalg.sandwich_sum on
first use and read through its dense or CSC view; L is its adjoint.
steady_state solves it with its row 0 replaced by the scaled trace
functional, certified by the condition number kappa_1: by a numpy inverse
(kappa exact) up to d^2 = linalg.MAX_DENSE_SOLVE_DIM, so a small model
loads no scipy, and by scipy's sparse LU (kappa estimated) above it; the
dense SVD of that L' decides only when that certificate fails.
A trajectory is (dt, steps): one step map applied steps times, checked
by validate_trajectory for evolve and the collision chain alike.
evolve's "expm" builds one linalg.exp_plan of L' and takes the route it
names: the dense map exp(dt L') or one linalg.expm_action call on it.  The
independent evidence for L is the Ito-closure test, which rebuilds L(X)
column by column as the dt part of dU+ X + X dU + dU+ X dU from the
Gaussian Ito table in noise.
All superoperators act on column-stacked operators (see linalg).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, isqrt

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
    MAX_DENSE_SOLVE_DIM,
    SandwichSum,
    adjoint,
    devectorize,
    exp_plan,
    expm_action,
    hermitian_part,
    is_hermitian,
    mat_exp,
    negligible,
    operator_norm,
    propagate,
    psd_eigh,
    require_dense,
    require_finite_result,
    require_square,
    sandwich_sum,
    vectorize,
)
from .noise import NoiseParams, require_count, require_positive

__all__ = [
    "GKSForm",
    "SystemModel",
    "evolve",
    "gks_decompose",
    "heisenberg_generator",
    "schrodinger_liouvillian",
    "steady_state",
    "validate_density_matrix",
    "validate_trajectory",
]


# Relative singular-value threshold for the Liouvillian kernel in steady_state;
# its inverse bounds the condition number kappa_1 of the kernel solve.
RANK_RTOL = 1e-10

# The OverflowError of the one generator assembly, L'.
_OVERFLOW = "generator overflow: the Heisenberg generator"


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a, so that no later write reaches what is built from it."""
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SystemModel:
    """System operators (C, F) plus the channel parameters; C and F are read-only copies."""

    C: np.ndarray
    F: np.ndarray
    noise: NoiseParams

    def __post_init__(self):
        object.__setattr__(self, "C", _read_only(require_square(self.C, "C")))
        object.__setattr__(self, "F", _read_only(require_square(self.F, "F")))
        if self.C.shape != self.F.shape:
            raise DimensionError("C and F must share one dimension")
        if not (np.all(np.isfinite(self.C)) and np.all(np.isfinite(self.F))):
            raise DomainError("C and F must be finite")
        if not is_hermitian(self.F):
            raise DomainError("F must be Hermitian")

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    @cached_property
    def form(self) -> GKSForm:
        """The model's one Kossakowski form, gks_decompose(self), built on first use."""
        return gks_decompose(self)


def validate_density_matrix(rho: np.ndarray, dim: int) -> np.ndarray:
    """Check the dimension dim, Hermiticity and positivity (psd_eigh at the unit-trace
    scale) and unit trace: the one check of an initial state, evolve's or the chain's."""
    rho = require_square(rho, "density matrix")
    if rho.shape[0] != dim:
        raise DimensionError("rho0 dimension does not match the model")
    psd_eigh(rho, 1.0, name="density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > DEFAULT_TOL:
        raise DomainError(f"density matrix has trace {tr}, expected 1")
    return rho


def validate_trajectory(dt: float, steps: int, dim: int) -> int:
    """The one check of a trajectory, evolve's or the chain's: steps by noise.require_count
    (an integer >= 1), dt by noise.require_positive, then (steps + 1) d x d states within
    the dense budget.  Returns steps as a Python int."""
    steps = require_count("steps", steps, 1)
    require_positive(dt=dt)
    require_dense((steps + 1) * dim**2, f"{steps:.6g} steps of dt = {dt} "
                  f"(t_final = {steps * dt:.6g}) at d = {dim}", "(steps + 1) * d^2")
    return steps


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


def heisenberg_generator(model: SystemModel) -> np.ndarray:
    """Superoperator of L(X) acting on column-stacked X: the adjoint of the model's L'."""
    return adjoint(model.form.liouvillian.dense())


def schrodinger_liouvillian(model: SystemModel) -> np.ndarray:
    """Superoperator of L'(rho) = ... - G rho - rho G+: the model's L', dense."""
    return model.form.liouvillian.dense()


@dataclass(frozen=True)
class GKSForm:
    """Generator split into Hamiltonian plus Kossakowski dissipator.

    ``jumps`` is the fixed operator basis (C, C+) and ``kossakowski``
    the 2x2 coefficient matrix, positive semidefinite exactly where the
    bath passes noise.is_gaussian_state.  The arrays are read-only
    copies, so the L' assembled from them on first use cannot go stale.
    """

    h_eff: np.ndarray
    jumps: tuple[np.ndarray, np.ndarray]
    kossakowski: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_eff", _read_only(self.h_eff))
        object.__setattr__(self, "jumps", tuple(_read_only(v) for v in self.jumps))
        object.__setattr__(self, "kossakowski", _read_only(self.kossakowski))

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

    @cached_property
    def liouvillian(self) -> SandwichSum:
        """L' = L+ from the (A+, B+), by sandwich(A, B)+ = sandwich(A+, B+); OverflowError."""
        return sandwich_sum([(adjoint(a), adjoint(b)) for a, b in self.sandwiches()], _OVERFLOW)

    def kossakowski_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.kossakowski)


def gks_decompose(model: SystemModel) -> GKSForm:
    """Write the Heisenberg generator in Kossakowski form over (C, C+).

        L(X) = i[H_eff, X]
               + sum_jk K_jk ( V_j+ X V_k - 1/2 {V_j+ V_k, X} )

    with H_eff = F + conj(alpha) C + alpha C+ + sigma Q and

        K = gamma [[n+1, m], [conj(m), n]].

    K is PSD exactly on the Gaussian-valid region |m|^2 <= n(n+1), whose
    one test is noise.is_gaussian_state; an unphysical m shows up as a
    negative eigenvalue of K, not as an error.
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
    dt: float,
    steps: int,
    method: str = "expm",
) -> np.ndarray:
    """The (steps + 1, d, d) states exp(k dt L') rho0, k = 0, ..., steps.

    validate_trajectory checks (dt, steps), so the trajectory is one map
    repeated.  L' is the model's one assembly.  "expm" builds one
    linalg.exp_plan(L', dt, steps) and takes the route it names: the map
    exp(dt L') applied by linalg.propagate, or expm_action(plan, rho0), one
    call that runs the plan, a DomainError beyond its work budget (MAX_MATVECS).
    A non-finite state raises OverflowError on either route, as does dt L'
    or an RK4 substep count beyond the double range.  "rk4" takes nsub
    equal substeps h <= min(dt/20, 0.01/scale), scale = gamma (2n+1+2|m|)
    ||C||^2 + ||F||.  One RK4 substep of a linear equation is exactly
    T4(hL') = I + hL' + (hL')^2/2 + (hL')^3/6 + (hL')^4/24, so the map is
    T4(hL')^nsub by repeated squaring: O(d^6 log nsub) in place of 4 nsub
    O(d^4) matvecs per step, which is less work once t_final exceeds about
    d/40 (for very short runs at large d, matvecs take fewer flops).
    Taylor-4 substeps stay an independent check of the Pade expm, so
    "rk4" rejects d >= 46 up front by linalg.require_dense.
    """
    d = model.dim
    steps = validate_trajectory(dt, steps, d)
    rho0 = validate_density_matrix(rho0, d)
    if method not in ("expm", "rk4"):
        raise DomainError(f"method must be 'expm' or 'rk4', got {method!r}")
    if method == "rk4":
        require_dense(d**4, f"method 'rk4' at d = {d} (d^2 = {d * d})", "(d^2)^2",
                      "; use --method expm")
    liouv = model.form.liouvillian
    if method == "expm" and not (plan := exp_plan(liouv, dt, steps)).dense:
        return devectorize(expm_action(plan, vectorize(rho0), "the trajectory"), d)
    rk4_step = _rk4_default_step(model, dt) if method == "rk4" else np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # expm: one substep
        nsub = max(1, ceil(require_finite_result(
            dt / rk4_step, "evolve overflow: the RK4 substep count")))
        step = require_finite_result((dt / nsub) * liouv.dense(), "evolve overflow: dt L'")
        # A T4 power beyond the double range shows in the trajectory, which propagate checks.
        step_map = (mat_exp(step) if method == "expm"
                    else np.linalg.matrix_power(_taylor4(step), nsub))
    return propagate(rho0, step_map, steps)


def steady_state(model: SystemModel) -> np.ndarray:
    """Stationary density matrix: the Liouvillian kernel by one solve of a bordered system.

    L' is the model's GKSForm.liouvillian.  Its row 0, the (0, 0)
    diagonal equation, depends on the others because L' preserves trace,
    so A is L' with row 0 replaced by s vec(I)+, s = ||L'||_1; then
    A vec(rho) = s e_0 holds the stationarity and tr rho = 1, and the
    scale s keeps both the answer and the certificate unchanged by the
    unit of time.  _kernel_solve solves it and returns the certificate
    kappa = ||A||_1 ||A^-1||_1: exact from a numpy inverse up to
    d^2 = MAX_DENSE_SOLVE_DIM, estimated by onenormest on scipy's sparse
    LU above it.  When A is singular or kappa >= 1/RANK_RTOL, the dense
    SVD of the same assembled L' decides (_dense_kernel_vector): it counts
    the kernel and raises DegenerateKernelError with kernel_dim unless that
    count is one.  Above the MAX_DENSE_DIM budget for d^2 it raises at
    once, naming kappa, with kernel_dim None.  The result is projected by
    linalg.hermitian_part, trace-normalized and checked positive.
    """
    d = model.dim
    liouv = model.form.liouvillian
    vec, kappa = _kernel_solve(liouv)
    if not kappa < 1.0 / RANK_RTOL:  # NaN included
        vec = _dense_kernel_vector(liouv, kappa)
    rho = hermitian_part(devectorize(vec, d))
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DecompositionError("kernel element of the Liouvillian is traceless")
    rho = rho / tr
    try:
        psd_eigh(rho, 1.0, name="steady state")
    except DomainError as exc:
        raise DecompositionError(str(exc)) from exc
    return rho


def _kernel_solve(liouv: SandwichSum) -> tuple[np.ndarray | None, float]:
    """(vec, kappa) of steady_state's bordered system A vec = s e_0, from the assembled L'.

    Up to n = d^2 = MAX_DENSE_SOLVE_DIM by numpy alone: vec = s A^-1 e_0
    with the exact kappa = ||A||_1 ||A^-1||_1.  Above it by scipy's sparse
    LU, with ||A^-1||_1 estimated by onenormest.  A singular A gives
    (None, inf); A is built in new data, so liouv stays L'.
    """
    n = liouv.shape[0]
    d = isqrt(n)
    trace_cols = np.arange(d) * (d + 1)  # where vec(I) is 1
    if n <= MAX_DENSE_SOLVE_DIM:
        a = liouv.dense()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scale = np.linalg.norm(a, 1)
            a[0] = 0.0
            a[0, trace_cols] = scale
            try:
                inverse = np.linalg.inv(a)
            except np.linalg.LinAlgError:  # exactly singular
                return None, np.inf
            return scale * inverse[:, 0], np.linalg.norm(a, 1) * np.linalg.norm(inverse, 1)
    import scipy.sparse
    import scipy.sparse.linalg

    sparse = liouv.sparse()
    scale = scipy.sparse.linalg.norm(sparse, 1)
    sparse.data = np.where(sparse.indices == 0, 0.0, sparse.data)
    trace_row = scipy.sparse.csc_array(
        (np.full(d, scale, dtype=complex), (np.zeros(d, dtype=int), trace_cols)), shape=(n, n))
    a = sparse + trace_row
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = scale
    try:
        lu = scipy.sparse.linalg.splu(a)
    except RuntimeError:  # SuperLU: the factor is exactly singular
        return None, np.inf
    inverse = scipy.sparse.linalg.LinearOperator(
        a.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="H"), dtype=complex
    )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vec = lu.solve(rhs)
        # t = 1 draws no random columns, so the estimate is reproducible.
        kappa = scipy.sparse.linalg.norm(a, 1) * scipy.sparse.linalg.onenormest(inverse, t=1)
    return vec, kappa


def _dense_kernel_vector(liouv: SandwichSum, kappa: float) -> np.ndarray:
    """The right singular vector of the smallest singular value of liouv, L' assembled.

    A kernel of dimension other than one, counted at RANK_RTOL relative to
    the largest singular value, raises DegenerateKernelError with the count.
    """
    n = liouv.shape[0]
    if n > MAX_DENSE_DIM:
        raise DegenerateKernelError(
            f"Liouvillian kernel is not certified one-dimensional: condition estimate "
            f"{kappa:.3e} >= {1.0 / RANK_RTOL:.0e}, and d^2 = {n} is beyond the "
            f"dense budget {MAX_DENSE_DIM} for counting it",
            kernel_dim=None,
        )
    _, svals, vh = np.linalg.svd(liouv.dense())
    kernel_dim = int(np.sum(negligible(svals, svals[0], RANK_RTOL)))
    if kernel_dim != 1:
        raise DegenerateKernelError(
            f"Liouvillian kernel has dimension {kernel_dim}, expected 1",
            kernel_dim=kernel_dim,
        )
    return vh[-1].conj()
