"""Dense complex linear algebra underneath the noise engine.

Convention used repo-wide: vectorization is COLUMN stacking,
``vec(A) = A.flatten(order="F")``, so that

    vec(A X B) = (B^T kron A) vec(X) = sandwich(A, B) vec(X).

Superoperators are ``d**2 x d**2`` matrices acting on column-stacked
operators; vectorize and devectorize map stacks (..., d, d) <-> (..., d**2),
and a trajectory is one such stack.  sandwich_sum is the one assembly of a
sum of sandwiches, from the nonzeros of the factors, range-checked: a
SandwichSum with dense and scipy.sparse CSC views, equal bit for bit, and
a numpy matvec that sums in the CSC view's order.
The other helpers take and return plain ``numpy.ndarray`` with complex dtype.

The one Hermiticity check (is_hermitian) and positivity check (psd_eigh)
allow DEFAULT_TOL times a scale the caller names: an operand's own size,
the size of a difference's operands, or a density matrix's unit trace.
hermitian_part is the one projection of a computed matrix onto its
Hermitian part, exact where the matrix is Hermitian.

require_dense is the one dense-memory budget: a dense complex array sized by
the input, beyond the d x d operators, holds at most MAX_DENSE_DIM^2 entries
(64 MiB); it is checked where the input enters, before the allocation.

require_finite_result is the one overflow rule for results: a computed
array beyond the double range raises OverflowError "{what} is not
finite" (exit 3), while non-finite input is a DomainError where it
enters.  Each exponential exp(k step A), k <= count, of one assembled A
(evolve's L', the collision's -iH) has one ExpPlan, built once by
exp_plan from (A, step, count): mu, ||A - mu I||_1, the Taylor (m, s)
and the route, dense or not.  The dense route is one Pade map (mat_exp)
repeated by propagate; the other is expm_action(plan, v, what), which
runs that plan: Al-Mohy & Higham's Taylor blocks in numpy around
scipy.sparse's CSR matvec, with a work budget (MAX_MATVECS).  exp_plan
and mat_exp are numpy alone, so only expm_action and SandwichSum.sparse
load scipy.sparse.  MAX_DENSE_SOLVE_DIM is the size rule of the kernel
solve in lindblad.steady_state: a numpy inverse up to it, scipy's sparse
LU above it.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

# Relative for is_hermitian and psd_eigh; absolute for dimensionless is_unitary.
DEFAULT_TOL = 1e-9

# The side of the largest dense complex matrix that require_dense admits.
MAX_DENSE_DIM = 2048

# The largest side n = d^2 of a Liouvillian whose bordered kernel system steady_state
# inverts densely in numpy; above it, scipy's sparse LU.  A fixed size rule, whether or
# not scipy is loaded: on a 2-core VM the inverse at n = 256 took 8.5 ms against 1 ms
# for a warm LU, while loading scipy.sparse.linalg took 0.22-0.33 s, about 30 of those
# solves; at n = 400 and 576 the inverse took 23 and 53 ms.
MAX_DENSE_SOLVE_DIM = 256

# Al-Mohy & Higham (2011) Table 3.1: theta_m for m Taylor terms, as scipy's expm_multiply has it:
# m terms keep a block of ||w A||_1 <= theta_m within double precision.
_TAYLOR_M = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_THETA_M = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
    2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82,
    2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9])

# Higham (2005) Table 2.3: theta_m, the largest ||2^-s A||_1 at which the [m/m] Pade
# approximant of exp is exact in double precision.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 5.371920351148152}

# Flops per expm_action matvec of Python work.  Of 80 timed cases (evolve at d = 8-24 to
# t = 1, 5, 20 on 11-3,001 points; collision steps), no value routes all 72 clear ones
# (one route >= 1.25x faster): 7e4 misses 2, and 7.5e4, just above the 72,872 that keeps
# the d = 16 bench oscillator dense, 3.
MATVEC_OVERHEAD = 7.5e4

# The most matvecs one expm_action run may take: 14-26 us each at d = 24-64 and 110 us at
# d = 128 (2-core VM), so at most about 20 s at d = 46, t ||L'||_1 up to about 1.8e5.
MAX_MATVECS = 10**6

__all__ = [
    "DEFAULT_TOL",
    "ExpPlan",
    "MAX_DENSE_DIM",
    "MAX_DENSE_SOLVE_DIM",
    "MAX_MATVECS",
    "SandwichSum",
    "adjoint",
    "devectorize",
    "exp_plan",
    "expm_action",
    "hermitian_part",
    "is_hermitian",
    "is_psd",
    "is_unitary",
    "mat_exp",
    "mat_sqrt_psd",
    "negligible",
    "operator_norm",
    "partial_trace",
    "propagate",
    "psd_eigh",
    "require_dense",
    "require_finite_result",
    "require_square",
    "sandwich_sum",
    "sandwich_triplets",
    "vectorize",
]


def require_square(a: np.ndarray, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix or raise DimensionError."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def require_dense(entries: int, what: str, rule: str, hint: str = "") -> None:
    """DomainError naming what, the size rule and hint when entries > MAX_DENSE_DIM^2."""
    if entries > MAX_DENSE_DIM**2:
        raise DomainError(f"{what} breaks {rule} <= {MAX_DENSE_DIM**2}, "
                          f"the dense budget {MAX_DENSE_DIM}{hint}")


def require_finite_result(values, what: str):
    """values, or OverflowError "{what} is not finite" when an entry is not finite."""
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"{what} is not finite")
    return values


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), ord=2))


def negligible(residual, scale, rtol: float):
    """residual <= rtol * scale, elementwise: the one tolerance rule.

    scale is a size the caller names, so a common positive factor (a change of
    time unit) changes no answer, and a zero scale admits only a zero residual.
    """
    return residual <= rtol * scale


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dagger) / 2 of a matrix or of each of a stack, bit for bit a where a is Hermitian:
    each part is summed, then halved, so subnormals keep their last bit and zeros their sign;
    where a sum overflows, the halves are summed instead."""
    a = np.asarray(a, dtype=complex)
    h = np.conjugate(np.swapaxes(a, -1, -2), out=np.empty_like(a))
    with np.errstate(over="ignore"):
        np.add(a, h, out=h)
    for part in (h.real, h.imag):
        part *= 0.5  # exact, as / 2 is; a complex product would turn -0.0 into 0.0
    if not np.isfinite(h).all():
        adj = np.swapaxes(a, -1, -2).conj()
        for out, x, y in ((h.real, a.real, adj.real), (h.imag, a.imag, adj.imag)):
            where = ~np.isfinite(out)
            out[where] = x[where] / 2 + y[where] / 2
    return h


def is_hermitian(a: np.ndarray, scale: float | None = None) -> bool:
    """a = a+ entrywise within DEFAULT_TOL times scale, by default a's largest |entry|."""
    a = require_square(a)
    size = np.abs(a).max() if scale is None else scale
    return bool(negligible(np.abs(a - adjoint(a)).max(), size, DEFAULT_TOL))


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = require_square(a)
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(adjoint(a) @ a - eye)) <= tol)


def psd_eigh(a: np.ndarray, scale: float | None = None, rtol: float = DEFAULT_TOL,
             name: str = "operator") -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues clipped at zero, eigenvectors) of a positive semidefinite matrix.

    a must pass is_hermitian at scale and its hermitian_part have no eigenvalue
    below -rtol times scale, by default its largest |eigenvalue|; else DomainError.
    """
    a = require_square(a, name)
    if not is_hermitian(a, scale):
        raise DomainError(f"{name} is not Hermitian within tolerance")
    evals, vecs = np.linalg.eigh(hermitian_part(a))
    size = np.abs(evals).max() if scale is None else scale
    if not negligible(-evals.min(), size, rtol):
        raise DomainError(f"{name} has negative eigenvalue {evals.min():.3e}")
    return np.clip(evals, 0.0, None), vecs


def is_psd(a: np.ndarray, scale: float | None = None, rtol: float = DEFAULT_TOL) -> bool:
    """Whether psd_eigh accepts a."""
    try:
        psd_eigh(a, scale, rtol)
    except DomainError:
        return False
    return True


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade scaling and squaring, in numpy alone.

    The method of scipy.linalg.expm (Al-Mohy & Higham 2009) with Higham's
    (2005) theta_m.  The order m and the squarings s come from d_k =
    ||A^k||_1^(1/k) of the unscaled A: d_4 and d_6 exact, d_10 <= (||A^4||_1
    ||A^6||_1)^(1/10), and d_8 exact where theta_7 < max(d_4, d_6) and d_6 <= theta_9:
    only there can A^8 = (A^4)^2, which m = 9 evaluates anyway, lower m.  Elsewhere,
    or where A^8 is not finite, d_8 <= d_4.  As in scipy, a diagonal A gives exp
    of its diagonal, and a triangular A keeps that diagonal exact through the
    squarings.  Non-finite entries raise DomainError; a non-finite power or
    result raises OverflowError.
    """
    a = require_square(a, "mat_exp argument")
    if not np.all(np.isfinite(a)):
        raise DomainError("mat_exp argument contains non-finite entries")
    what, n = "mat_exp overflow: result", a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
            return require_finite_result(np.diag(np.exp(np.diagonal(a))), what)
        # One workspace: A^2, A^4, A^6, then |A^4| and |A^6|, A^8 and |A^8|, then the Pade sums.
        w = np.empty((7, n, n), dtype=complex)
        np.matmul(a, a, out=w[0])
        np.matmul(w[0], w[0], out=w[1])
        np.matmul(w[1], w[0], out=w[2])
        norms = np.abs(w[1:3], out=w[3].view(float).reshape(2, n, n)).sum(axis=1).max(axis=1)
        d4, d6 = require_finite_result(norms, what) ** np.array([1 / 4, 1 / 6])
        m, d8 = next((m for m in (3, 5, 7, 9) if max(d4, d6) <= _PADE_THETA[m]), 13), d4
        if m >= 9 and d6 <= _PADE_THETA[9]:
            np.matmul(w[1], w[1], out=w[3])
            norm8 = np.abs(w[3], out=w[4].view(float).reshape(2, n, n)[0]).sum(axis=0).max()
            d8 = norm8 ** (1 / 8) if np.isfinite(norm8) else d4
            m = next((m for m in (7, 9) if max(d6, d8) <= _PADE_THETA[m]), 13)
        eta = max(d8, d4**0.4 * d6**0.6)  # max(d_8, d_10), d_10 by its bound
        s = max(0, int(np.ceil(np.log2(eta / _PADE_THETA[13])))) if m == 13 else 0
        if s:
            a = a * 2.0**-s
            w[:3] *= 2.0 ** (-s * np.array([2, 4, 6]))[:, None, None]
        # Higham (2005) (2.2) scaled to b_m = 1: p_m(x) = sum_k b_k x^k, b_k = (2m-k)!/(k!(m-k)!).
        b = [factorial(2 * m - k) // factorial(k) / factorial(m - k) for k in range(m + 1)]
        if m == 13:  # Higham (2005) (2.11): U = A (A^6 P + U'), V = A^6 Q + V'
            p, u, q, v = _combine([b[9::2], b[3:8:2], b[8::2], b[2:7:2]], w[:3], w[3:])
            u += np.matmul(w[2], p, out=w[0])
            v += np.matmul(w[2], q, out=w[1])
        else:
            u, v = _combine([b[3::2], b[2::2]], w[: m // 2], w[4:6])
        u.flat[:: n + 1] += b[1]
        v.flat[:: n + 1] += b[0]
        u = np.matmul(a, u, out=w[0])
        x = np.linalg.solve(np.subtract(v, u, out=w[1]), np.add(v, u, out=v))
        # Al-Mohy & Higham (2009) Code Fragment 2.1: otherwise the rounding of a unit
        # eigenvalue of a triangular A grows 2^s-fold, and a stiff decay loses its trace.
        triangular = s > 0 and not (np.tril(a, -1).any() and np.triu(a, 1).any())
        for k in range(s + 1):
            if k:
                x = x @ x
            if triangular:
                np.fill_diagonal(x, np.exp(np.diagonal(a) * 2.0**k))
    return require_finite_result(x, what)


def _combine(coeffs, powers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = sum_k coeffs[i][k] powers[k], as one real product of the float views."""
    real = [array.view(float).reshape(len(array), -1) for array in (powers, out)]
    np.matmul(coeffs, real[0], out=real[1])
    return out


class ExpPlan(NamedTuple):
    """The one plan of exp(k step A), k <= count: the route (dense or expm_action), A - mu I
    without its zero entries, mu = tr(A)/n, ||A - mu I||_1 and s blocks of m Taylor terms."""

    dense: bool
    shifted: SandwichSum
    mu: complex
    norm: float
    m: float
    s: float
    step: float
    count: int


def exp_plan(op: SandwichSum, step: float, count: int, columns: int = 1) -> ExpPlan:
    """The plan of exp(k step A) on columns vectors, k <= count, A the n x n op as assembled.

    mu and the norm are exact, each column summed down its rows as the CSR matvec meets
    them.  (m, s) minimizes m s, s = ceil(count step norm / theta_m) >= 1 (Al-Mohy & Higham
    2011), and is not finite where the norm is not.  Dense: (6 + s') n^3, s' squarings to
    ||step A||_1 <= theta_13, plus n^2 per step and column, against 1 + m s matvecs of nnz
    columns + MATVEC_OVERHEAD; it needs the require_dense budget and a finite norm.
    """
    n = op.shape[0]
    diagonal = np.arange(n) * (n + 1)
    new = diagonal[np.append(op.keys, -1)[np.searchsorted(op.keys, diagonal)] != diagonal]
    keys = np.concatenate([op.keys, new])  # with the diagonal keys A does not store
    order = np.argsort(keys, kind="stable")
    keys, data = keys[order], np.concatenate([op.data, np.zeros(new.size)])[order]
    on = np.searchsorted(keys, diagonal)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = data[on].sum() / n
        data[on] -= mu
        norm = np.bincount(keys // n, np.abs(data), n).max()
        blocks = np.maximum(np.ceil(step * count * norm / _THETA_M), 1.0)
        best = np.argmin(_TAYLOR_M * blocks)
        m, s = float(_TAYLOR_M[best]), blocks[best]
        squarings = max(0.0, np.ceil(np.log2(step * norm / _PADE_THETA[13])))
        dense = (6.0 + squarings) * n**3 + count * n * n * columns
        krylov = (1.0 + m * s) * (op.keys.size * columns + MATVEC_OVERHEAD)
    dense = bool(np.isfinite(norm) and n * n <= MAX_DENSE_DIM**2 and dense <= krylov)
    kept = data != 0
    shifted = SandwichSum(keys[kept], data[kept], op.shape)
    shifted.keys.flags.writeable = shifted.data.flags.writeable = False
    return ExpPlan(dense, shifted, mu, norm, m, s, step, count)


@np.errstate(over="ignore", invalid="ignore")
def expm_action(plan: ExpPlan, v: np.ndarray, what: str) -> np.ndarray:
    """The states exp(k step A) v, k = 0, ..., count, of exp_plan's A, by sparse matvecs.

    Al-Mohy & Higham (2011), Algorithms 3.2 and 5.2, on the plan's (m, s) and its exact mu
    and norm, so no random number is drawn, in numpy around the CSR matvec of A - mu I.
    s blocks of width w cut [0, count step]; each forms K_p = (w (A - mu I))^p / p! z once,
    z its first state, on all columns of v: up to m matvecs, stopped by the paper's test.
    A time t = (i + tau) w in block i takes sum_p tau^p K_p e^{mu tau w}, so the matvecs
    do not depend on count.  Where every block holds at most one time (every one-step
    action, such as the collision's Kraus columns), a time at its block's end (tau = 1
    exactly) takes that block's z = e^{mu w} sum_p K_p, the next block's first state, in
    place of the same terms summed again with weights: the two differ by rounding.  Where
    any block holds several times, as in a many-point evolve, every time is summed.
    More than MAX_MATVECS matvecs raise DomainError before the first one.  A step count beyond 2^53, which includes a norm beyond the double range,
    and a non-finite result raise OverflowError "expm_multiply overflow: {what} is not
    finite".
    """
    import scipy.sparse

    a = scipy.sparse.csr_array(plan.shifted.sparse())
    count, mu, m, s = plan.count, plan.mu, plan.m, plan.s
    times = np.linspace(0.0, count * plan.step, count + 1)[1:]
    overflow = f"expm_multiply overflow: {what}"
    if not m * s <= 2.0**53:
        raise OverflowError(f"{overflow} is not finite")
    if m * s > MAX_MATVECS:
        raise DomainError(f"{what} at t ||A||_1 = {times[-1] * plan.norm:.6g} breaks m s = "
                          f"{m * s:.0f} matvecs <= {MAX_MATVECS}, the work budget")
    m, s = int(m), int(s)
    width, tol = times[-1] / s, 2.0**-53
    block_of = np.clip(np.ceil(times / width) - 1, 0, s - 1)
    bounds = np.searchsorted(block_of, np.arange(s + 1))

    def inf_norm(k):  # of a vector, or the largest row sum of an n x columns block
        return np.abs(k).max() if k.ndim == 1 else np.abs(k).sum(axis=1).max()

    # Every K_p, for one product per block, where a block holds two times or more (as
    # scipy's interval algorithm keeps them); else the last two, the times summed per term.
    keep = m + 1 if np.diff(bounds).max() > 1 else 2
    out = np.empty((count + 1, *np.shape(v)), dtype=complex)
    out[0] = z = v
    terms, series = np.empty((keep, *z.shape), dtype=complex), np.empty(z.shape, dtype=complex)
    rows, flat = out[1:].reshape(count, -1), terms.reshape(keep, -1)
    for block in range(s):
        lo, hi = bounds[block], bounds[block + 1]
        tau = times[lo:hi] / width - block
        # One time at the block's end is the block's z, e^{mu w} series, not summed again.
        at_end = keep == 2 and hi > lo and tau[0] == 1.0
        summed = keep == 2 and hi > lo and not at_end
        weights = tau[:, None] ** np.arange(m + 1) * np.exp(mu * width * tau)[:, None]
        terms[0] = series[...] = z
        if summed:
            rows[lo:hi] = weights[:, :1] * flat[0]
        last = bound = inf_norm(z)
        for p in range(1, m + 1):
            term = np.multiply(a @ terms[(p - 1) % keep], width / p, out=terms[p % keep])
            series += term
            if summed:
                rows[lo:hi] += weights[:, p, None] * flat[p % 2]
            size = inf_norm(term)
            bound += size  # >= ||series||, so that norm is taken only where the test can pass
            if last + size <= tol * bound and last + size <= tol * inf_norm(series):
                break
            last = size
        if keep > 2:
            np.matmul(weights[:, : p + 1], flat[: p + 1], out=rows[lo:hi])
        z = series * np.exp(mu * width)
        if at_end:
            rows[lo] = z.reshape(-1)
    return require_finite_result(out, overflow)


def mat_sqrt_psd(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Hermitian PSD square root of a matrix that psd_eigh accepts at scale."""
    evals, vecs = psd_eigh(a, scale, name="mat_sqrt_psd argument")
    return hermitian_part((vecs * np.sqrt(evals)) @ adjoint(vecs))


def sandwich_triplets(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets (rows, cols, values) of sandwich(a, b) over the nonzeros of a and b.

    kron(B^T, A) holds B[j, i] A[r, c] at row i p + r and column j q + c,
    A being p x q; the product is taken in np.kron's operand order.  No
    position repeats.
    """
    a, b = np.asarray(a), np.asarray(b)
    p, q = a.shape
    r, c = np.nonzero(a)
    j, i = np.nonzero(b)
    rows = (i[:, None] * p + r).ravel()
    cols = (j[:, None] * q + c).ravel()
    values = (b[j, i][:, None] * a[r, c]).ravel()
    return rows, cols, values


class SandwichSum(NamedTuple):
    """A sum of sandwiches as assembled: column-major keys of the entries some sandwich
    fills (an exact cancellation stays, with data 0), their data, shape."""

    keys: np.ndarray
    data: np.ndarray
    shape: tuple

    def dense(self) -> np.ndarray:
        m, n = self.shape
        out = np.zeros((m, n), dtype=complex)
        out[self.keys % m, self.keys // m] = self.data
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The product with a vector v by numpy alone: each row summed in key order, the
        order of the CSC view's matvec."""
        m = self.shape[0]
        terms, rows = self.data * np.asarray(v)[self.keys // m], self.keys % m
        out = np.empty(m, dtype=complex)
        out.real = np.bincount(rows, terms.real, minlength=m)
        out.imag = np.bincount(rows, terms.imag, minlength=m)
        return out

    def sparse(self):
        """A scipy.sparse CSC array on the same data, equal entry for entry to dense()."""
        import scipy.sparse

        m, n = self.shape
        indptr = np.searchsorted(self.keys, np.arange(n + 1) * m)
        return scipy.sparse.csc_array((self.data, self.keys % m, indptr), shape=(m, n))


def sandwich_sum(pairs, what: str) -> SandwichSum:
    """sum_k sandwich(A_k, B_k) over (A_k, B_k) pairs in list order; OverflowError beyond range."""
    (p, q), (r, s) = np.shape(pairs[0][0]), np.shape(pairs[0][1])
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [sandwich_triplets(a, b) for a, b in pairs]
        rows, cols, values = (np.concatenate(arrays) for arrays in zip(*parts))
        keys, where = np.unique(cols * (s * p) + rows, return_inverse=True)
        data = np.zeros(keys.size, dtype=complex)
        np.add.at(data, where, values)
    keys.flags.writeable = data.flags.writeable = False  # the views share them
    return SandwichSum(keys, require_finite_result(data, what), (s * p, r * q))


def vectorize(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix, or each of a stack of matrices: (..., d, d) -> (..., d^2)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"vectorize argument must be a square matrix, got shape {a.shape}")
    return np.swapaxes(a, -1, -2).reshape(*a.shape[:-2], -1)


def devectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`: (..., dim^2) -> (..., dim, dim), a view where it can be."""
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if v.shape[-1] != dim * dim:
        raise DimensionError(f"vector of length {v.shape[-1]} is not {dim}x{dim}")
    return np.swapaxes(v.reshape(*v.shape[:-1], dim, dim), -1, -2)


def partial_trace(a: np.ndarray, dims: tuple[int, int], which: str = "second") -> np.ndarray:
    """Trace out one tensor factor of an operator on H1 (x) H2.

    Parameters
    ----------
    a : operator on the product space, shape (d1*d2, d1*d2)
    dims : (d1, d2)
    which : "first" or "second", the factor to trace out
    """
    d1, d2 = dims
    a = require_square(a, "partial_trace argument")
    if a.shape[0] != d1 * d2:
        raise DimensionError(
            f"operator of dimension {a.shape[0]} does not factor as {d1}*{d2}"
        )
    t = a.reshape(d1, d2, d1, d2)
    if which == "second":
        return np.einsum("ijkj->ik", t)
    if which == "first":
        return np.einsum("ijil->jl", t)
    raise DomainError(f"which must be 'first' or 'second', got {which!r}")


def propagate(rho0: np.ndarray, step_map: np.ndarray, count: int) -> np.ndarray:
    """States rho0, S rho0, S^2 rho0, ..., S^count rho0 under one step superoperator S.

    The dense trajectories run through this loop: evolve's RK4, its dense
    expm and the collision chain, in one (count + 1, d^2) stack of
    column-stacked vectors filled in place; the states are its devectorize view.
    A stack that is not finite raises OverflowError.
    """
    rho0 = require_square(rho0, "initial state")
    vecs = np.empty((count + 1, rho0.size), dtype=complex)
    vecs[0] = vectorize(rho0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(count):
            np.matmul(step_map, vecs[k], out=vecs[k + 1])
    require_finite_result(vecs, "propagate overflow: the trajectory")
    return devectorize(vecs, rho0.shape[0])
