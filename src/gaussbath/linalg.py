"""Dense complex linear algebra underneath the noise engine.

Convention used repo-wide: vectorization is COLUMN stacking,
``vec(A) = A.flatten(order="F")``, so that

    vec(A X B) = (B^T kron A) vec(X) = sandwich(A, B) vec(X).

Superoperators are ``d**2 x d**2`` matrices acting on column-stacked
operators; vectorize and devectorize map stacks (..., d, d) <-> (..., d**2),
and a trajectory is one such stack.  sandwich_sum (dense) and
sandwich_sum_sparse (scipy.sparse CSC) are the one assembly of a sum of
sandwiches, from the nonzeros of the factors; they agree bit for bit.
The other helpers take and return plain ``numpy.ndarray`` with complex dtype.

The one Hermiticity check (is_hermitian) and positivity check (psd_eigh)
allow DEFAULT_TOL times a scale the caller names: an operand's own size,
the size of a difference's operands, or a density matrix's unit trace.

require_dense is the one dense-memory budget: a dense complex array sized by
the input, beyond the d x d operators, holds at most MAX_DENSE_DIM^2 entries
(64 MiB); it is checked where the input enters, before the allocation.

require_finite_result is the one overflow rule for results: a computed
array beyond the double range raises OverflowError "{what} is not
finite" (exit 3), while non-finite input is a DomainError where it
enters.  expm_action is the one caller of scipy's expm_multiply; both
exponential actions (evolve's trajectories, the collision Kraus columns)
take its seeding, its overflow guard and its range check.
dense_exp_is_cheaper is the one route rule for those exponentials, one
dense Pade map (mat_exp) or expm_action, over count steps of one size:
every trajectory is one step map repeated (propagate).  The rule and
mat_exp are numpy alone, so only the sparse routes load scipy:
expm_action and sandwich_sum_sparse.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .errors import DimensionError, DomainError

# Relative for is_hermitian and psd_eigh; absolute for dimensionless is_unitary.
DEFAULT_TOL = 1e-9

# The side of the largest dense complex matrix that require_dense admits.
MAX_DENSE_DIM = 2048

# Al-Mohy & Higham (2011) Table 3.1: theta_m for m Taylor terms, as scipy's expm_multiply has it.
_TAYLOR_M = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_THETA_M = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
    2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82,
    2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9])

# Higham (2005) Table 2.3: theta_m, the largest ||2^-s A||_1 at which the [m/m] Pade
# approximant of exp is exact in double precision.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 5.371920351148152}

# Flops per expm_multiply matvec of Python work: 7e4-1.7e5 fit all 56 clear timed cases.
MATVEC_OVERHEAD = 1e5

__all__ = [
    "DEFAULT_TOL",
    "MAX_DENSE_DIM",
    "adjoint",
    "choi_matrix",
    "dense_exp_is_cheaper",
    "devectorize",
    "expm_action",
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
    "sandwich",
    "sandwich_sum",
    "sandwich_sum_sparse",
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

    a must pass is_hermitian at scale and have no eigenvalue below -rtol
    times scale, by default its largest |eigenvalue|; else DomainError.
    """
    a = require_square(a, name)
    if not is_hermitian(a, scale):
        raise DomainError(f"{name} is not Hermitian within tolerance")
    evals, vecs = np.linalg.eigh((a + adjoint(a)) / 2.0)
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


def expm_action(a, v: np.ndarray, what: str, **grid) -> np.ndarray:
    """exp(a) v by scipy's expm_multiply (Al-Mohy & Higham), sparse matvecs only.

    grid holds expm_multiply's start, stop, num and endpoint, for the
    states exp(t a) v along a linspace of t.  a is taken as a CSR array:
    row-wise matvecs, the same sums as CSC with fewer cache misses.
    The norm estimates draw sign vectors from numpy's global generator, so
    it is seeded with 0 for the call and the caller's stream is put back:
    the answer is reproducible.  A norm of a beyond the double range
    breaks scipy's step count (OverflowError or ValueError from int() of a
    non-finite float); that and a non-finite result raise OverflowError
    "expm_multiply overflow: {what} is not finite".
    """
    import scipy.sparse
    import scipy.sparse.linalg

    a = scipy.sparse.csr_array(a)
    state = np.random.get_state()
    np.random.seed(0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = scipy.sparse.linalg.expm_multiply(a, v, **grid)
    except (OverflowError, ValueError) as exc:
        raise OverflowError(f"expm_multiply overflow: {what} is not finite") from exc
    finally:
        np.random.set_state(state)
    return require_finite_result(out, f"expm_multiply overflow: {what}")


def dense_exp_is_cheaper(pairs, step: float, count: int, columns: int = 1) -> bool:
    """Whether one dense map beats expm_action for exp(k step A) on columns vectors, k <= count.

    A = sum sandwich(A_k, B_k) over pairs, n x n.  Dense: (6 + s) n^3 for the one map, s
    squarings to mat_exp's ||step A||_1 <= theta_13, and n^2 per step and column.
    expm_action: 1 + m max(s, count) matvecs of nnz columns + MATVEC_OVERHEAD, m and
    s = ceil(||count step A||_1 / theta_m) minimising m s (Al-Mohy & Higham 2011), A shifted
    by tr(A)/n as in scipy; past s points scipy runs up to m terms, a matvec each, per point.
    Dense needs the require_dense budget and a finite ||A||_1; the sparse route names overflow.
    """
    keys, data, (n, _) = _sandwich_entries(pairs, None)
    cols, rows = np.divmod(keys, n)
    diag = np.zeros(n, dtype=complex)
    diag[cols[cols == rows]] = data[cols == rows]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = np.max(np.bincount(cols, np.abs(data), n) + abs(diag - diag.mean()) - abs(diag))
        squarings = max(0.0, np.ceil(np.log2(step * norm / _PADE_THETA[13])))
        dense = (6.0 + squarings) * n**3 + count * n * n * columns
        spans = np.ceil(step * count * norm / _THETA_M)
        best = np.argmin(_TAYLOR_M * spans)
        matvecs = _TAYLOR_M[best] * max(spans[best], count)
        krylov = (1.0 + matvecs) * (keys.size * columns + MATVEC_OVERHEAD)
    return bool(np.isfinite(norm) and n * n <= MAX_DENSE_DIM**2 and dense <= krylov)


def mat_sqrt_psd(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Hermitian PSD square root of a matrix that psd_eigh accepts at scale."""
    evals, vecs = psd_eigh(a, scale, name="mat_sqrt_psd argument")
    root = (vecs * np.sqrt(evals)) @ adjoint(vecs)
    return (root + adjoint(root)) / 2.0


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B: ``vec(A X B) = sandwich(A, B) @ vec(X)``."""
    return np.kron(np.asarray(b).T, a)


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


def _sandwich_entries(pairs, what: str | None) -> tuple:
    """Column-major keys, values (added in list order, checked unless what is None), shape."""
    (p, q), (r, s) = np.shape(pairs[0][0]), np.shape(pairs[0][1])
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [sandwich_triplets(a, b) for a, b in pairs]
        rows, cols, values = (np.concatenate(arrays) for arrays in zip(*parts))
        keys, where = np.unique(cols * (s * p) + rows, return_inverse=True)
        data = np.zeros(keys.size, dtype=complex)
        np.add.at(data, where, values)
    return keys, data if what is None else require_finite_result(data, what), (s * p, r * q)


def sandwich_sum(pairs, what: str) -> np.ndarray:
    """sum_k sandwich(A_k, B_k) over (A_k, B_k) pairs as a dense array, range-checked."""
    keys, data, (m, n) = _sandwich_entries(pairs, what)
    out = np.zeros((m, n), dtype=complex)
    out[keys % m, keys // m] = data
    return out


def sandwich_sum_sparse(pairs, what: str):
    """The same sum as a scipy.sparse CSC array, equal entry for entry to sandwich_sum."""
    import scipy.sparse

    keys, data, (m, n) = _sandwich_entries(pairs, what)
    indptr = np.searchsorted(keys, np.arange(n + 1) * m)
    return scipy.sparse.csc_array((data, keys % m, indptr), shape=(m, n))


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


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator given in column-stacking form.

    J = sum_ij E_ij (x) Phi(E_ij) with E_ij = |i><j|.  Positive
    semidefiniteness of J is equivalent to complete positivity of Phi.
    """
    s = require_square(s, "superoperator")
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise DimensionError(f"superoperator dimension {d2} is not a perfect square")
    # Phi(E_ik)[a, b] = s[a + b d, i + k d], read off in place of d^2 probes.
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d2, d2)


def propagate(rho0: np.ndarray, step_map: np.ndarray, count: int) -> np.ndarray:
    """States rho0, S rho0, S^2 rho0, ..., S^count rho0 under one step superoperator S.

    The dense trajectories run through this loop: evolve's RK4, its dense
    expm and the collision chain, in one (count + 1, d^2) stack of
    column-stacked vectors filled in place; the states are its devectorize view.
    """
    rho0 = require_square(rho0, "initial state")
    vecs = np.empty((count + 1, rho0.size), dtype=complex)
    vecs[0] = vectorize(rho0)
    for k in range(count):
        np.matmul(step_map, vecs[k], out=vecs[k + 1])
    return devectorize(vecs, rho0.shape[0])
