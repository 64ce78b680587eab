"""Dense complex linear algebra underneath the noise engine.

Convention used repo-wide: vectorization is COLUMN stacking,
``vec(A) = A.flatten(order="F")``, so that

    vec(A X B) = (B^T kron A) vec(X) = sandwich(A, B) vec(X).

Superoperators are ``d**2 x d**2`` matrices acting on column-stacked
operators under this convention.  All helpers take and return plain
``numpy.ndarray`` with complex dtype.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError

# Default tolerance for structural predicates (hermiticity, unitarity,
# positivity).  Every predicate accepts an explicit override.
DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "adjoint",
    "choi_matrix",
    "devectorize",
    "is_hermitian",
    "is_psd",
    "is_unitary",
    "mat_exp",
    "mat_sqrt_psd",
    "operator_norm",
    "partial_trace",
    "require_square",
    "sandwich",
    "vectorize",
]


def require_square(a: np.ndarray, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix or raise DimensionError."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), ord=2))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = require_square(a)
    return bool(np.max(np.abs(a - adjoint(a))) <= tol)


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = require_square(a)
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(adjoint(a) @ a - eye)) <= tol)


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian with eigenvalues >= -tol."""
    a = require_square(a)
    if not is_hermitian(a, tol):
        return False
    evals = np.linalg.eigvalsh((a + adjoint(a)) / 2.0)
    return bool(evals.min() >= -tol)


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential.

    Hermitian input goes through an eigendecomposition, everything else
    through scaling and squaring (scipy).  Non-finite entries are
    rejected up front; overflow in the result is reported as a range
    error.
    """
    a = require_square(a, "mat_exp argument")
    if not np.all(np.isfinite(a)):
        raise DomainError("mat_exp argument contains non-finite entries")
    if is_hermitian(a, 1e-12):
        evals, vecs = np.linalg.eigh((a + adjoint(a)) / 2.0)
        with np.errstate(over="raise"):
            try:
                expd = np.exp(evals)
            except FloatingPointError as exc:
                raise OverflowError("mat_exp overflow: eigenvalues too large") from exc
        out = (vecs * expd) @ adjoint(vecs)
    else:
        out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise OverflowError("mat_exp overflow: result is not finite")
    return out


def mat_sqrt_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues in [-tol, 0) are clipped to zero; anything below -tol
    raises DomainError.  The returned root is Hermitian PSD.
    """
    a = require_square(a, "mat_sqrt_psd argument")
    if not is_hermitian(a, tol):
        raise DomainError("mat_sqrt_psd argument is not Hermitian within tolerance")
    herm = (a + adjoint(a)) / 2.0
    evals, vecs = np.linalg.eigh(herm)
    if evals.min() < -tol:
        raise DomainError(
            f"mat_sqrt_psd argument has eigenvalue {evals.min():.3e} below -tol"
        )
    clipped = np.clip(evals, 0.0, None)
    root = (vecs * np.sqrt(clipped)) @ adjoint(vecs)
    return (root + adjoint(root)) / 2.0


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B: ``vec(A X B) = sandwich(A, B) @ vec(X)``."""
    return np.kron(np.asarray(b).T, a)


def vectorize(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    a = require_square(a, "vectorize argument")
    return a.flatten(order="F")


def devectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != dim * dim:
        raise DimensionError(f"vector of length {v.size} is not {dim}x{dim}")
    return v.reshape((dim, dim), order="F")


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
    j = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, k] = 1.0
            phi_e = devectorize(s @ vectorize(e), d)
            j += np.kron(e, phi_e)
    return j
