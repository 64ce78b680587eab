"""Gaussian states as doubled vacua (Araki-Woods construction).

A mean-zero Gaussian state of one mode is fixed by an occupation n >= 0
and a pair correlation m with |m|^2 <= n(n+1), optionally displaced by
alpha.  The split coefficients

    x = sqrt(n + 1 - |m|^2 / n)    y = sqrt(n)    z = m / sqrt(n)

(with (x, y, z) = (1, 0, 0) at n = 0) satisfy

    x^2 - y^2 + |z|^2 = 1        x^2 + |z|^2 = n + 1        y z = m,

so the combination a = x a1 + y a2+ + z a2 + alpha acting on a doubled
vacuum reproduces the Gaussian moments <a a+> = n + 1, <a+ a> = n,
<a a> = m while keeping [a, a+] = 1.

The operator-valued version replaces (n, m) by a commuting pair (N, M)
on the one-particle space, with X, Y, Z built from matrix functions of
N times M; j denotes entrywise complex conjugation in the declared
computational basis.  On truncated Fock spaces the doubled annihilator
is

    A(phi) = A1(X phi) (x) 1  +  1 (x) A2+(j Y phi)  +  1 (x) A2(j Z j phi),

antilinear in phi, which reduces to the scalar split for one mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import CommutationError, DimensionError, DomainError, KernelError
from .linalg import DEFAULT_TOL, adjoint, is_psd, mat_sqrt_psd, negligible, operator_norm
from .linalg import psd_eigh, require_square
from .noise import (GAUSSIAN_RTOL, is_gaussian_state, require_count, require_finite,
                    require_real)

__all__ = [
    "OperatorGaussianSpec",
    "SplitCoefficients",
    "doubled_moment_report",
    "fock_annihilator",
    "mode_annihilators",
    "operator_split",
    "represent_annihilator",
    "scalar_split",
    "split_residuals",
]


@dataclass(frozen=True)
class SplitCoefficients:
    """The (x, y, z) of the doubled-vacuum representation, x and y >= 0."""

    x: float
    y: float
    z: complex

    def as_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        one = np.ones((1, 1), dtype=complex)
        return (self.x * one, self.y * one, self.z * one)


def scalar_split(n: float, m: complex) -> SplitCoefficients:
    """Split coefficients for the scalar Gaussian state (n, m).

    Raises DomainError for non-finite input and outside n >= 0,
    |m|^2 <= n(n+1).  The nonnegative branch is taken for x and y; all
    phase information sits in z.
    """
    require_real(n=n)
    require_finite(m=m)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if not is_gaussian_state(n, m):
        raise DomainError(f"(n, m) = ({n}, {m}) violates |m|^2 <= n(n+1)")
    m = complex(m)
    if n == 0.0:
        return SplitCoefficients(1.0, 0.0, 0.0)
    try:
        xsq = n + 1.0 - abs(m) ** 2 / n
    except OverflowError:  # |m|^2 beyond the double range; |m|^2 / n <= n + 1 is not
        xsq = n + 1.0 - abs(m) * (abs(m) / n)
    # xsq can dip a hair below zero at the boundary from rounding.
    x = sqrt(max(xsq, 0.0))
    return SplitCoefficients(x, sqrt(n), m / sqrt(n))


def split_residuals(n: float, m: complex, s: SplitCoefficients) -> dict:
    """The three defining identities as residuals relative to n + 1, their common scale."""
    return {
        "commutator": abs(s.x**2 - s.y**2 + abs(s.z) ** 2 - 1.0) / (n + 1.0),
        "occupation": abs(s.x**2 + abs(s.z) ** 2 - (n + 1.0)) / (n + 1.0),
        "pair": abs(s.y * s.z - m) / (n + 1.0),
    }


@dataclass(frozen=True)
class OperatorGaussianSpec:
    """Operator-valued Gaussian data: N Hermitian PSD, M commuting with N.

    The conjugation entering the doubling is fixed to entrywise complex
    conjugation in the basis N and M are written in.
    """

    N: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "N", require_square(self.N, "N"))
        object.__setattr__(self, "M", require_square(self.M, "M"))
        if self.N.shape != self.M.shape:
            raise DimensionError("N and M must have the same shape")


def operator_split(spec: OperatorGaussianSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Operator split (X, Y, Z) of a commuting (N, M) pair.

    Matrix functions of N are evaluated spectrally, which diagonalizes
    the whole commuting family at once:

        Y = sqrt(N)    Z = M / sqrt(N)    X = sqrt(N + 1 - M+M / N)

    with 1/N read as the pseudoinverse on the support of N (M vanishes
    on the kernel, where X restricts to the identity).  N is read from
    its one psd_eigh spectrum.  M+M <= N(N+1) allows GAUSSIAN_RTOL times
    ||N||(||N|| + 1), so a 1x1 spec passes where scalar_split does.  The outputs
    satisfy X+X - Y+Y + Z+Z = 1, X+X + Z+Z = N + 1 and Y Z = M.
    """
    evals, vecs = psd_eigh(spec.N, name="N")
    n_op, m_op, eye = (vecs * evals) @ adjoint(vecs), spec.M, np.eye(evals.size)
    n_norm, m_norm = evals.max(), operator_norm(m_op)
    if not negligible(operator_norm(n_op @ m_op - m_op @ n_op), n_norm * m_norm, DEFAULT_TOL):
        raise CommutationError("N and M do not commute within tolerance")
    # M must vanish on the kernel of N, else m/sqrt(n) has no meaning there.
    kernel = negligible(evals, n_norm, DEFAULT_TOL)
    knorm = operator_norm(m_op @ (vecs * kernel))
    if not negligible(knorm, m_norm, DEFAULT_TOL):
        raise KernelError(f"M does not vanish on ker N (residual {knorm:.3e})")
    # All factors commute, so the bound is basis independent.
    bound = n_op @ (n_op + eye) - adjoint(m_op) @ m_op
    if not is_psd(bound, n_norm * (n_norm + 1.0), GAUSSIAN_RTOL):
        raise DomainError("M+M exceeds N(N+1): not a Gaussian state")

    inv_sqrt = np.where(kernel, 0.0, 1.0 / np.sqrt(np.where(kernel, 1.0, evals)))
    y_op = (vecs * np.sqrt(evals)) @ adjoint(vecs)
    z_op = m_op @ (vecs * inv_sqrt) @ adjoint(vecs)
    # Z+Z = M+M / N, since M+M commutes with N.
    x_op = mat_sqrt_psd(n_op + eye - adjoint(z_op) @ z_op, n_norm + 1.0)
    return x_op, y_op, z_op


def fock_annihilator(cutoff: int) -> np.ndarray:
    """Single-mode annihilator truncated to `cutoff` Fock levels, a count >= 2 by
    noise.require_count, as in CollisionConfig."""
    cutoff = require_count("cutoff", cutoff, 2)
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for k in range(1, cutoff):
        a[k - 1, k] = sqrt(k)
    return a


def mode_annihilators(modes: int, cutoff: int) -> list[np.ndarray]:
    """Annihilators for `modes` modes (a count >= 1), each truncated at `cutoff` levels."""
    modes = require_count("modes", modes, 1)
    a = fock_annihilator(cutoff)
    eye = np.eye(cutoff)
    ops = []
    for i in range(modes):
        factors = [a if j == i else eye for j in range(modes)]
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ops.append(op)
    return ops


def _smeared_annihilator(f: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """A(f) = sum_i conj(f_i) a_i, antilinear in the test vector."""
    out = np.zeros_like(ops[0])
    for fi, ai in zip(f, ops):
        out = out + np.conj(fi) * ai
    return out


def represent_annihilator(
    phi: np.ndarray,
    split: SplitCoefficients | tuple[np.ndarray, np.ndarray, np.ndarray],
    cutoff: int,
) -> np.ndarray:
    """Doubled-vacuum representation of the annihilator smeared with phi.

    Builds A1(X phi) (x) 1 + 1 (x) A2+(j Y phi) + 1 (x) A2(j Z j phi) on
    Fock(C^k) (x) Fock(C^k), each factor truncated at `cutoff` levels
    per mode.  j is entrywise conjugation in the basis X, Y, Z are
    written in; the j-sandwich on the Z term is what makes the whole
    expression antilinear in phi and reproduces the scalar convention
    <A A> = m for one mode.
    """
    if isinstance(split, SplitCoefficients):
        x_op, y_op, z_op = split.as_matrices()
    else:
        x_op, y_op, z_op = (require_square(s) for s in split)
    phi = np.asarray(phi, dtype=complex).ravel()
    k = x_op.shape[0]
    if phi.size != k:
        raise DimensionError(f"phi has length {phi.size}, split acts on C^{k}")
    ops = mode_annihilators(k, cutoff)
    dim = ops[0].shape[0]
    eye = np.eye(dim)

    a1 = _smeared_annihilator(x_op @ phi, ops)
    a2_create = adjoint(_smeared_annihilator(np.conj(y_op @ phi), ops))
    a2_z = _smeared_annihilator(np.conj(z_op @ np.conj(phi)), ops)
    return np.kron(a1, eye) + np.kron(eye, a2_create + a2_z)


def doubled_moment_report(
    spec: OperatorGaussianSpec,
    cutoff: int,
    phi: np.ndarray | None = None,
    psi: np.ndarray | None = None,
) -> dict:
    """Measure second moments of the doubled representation in the vacuum.

    Returns the measured <A(phi) A+(psi)>, <A+(phi) A(psi)>, <A(phi) A(psi)>
    together with the candidate predictions <phi|(N+1)psi>, <phi|N psi>
    and the pair moment, plus which occupation convention (N or N+1) the
    measurement matches.  Measurement is the arbiter here because the
    two conventions appear side by side in the literature.  A single
    mode is the 1x1 case.
    """
    split = operator_split(spec)
    n_op, m_op = spec.N, spec.M
    k = n_op.shape[0]
    phi = np.ones(k, dtype=complex) if phi is None else np.asarray(phi, dtype=complex)
    psi = np.ones(k, dtype=complex) if psi is None else np.asarray(psi, dtype=complex)

    a_phi = represent_annihilator(phi, split, cutoff)
    a_psi = represent_annihilator(psi, split, cutoff)
    dim = a_phi.shape[0]
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0

    def expect(op):
        return complex(vac.conj() @ (op @ vac))

    measured = {
        "a_adag": expect(a_phi @ adjoint(a_psi)),
        "adag_a": expect(adjoint(a_phi) @ a_psi),
        "a_a": expect(a_phi @ a_psi),
    }
    pred_nplus1 = complex(phi.conj() @ ((n_op + np.eye(k)) @ psi))
    pred_n = complex(phi.conj() @ (n_op @ psi))
    pred_pair = complex(psi.conj() @ (m_op @ np.conj(phi)))
    if abs(measured["a_adag"] - pred_nplus1) <= abs(measured["a_adag"] - pred_n):
        convention = "N+1"
    else:
        convention = "N"
    return {
        "measured": measured,
        "predicted": {"a_adag_nplus1": pred_nplus1, "a_adag_n": pred_n, "a_a": pred_pair},
        "occupation_convention": convention,
    }
