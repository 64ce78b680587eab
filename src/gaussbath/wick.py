"""Conversion between time-ordered and normal-ordered QSDE coefficients.

A time-ordered equation dU/dt = -i E_ij [a+]^i [a-]^j U is rewritten in
normal-ordered form dV/dt = L_ij [a+]^i V [a-]^j by commuting every
annihilator through the solution.  Each pass through U picks up the
one-sided contraction weight kappa, which resums into

    L11 = -i E11 (1 + i kappa E11)^(-1)
    L10 = -i (1 + i kappa E11)^(-1) E10
    L01 = -i E01 (1 + i kappa E11)^(-1)
    L00 = -i E00 - kappa E01 (1 + i kappa E11)^(-1) E10.

The scalar part carries a minus sign on the contraction term; with it,
a Hermitian generator (E00, E11 Hermitian, E01 = E10+) produces exactly
unitary normal-ordered coefficients, and the vacuum special case
reproduces the dt coefficient -G of the Gaussian evolution equation.

The inverse map uses (1 + i kappa E11)^(-1) = 1 + kappa L11, which turns
every formula above around in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SingularityError
from .linalg import DEFAULT_TOL, adjoint, is_hermitian, is_unitary, operator_norm, require_square
from .noise import NoiseParams, unitarity_defect

__all__ = [
    "HPParameters",
    "ItoCoefficients",
    "NORMAL_ORDERED",
    "TIME_ORDERED",
    "hp_extract",
    "hp_residuals",
    "normal_to_time",
    "time_to_normal",
]

TIME_ORDERED = "time-ordered"
NORMAL_ORDERED = "normal-ordered"

# Condition-number ceiling for the (1 + i kappa E11) style inversions.
COND_BOUND = 1e12

# Largest unitarity defect, and deviation of W from unitary, that hp_extract accepts.
HP_TOL = 1e-8


@dataclass
class ItoCoefficients:
    """Coefficient quadruple of a QSDE, tagged by ordering kind.

    Index convention: c_ij multiplies [a+]^i ... [a-]^j, so c10 couples
    to the creator, c01 to the annihilator, c11 to the gauge slot and
    c00 to dt.
    """

    kind: str
    c00: np.ndarray
    c01: np.ndarray
    c10: np.ndarray
    c11: np.ndarray

    def __post_init__(self):
        if self.kind not in (TIME_ORDERED, NORMAL_ORDERED):
            raise DomainError(f"kind must be time-ordered or normal-ordered, got {self.kind!r}")
        self.c00 = require_square(self.c00, "c00")
        self.c01 = require_square(self.c01, "c01")
        self.c10 = require_square(self.c10, "c10")
        self.c11 = require_square(self.c11, "c11")
        d = self.c00.shape[0]
        for name in ("c01", "c10", "c11"):
            if getattr(self, name).shape[0] != d:
                raise DimensionError(f"{name} dimension differs from c00")

    @property
    def dim(self) -> int:
        return self.c00.shape[0]

    def hermitian_generator(self) -> bool:
        """True when the quadruple is i times a self-adjoint expression.

        Requires c00 and c11 Hermitian and c01 = adjoint(c10).  Only
        meaningful for time-ordered coefficients, but testable on any.
        """
        return (
            is_hermitian(self.c00)
            and is_hermitian(self.c11)
            and bool(np.max(np.abs(self.c01 - adjoint(self.c10))) <= DEFAULT_TOL)
        )


@dataclass
class HPParameters:
    """Hudson-Parthasarathy triple (W, L, H): scattering, coupling, Hamiltonian."""

    W: np.ndarray
    L: np.ndarray
    H: np.ndarray


def _guarded_inverse(a: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_BOUND:
        raise SingularityError(
            f"{what} is singular or ill conditioned (cond = {cond:.3e})", cond=cond
        )
    return np.linalg.inv(a)


def time_to_normal(e: ItoCoefficients, params: NoiseParams) -> ItoCoefficients:
    """Rewrite time-ordered coefficients in normal-ordered form."""
    if e.kind != TIME_ORDERED:
        raise DomainError("time_to_normal expects time-ordered coefficients")
    kappa = params.kappa
    eye = np.eye(e.dim)
    t = _guarded_inverse(eye + 1j * kappa * e.c11, "1 + i*kappa*E11")
    l11 = -1j * e.c11 @ t
    l10 = -1j * t @ e.c10
    l01 = -1j * e.c01 @ t
    l00 = -1j * e.c00 - kappa * (e.c01 @ t @ e.c10)
    return ItoCoefficients(NORMAL_ORDERED, l00, l01, l10, l11)


def normal_to_time(l: ItoCoefficients, params: NoiseParams) -> ItoCoefficients:
    """Invert :func:`time_to_normal`.

    Uses (1 + i kappa E11)^(-1) = 1 + kappa L11, which must itself be
    invertible for E11 to be recoverable.
    """
    if l.kind != NORMAL_ORDERED:
        raise DomainError("normal_to_time expects normal-ordered coefficients")
    kappa = params.kappa
    eye = np.eye(l.dim)
    t = eye + kappa * l.c11
    t_inv = _guarded_inverse(t, "1 + kappa*L11")
    e11 = 1j * l.c11 @ t_inv
    e10 = 1j * t_inv @ l.c10
    e01 = 1j * l.c01 @ t_inv
    # E01 T E10 = -L01 (1 + kappa L11)^(-1) L10 under the maps above.
    e00 = 1j * l.c00 - 1j * kappa * (l.c01 @ t_inv @ l.c10)
    return ItoCoefficients(TIME_ORDERED, e00, e01, e10, e11)


def hp_extract(l: ItoCoefficients, gamma: float) -> HPParameters:
    """Read off the Hudson-Parthasarathy triple from unitary coefficients.

    The normal-ordered table of a unitary QSDE is

        L11 = (W - 1)/gamma     L10 = L
        L01 = -L+ W             L00 = -gamma/2 L+ L - i H

    so W = 1 + gamma L11, L = L10 and H = i/2 (L00 - L00+).  Inputs
    whose unitarity defect exceeds HP_TOL are rejected; the returned W is
    checked unitary at the same tolerance.
    """
    if l.kind != NORMAL_ORDERED:
        raise DomainError("hp_extract expects normal-ordered coefficients")
    defect = unitarity_defect(l, gamma)
    if defect > HP_TOL:
        raise DomainError(
            f"coefficients are not unitary: defect {defect:.3e} exceeds tol {HP_TOL:.1e}"
        )
    w = np.eye(l.dim) + gamma * l.c11
    if not is_unitary(w, HP_TOL):
        raise DomainError("extracted W is not unitary within tolerance")
    coupling = l.c10
    h = 0.5j * (l.c00 - adjoint(l.c00))
    return HPParameters(W=w, L=coupling, H=h)


def hp_residuals(l: ItoCoefficients, p: HPParameters, gamma: float) -> tuple[float, float]:
    """Reconstruction residuals (||L01 + L+ W||, ||L00 + gamma/2 L+L + iH||)."""
    r1 = operator_norm(l.c01 + adjoint(p.L) @ p.W)
    r2 = operator_norm(l.c00 + 0.5 * gamma * adjoint(p.L) @ p.L + 1j * p.H)
    return r1, r2
