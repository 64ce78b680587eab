"""Quantum white noise bookkeeping: parameters, differentials, Ito tables.

A single noise channel carries a complex coupling kappa = gamma/2 + i*sigma
with gamma > 0.  Two contraction weights appear throughout:

* the one-sided weight kappa, used when commuting an annihilator through
  a time-ordered solution (normal ordering), and
* the two-sided weight gamma = kappa + conj(kappa), which is what the
  Ito multiplication tables see.

Vacuum Ito table (four fundamental increments, labels (i, j) with i
counting creators and j annihilators):

    dA^{i1} dA^{1j} = gamma dA^{ij},     all other products vanish.

Gaussian Ito table for a bath with occupation n, pair correlation m:

    dA dA+ = gamma (n+1) dt      dA+ dA = gamma n dt
    dA dA  = gamma m dt          dA+ dA+ = gamma conj(m) dt
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisError, DimensionError, DomainError
from .linalg import adjoint, operator_norm, require_square

__all__ = [
    "GAUSSIAN3",
    "GAUSSIAN3_LABELS",
    "NoiseParams",
    "QSDifferential",
    "VACUUM4",
    "VACUUM4_LABELS",
    "differential_adjoint",
    "is_gaussian_state",
    "ito_product_gaussian",
    "ito_product_vacuum",
    "require_finite",
    "unitarity_defect",
]

# Differential bases.  VACUUM4 uses the four fundamental-process labels
# (i, j): (0,0) = dt, (0,1) = dA, (1,0) = dA+, (1,1) = gauge.  GAUSSIAN3
# drops the gauge slot and names the rest directly.
VACUUM4 = "vacuum4"
GAUSSIAN3 = "gaussian3"
VACUUM4_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))
GAUSSIAN3_LABELS = ("dt", "dA", "dAdag")


def require_finite(**values) -> None:
    """Raise DomainError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def is_gaussian_state(n: float, m: complex) -> bool:
    """Whether (n, m) is a Gaussian bath state: n >= 0, |m|^2 <= n(n+1) within 1e-12."""
    return bool(n >= 0 and abs(m) ** 2 <= n * (n + 1.0) + 1e-12)


@dataclass(frozen=True)
class NoiseParams:
    """Channel parameters (gamma, sigma) and Gaussian state (n, m, alpha).

    kappa = gamma/2 + i*sigma.  The Gaussian constraint |m|^2 <= n(n+1)
    is queryable through :meth:`is_gaussian_valid` rather than enforced
    at construction, so that diagnostics can run on invalid states.
    """

    gamma: float
    sigma: float = 0.0
    n: float = 0.0
    m: complex = 0.0
    alpha: complex = 0.0

    def __post_init__(self):
        require_finite(gamma=self.gamma, sigma=self.sigma, n=self.n, m=self.m, alpha=self.alpha)
        if not self.gamma > 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.n < 0:
            raise DomainError(f"n must be nonnegative, got {self.n}")

    @property
    def kappa(self) -> complex:
        return self.gamma / 2.0 + 1j * self.sigma

    def is_gaussian_valid(self) -> bool:
        return is_gaussian_state(self.n, self.m)


def _zero(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=complex)


@dataclass
class QSDifferential:
    """A quantum stochastic differential with operator coefficients.

    ``coeffs`` maps a basis label to a square operator; missing labels
    mean zero.  All coefficients must share one dimension.
    """

    basis: str
    coeffs: dict = field(default_factory=dict)
    dim: int | None = None

    def __post_init__(self):
        if self.basis not in (VACUUM4, GAUSSIAN3):
            raise BasisError(f"unknown differential basis {self.basis!r}")
        labels = VACUUM4_LABELS if self.basis == VACUUM4 else GAUSSIAN3_LABELS
        clean = {}
        for label, c in self.coeffs.items():
            if label not in labels:
                raise BasisError(f"label {label!r} not in basis {self.basis}")
            c = require_square(c, f"coefficient {label!r}")
            if self.dim is None:
                self.dim = c.shape[0]
            elif c.shape[0] != self.dim:
                raise DimensionError(
                    f"coefficient {label!r} has dimension {c.shape[0]}, expected {self.dim}"
                )
            clean[label] = c
        if self.dim is None:
            raise DimensionError("cannot infer dimension of an empty differential")
        self.coeffs = clean

    def coeff(self, label) -> np.ndarray:
        """Coefficient for a label, zero matrix if absent."""
        if label in self.coeffs:
            return self.coeffs[label]
        return _zero(self.dim)


def _check_same(x: QSDifferential, y: QSDifferential, basis: str) -> None:
    if x.basis != basis or y.basis != basis:
        raise BasisError(f"both factors must be in the {basis} basis")
    if x.dim != y.dim:
        raise DimensionError(f"factor dimensions differ: {x.dim} vs {y.dim}")


def ito_product_vacuum(x: QSDifferential, y: QSDifferential, params: NoiseParams) -> QSDifferential:
    """Ito correction of a product of vacuum differentials.

    Only the annihilator edge of x against the creator edge of y
    survives the vacuum table, concatenating the outer indices:

        corr^{il} = gamma x^{i1} y^{1l}.
    """
    _check_same(x, y, VACUUM4)
    g = params.gamma
    out = {}
    for i in (0, 1):
        for l in (0, 1):
            c = g * (x.coeff((i, 1)) @ y.coeff((1, l)))
            if np.any(c):
                out[(i, l)] = c
    if not out:
        out[(0, 0)] = _zero(x.dim)
    return QSDifferential(VACUUM4, out)


def ito_product_gaussian(x: QSDifferential, y: QSDifferential, params: NoiseParams) -> QSDifferential:
    """Ito correction of a product of Gaussian differentials.

    All four second moments contribute, and the correction is purely a
    dt term:

        gamma [ (n+1) x_dA y_dA+  +  n x_dA+ y_dA
                +  m x_dA y_dA    +  conj(m) x_dA+ y_dA+ ] dt.
    """
    _check_same(x, y, GAUSSIAN3)
    g, n, m = params.gamma, params.n, params.m
    corr = g * (
        (n + 1.0) * (x.coeff("dA") @ y.coeff("dAdag"))
        + n * (x.coeff("dAdag") @ y.coeff("dA"))
        + m * (x.coeff("dA") @ y.coeff("dA"))
        + np.conj(m) * (x.coeff("dAdag") @ y.coeff("dAdag"))
    )
    return QSDifferential(GAUSSIAN3, {"dt": corr})


def differential_adjoint(x: QSDifferential) -> QSDifferential:
    """Adjoint differential: coefficients adjointed, labels transposed.

    ([a+]^i X [a-]^j)+ = [a+]^j X+ [a-]^i, so the vacuum label (i, j)
    moves to (j, i); in the Gaussian basis dA and dA+ swap.
    """
    if x.basis == VACUUM4:
        out = {(j, i): adjoint(c) for (i, j), c in x.coeffs.items()}
    else:
        swap = {"dt": "dt", "dA": "dAdag", "dAdag": "dA"}
        out = {swap[k]: adjoint(c) for k, c in x.coeffs.items()}
    if not out:
        out = {next(iter(VACUUM4_LABELS if x.basis == VACUUM4 else GAUSSIAN3_LABELS)): _zero(x.dim)}
    return QSDifferential(x.basis, out)


def unitarity_defect(l, gamma: float) -> float:
    """Largest violation of the normal-ordered unitarity condition.

    For normal-ordered coefficients L_ij (a wick.ItoCoefficients) of
    dV/dt = L_ij [a+]^i V [a-]^j the condition reads, for every (i, j),

        L_ij + L_ji+ + gamma L_1i+ L_1j = 0,

    and the defect returned is the max operator norm over the four
    blocks.  Vanishing defect is equivalent to V staying unitary.
    """
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    t = {(0, 0): l.c00, (0, 1): l.c01, (1, 0): l.c10, (1, 1): l.c11}
    worst = 0.0
    for i in (0, 1):
        for j in (0, 1):
            d = t[(i, j)] + adjoint(t[(j, i)]) + gamma * (adjoint(t[(1, i)]) @ t[(1, j)])
            worst = max(worst, operator_norm(d))
    return worst
