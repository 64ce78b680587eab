"""Quantum white noise bookkeeping: parameters, coefficient quadruples, the Ito table.

A single noise channel carries a complex coupling kappa = gamma/2 + i*sigma
with gamma > 0.  Two contraction weights appear throughout:

* the one-sided weight kappa, used when commuting an annihilator through
  a time-ordered solution (normal ordering), and
* the two-sided weight gamma = kappa + conj(kappa), which is what the
  Ito multiplication table sees.

A differential is an ItoCoefficients quadruple c_ij multiplying
[a+]^i ... [a-]^j: c00 the dt slot, c01 the annihilator dA, c10 the
creator dA+ and c11 the gauge slot.  ito_product is the one Ito table.
For a bath with occupation n and pair correlation m

    dA dA+ = gamma (n+1) dt      dA+ dA = gamma n dt
    dA dA  = gamma m dt          dA+ dA+ = gamma conj(m) dt,

and in the vacuum (n = m = 0) the gauge slot joins in through

    dA^{i1} dA^{1j} = gamma dA^{ij},     all other products vanish.

unitarity_defect is the Ito closure of d(V+V) on that vacuum table.

Every scalar argument of the library is checked by one of four rules
here, where it enters: require_finite (a number, not a bool, str or
None, and finite: m, alpha), require_real (that, and not complex:
sigma, n), require_positive (that, and > 0: gamma, dt, t_final) and
require_count (an integer, not a bool, at least a minimum: steps,
cutoff, modes), which returns a Python int so no size product can wrap.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import frexp, ldexp

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import adjoint, is_hermitian, negligible, operator_norm, require_square

__all__ = [
    "BLOCK_KEYS",
    "GAUSSIAN_RTOL",
    "ItoCoefficients",
    "NORMAL_ORDERED",
    "NoiseParams",
    "TIME_ORDERED",
    "is_gaussian_state",
    "ito_product",
    "require_count",
    "require_finite",
    "require_positive",
    "require_real",
    "unitarity_defect",
]

TIME_ORDERED = "time-ordered"
NORMAL_ORDERED = "normal-ordered"
BLOCK_KEYS = ("c00", "c01", "c10", "c11")

# The slack of |m|^2 <= n(n+1) relative to n(n+1), in the one rule of a physical bath.
GAUSSIAN_RTOL = 1e-12


def require_finite(**values) -> None:
    """The rule of a real (or complex) argument: DomainError naming the first one that is
    not a number (a bool, a str, None) or that is NaN or infinite."""
    for name, value in values.items():
        try:
            finite = np.isfinite(value)
        except TypeError:  # a str, None: nothing np.isfinite can take
            finite = None
        if finite is None or isinstance(value, (bool, np.bool_)):
            raise DomainError(f"{name} must be a number, got {value!r}")
        if not finite:
            raise DomainError(f"{name} must be finite, got {value}")


def require_real(**values) -> None:
    """The rule of a real argument: require_finite, then DomainError naming the first one
    of a complex type, whose imaginary part no comparison or formula of a real reads."""
    require_finite(**values)
    for name, value in values.items():
        if np.iscomplexobj(value):
            raise DomainError(f"{name} must be real, got {value}")


def require_positive(**values) -> None:
    """The rule of a positive real: require_real, then DomainError unless each is > 0."""
    require_real(**values)
    for name, value in values.items():
        if value <= 0:
            raise DomainError(f"{name} must be positive, got {value}")


def require_count(name: str, value, minimum: int) -> int:
    """The rule of a count: DomainError unless value is an integer (numpy's too, a bool not)
    of at least minimum.  Returns int(value), so no product of counts can wrap."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def is_gaussian_state(n: float, m: complex) -> bool:
    """Whether n >= 0 and |m|^2 <= n(n+1) within GAUSSIAN_RTOL of n(n+1): n = 0 admits only
    m = 0.  The one physicality rule: K = gamma [[n+1, m], [conj(m), n]] is PSD there.

    Where |m|^2 is beyond the double range, both sides are scaled by 4^-e,
    2^e the binary order of |m|; the scaling is exact, so the verdict stands.
    """
    n, size = float(n), abs(complex(m))  # Python floats: their ** raises on overflow
    try:
        square, bound = size**2, n * (n + 1.0)
    except OverflowError:
        e = frexp(size)[1]
        square, bound = ldexp(size, -e) ** 2, ldexp(n, -e) * ldexp(n + 1.0, -e)
    return bool(n >= 0 and negligible(square - bound, bound, GAUSSIAN_RTOL))


@dataclass(frozen=True)
class NoiseParams:
    """Channel parameters (gamma, sigma) and Gaussian state (n, m, alpha).

    kappa = gamma/2 + i*sigma.  The Gaussian constraint |m|^2 <= n(n+1)
    is queryable through :func:`is_gaussian_state` rather than enforced
    at construction, so that diagnostics can run on invalid states.
    """

    gamma: float
    sigma: float = 0.0
    n: float = 0.0
    m: complex = 0.0
    alpha: complex = 0.0

    def __post_init__(self):
        require_positive(gamma=self.gamma)
        require_real(sigma=self.sigma, n=self.n)
        require_finite(m=self.m, alpha=self.alpha)
        if self.n < 0:
            raise DomainError(f"n must be nonnegative, got {self.n}")

    @property
    def kappa(self) -> complex:
        return self.gamma / 2.0 + 1j * self.sigma


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

    def adjoint(self) -> ItoCoefficients:
        """The adjoint quadruple: ([a+]^i X [a-]^j)+ = [a+]^j X+ [a-]^i swaps c01 and c10."""
        return ItoCoefficients(
            self.kind, adjoint(self.c00), adjoint(self.c10), adjoint(self.c01), adjoint(self.c11)
        )

    def hermitian_generator(self) -> bool:
        """True when c00, c11 and [[0, c01], [c10, 0]] pass is_hermitian, each at its own size.

        That is, the quadruple equals its adjoint.  Only meaningful for
        time-ordered coefficients, but testable on any.
        """
        zero = np.zeros_like(self.c00)
        pair = np.block([[zero, self.c01], [self.c10, zero]])
        return all(is_hermitian(block) for block in (self.c00, self.c11, pair))


def ito_product(x: ItoCoefficients, y: ItoCoefficients, params: NoiseParams) -> ItoCoefficients:
    """Ito correction of the product of two normal-ordered differentials.

    The dt block collects the four second moments of the bath,

        gamma [ (n+1) x01 y10 + n x10 y01 + m x01 y01 + conj(m) x10 y10 ],

    and the vacuum rule dA^{i1} dA^{1j} = gamma dA^{ij} fills the rest:
    gamma x01 y11, gamma x11 y10 and gamma x11 y11.  The gauge slot has
    a table only in the vacuum, so a nonzero c11 in a bath with
    (n, m) != (0, 0) raises DomainError.
    """
    if x.kind != NORMAL_ORDERED or y.kind != NORMAL_ORDERED:
        raise DomainError("ito_product expects normal-ordered factors")
    if x.dim != y.dim:
        raise DimensionError(f"factor dimensions differ: {x.dim} vs {y.dim}")
    g, n, m = params.gamma, params.n, params.m
    vacuum = n == 0 and m == 0
    if not vacuum and (np.any(x.c11) or np.any(y.c11)):
        raise DomainError("the gauge slot c11 has an Ito table only in the vacuum (n = m = 0)")
    dt = x.c01 @ y.c10
    if not vacuum:
        dt = (
            (n + 1.0) * dt
            + n * (x.c10 @ y.c01)
            + m * (x.c01 @ y.c01)
            + np.conj(m) * (x.c10 @ y.c10)
        )
    return ItoCoefficients(
        NORMAL_ORDERED, g * dt, g * (x.c01 @ y.c11), g * (x.c11 @ y.c10), g * (x.c11 @ y.c11)
    )


def unitarity_defect(l: ItoCoefficients, gamma: float) -> float:
    """Largest violation of the normal-ordered unitarity condition.

    V stays unitary exactly when d(V+V) = dV+ V + V+ dV + dV+ dV
    vanishes at V = 1, that is when l + l+ plus the vacuum Ito
    correction of l+ l is zero; per block (i, j)

        L_ij + L_ji+ + gamma L_1i+ L_1j = 0.

    The defect returned is the max operator norm over the four blocks.
    """
    ld = l.adjoint()
    corr = ito_product(ld, l, NoiseParams(gamma=gamma))
    return max(
        operator_norm(getattr(l, key) + getattr(ld, key) + getattr(corr, key))
        for key in BLOCK_KEYS
    )
