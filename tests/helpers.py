"""Shared construction helpers for the test suite."""

import numpy as np

from gaussbath.noise import (
    GAUSSIAN3,
    QSDifferential,
    differential_adjoint,
    ito_product_gaussian,
)

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
ZERO2 = np.zeros((2, 2), dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    a = random_complex(rng, (d, d))
    return (a + a.conj().T) / 2.0


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    a = random_complex(rng, (d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_gaussian_nm(rng, n_max=2.0, fill=0.95):
    """Random (n, m) strictly inside the physical region."""
    n = rng.uniform(0.0, n_max)
    radius = fill * rng.uniform(0.0, 1.0) * np.sqrt(n * (n + 1.0))
    m = radius * np.exp(2j * np.pi * rng.uniform())
    return n, m


def ladder(cutoff):
    """Independent truncated annihilator (oracle-side copy)."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for k in range(1, cutoff):
        a[k - 1, k] = np.sqrt(k)
    return a


def ito_heisenberg(model):
    """Heisenberg generator closed from the quantum Ito table, column by column.

    At U = 1 the evolution equation reads dU = -iC dA+ - iC+ dA - G dt
    with G = i(F + conj(alpha) C + alpha C+) + kappa Q, where gamma Q is
    the Ito correction of dU+ dU.  L(X) is the dt part of
    d(U+ X U) = dU+ X + X dU + dU+ X dU; nothing here calls lindblad.
    """
    c, f, p = model.C, model.F, model.noise
    cd = c.conj().T
    d = c.shape[0]
    noise_part = {"dA": -1j * cd, "dAdag": -1j * c}
    dw = QSDifferential(GAUSSIAN3, noise_part)
    gamma_q = ito_product_gaussian(differential_adjoint(dw), dw, p).coeff("dt")
    g = 1j * (f + np.conj(p.alpha) * c + p.alpha * cd) + p.kappa * gamma_q / p.gamma
    du = QSDifferential(GAUSSIAN3, {"dt": -g, **noise_part})
    du_adj = differential_adjoint(du)
    out = np.zeros((d * d, d * d), dtype=complex)
    for col in range(d * d):
        x = np.zeros(d * d, dtype=complex)
        x[col] = 1.0
        x = x.reshape((d, d), order="F")
        x_du = QSDifferential(GAUSSIAN3, {k: x @ v for k, v in du.coeffs.items()})
        lx = (
            du_adj.coeff("dt") @ x
            + x_du.coeff("dt")
            + ito_product_gaussian(du_adj, x_du, p).coeff("dt")
        )
        out[:, col] = lx.flatten(order="F")
    return out
