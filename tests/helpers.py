"""Shared construction helpers for the test suite."""

import numpy as np

from gaussbath.errors import DegenerateKernelError, DimensionError
from gaussbath.lindblad import RANK_RTOL, schrodinger_liouvillian
from gaussbath.linalg import adjoint, operator_norm, require_square
from gaussbath.noise import NORMAL_ORDERED, ItoCoefficients, ito_product

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
ZERO2 = np.zeros((2, 2), dtype=complex)


def sandwich(a, b):
    """Superoperator of X -> A X B, dense: ``vec(A X B) = sandwich(A, B) @ vec(X)``.

    The np.kron reference that linalg.sandwich_sum is compared against.
    """
    return np.kron(np.asarray(b).T, a)


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
    zero = np.zeros((d, d), dtype=complex)
    # dW = -iC dA+ - iC+ dA: the creator slot c10 holds -iC, the annihilator slot c01 -iC+.
    dw = ItoCoefficients(NORMAL_ORDERED, zero, -1j * cd, -1j * c, zero)
    gamma_q = ito_product(dw.adjoint(), dw, p).c00
    g = 1j * (f + np.conj(p.alpha) * c + p.alpha * cd) + p.kappa * gamma_q / p.gamma
    du = ItoCoefficients(NORMAL_ORDERED, -g, dw.c01, dw.c10, zero)
    du_adj = du.adjoint()
    out = np.zeros((d * d, d * d), dtype=complex)
    for col in range(d * d):
        x = np.zeros(d * d, dtype=complex)
        x[col] = 1.0
        x = x.reshape((d, d), order="F")
        x_du = ItoCoefficients(NORMAL_ORDERED, x @ du.c00, x @ du.c01, x @ du.c10, x @ du.c11)
        lx = du_adj.c00 @ x + x_du.c00 + ito_product(du_adj, x_du, p).c00
        out[:, col] = lx.flatten(order="F")
    return out


def dense_steady_state(model):
    """Steady state from one dense SVD of L': the oracle for lindblad.steady_state.

    The right singular vector of the smallest singular value, Hermitian-
    projected and trace-normalized.  Singular values at most RANK_RTOL times
    the largest count as kernel; a count other than one raises
    DegenerateKernelError carrying it.
    """
    _, svals, vh = np.linalg.svd(schrodinger_liouvillian(model))
    kernel_dim = int(np.sum(svals <= RANK_RTOL * svals[0]))
    if kernel_dim != 1:
        raise DegenerateKernelError(
            f"Liouvillian kernel has dimension {kernel_dim}, expected 1", kernel_dim=kernel_dim
        )
    rho = vh[-1].conj().reshape((model.dim, model.dim), order="F")
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho)


def dissipation_quadratic(model):
    """The Hermitian quadratic Q = (n+1) C+C + n CC+ + conj(m) CC + m C+C+, term by term."""
    c, p = model.C, model.noise
    cd = c.conj().T
    return (p.n + 1.0) * (cd @ c) + p.n * (c @ cd) + np.conj(p.m) * (c @ c) + p.m * (cd @ cd)


def commutator_superoperator(h):
    """Superoperator of X -> i[h, X] on column-stacked X."""
    h = require_square(h, "commutator argument")
    eye = np.eye(h.shape[0])
    return 1j * (sandwich(h, eye) - sandwich(eye, h))


def extract_commutator_hamiltonian(s):
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


def choi_matrix(s):
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
