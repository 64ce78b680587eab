import numpy as np
import pytest
from helpers import random_complex, random_density, random_hermitian, random_unitary

from gaussbath.errors import DimensionError, DomainError
from gaussbath.linalg import (
    adjoint,
    choi_matrix,
    devectorize,
    is_hermitian,
    is_psd,
    is_unitary,
    mat_exp,
    mat_sqrt_psd,
    operator_norm,
    partial_trace,
    sandwich,
    vectorize,
)


def taylor_exp(a, terms=60):
    """Series oracle for the matrix exponential, valid for small norm."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_adjoint_moves_across_inner_product(rng):
    a = random_complex(rng, (4, 4))
    u = random_complex(rng, 4)
    v = random_complex(rng, 4)
    lhs = np.vdot(u, a @ v)
    rhs = np.vdot(adjoint(a) @ u, v)
    assert abs(lhs - rhs) < 1e-12


def test_adjoint_is_involution(rng):
    a = random_complex(rng, (3, 3))
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)


def test_mat_exp_matches_taylor_series(rng):
    for d in (2, 3, 5):
        a = random_complex(rng, (d, d))
        a = a / (2.0 * operator_norm(a))
        expected = taylor_exp(a)
        got = mat_exp(a)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_mat_exp_hermitian_path(rng):
    h = random_hermitian(rng, 4)
    expected = taylor_exp(h / 4.0)
    got = mat_exp(h / 4.0)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_mat_exp_inverse_product(rng):
    a = random_complex(rng, (4, 4))
    assert np.max(np.abs(mat_exp(a) @ mat_exp(-a) - np.eye(4))) < 1e-10


def test_mat_exp_antihermitian_gives_unitary(rng):
    h = random_hermitian(rng, 5)
    assert is_unitary(mat_exp(-1j * h), 1e-10)


def test_mat_exp_rejects_nonfinite():
    bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        mat_exp(bad)


def test_mat_exp_overflow_is_range_error():
    with pytest.raises(OverflowError):
        mat_exp(np.diag([1e6, 1.0]).astype(complex))


def test_mat_sqrt_psd_squares_back(rng):
    a = random_complex(rng, (4, 4))
    psd = a @ adjoint(a)
    root = mat_sqrt_psd(psd)
    assert is_psd(root, 1e-10)
    assert np.max(np.abs(root @ root - psd)) < 1e-10


def test_mat_sqrt_psd_clips_tiny_negative_eigenvalues():
    a = np.diag([1.0, -1e-12]).astype(complex)
    root = mat_sqrt_psd(a, tol=1e-10)
    assert root[1, 1] == 0.0


def test_mat_sqrt_psd_rejects_indefinite():
    with pytest.raises(DomainError):
        mat_sqrt_psd(np.diag([1.0, -0.5]).astype(complex))


def test_vectorize_column_stacking_identity(rng):
    for d in (2, 3):
        a = random_complex(rng, (d, d))
        x = random_complex(rng, (d, d))
        b = random_complex(rng, (d, d))
        lhs = vectorize(a @ x @ b)
        rhs = sandwich(a, b) @ vectorize(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_vectorize_roundtrip(rng):
    a = random_complex(rng, (3, 3))
    np.testing.assert_array_equal(devectorize(vectorize(a), 3), a)


def test_devectorize_rejects_bad_length():
    with pytest.raises(DimensionError):
        devectorize(np.zeros(5), 2)


def test_partial_trace_product_states(rng):
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (3, 3))
    np.testing.assert_allclose(
        partial_trace(np.kron(a, b), (2, 3), "second"), np.trace(b) * a, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(np.kron(a, b), (2, 3), "first"), np.trace(a) * b, atol=1e-12
    )


def test_partial_trace_identity_example():
    got = partial_trace(np.eye(6, dtype=complex), (2, 3), "second")
    np.testing.assert_allclose(got, 3.0 * np.eye(2), atol=1e-12)


def test_partial_trace_preserves_total_trace(rng):
    m = random_complex(rng, (6, 6))
    for which in ("first", "second"):
        assert abs(np.trace(partial_trace(m, (2, 3), which)) - np.trace(m)) < 1e-12


def test_predicates_with_tolerance(rng):
    h = random_hermitian(rng, 3)
    perturbed = h + 1e-10 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert is_hermitian(perturbed, 1e-9)
    assert not is_hermitian(perturbed, 1e-12)
    u = random_unitary(rng, 3)
    assert is_unitary(u, 1e-9)
    assert not is_unitary(1.001 * u, 1e-9)
    rho = random_density(rng, 3)
    assert is_psd(rho, 1e-12)
    assert not is_psd(rho - 0.5 * np.eye(3), 1e-9)


def test_choi_of_unitary_conjugation_is_rank_one(rng):
    u = random_unitary(rng, 3)
    s = sandwich(u, adjoint(u))  # X -> U X U+ on column-stacked X
    j = choi_matrix(s)
    evals = np.linalg.eigvalsh((j + adjoint(j)) / 2.0)
    assert evals.min() > -1e-12
    assert abs(evals.max() - 3.0) < 1e-10
    assert np.sum(evals > 1e-10) == 1
