import numpy as np
import pytest
from helpers import ladder, random_gaussian_nm, random_unitary

from gaussbath.doubling import (
    OperatorGaussianSpec,
    SplitCoefficients,
    doubled_moment_report,
    fock_annihilator,
    mode_annihilators,
    operator_split,
    represent_annihilator,
    scalar_split,
    split_residuals,
)
from gaussbath.errors import CommutationError, DimensionError, DomainError, KernelError
from gaussbath.linalg import adjoint, operator_norm
from gaussbath.noise import is_gaussian_state


def test_scalar_split_frozen_thermal():
    s = scalar_split(3.0, 0.0)
    assert s.x == 2.0
    assert s.y == pytest.approx(np.sqrt(3.0), abs=1e-15)
    assert s.z == 0.0


def test_scalar_split_frozen_squeezed():
    s = scalar_split(1.0, 1.0j)
    assert s.x == pytest.approx(1.0, abs=1e-15)
    assert s.y == pytest.approx(1.0, abs=1e-15)
    assert s.z == pytest.approx(1.0j, abs=1e-15)


def test_scalar_split_vacuum():
    s = scalar_split(0.0, 0.0)
    assert (s.x, s.y, s.z) == (1.0, 0.0, 0.0)


def test_scalar_split_exact_boundary():
    # |m|^2 = n(n+1): the first coefficient collapses to zero.
    s = scalar_split(1.0, np.sqrt(2.0))
    assert s.x == pytest.approx(0.0, abs=1e-7)
    r = split_residuals(1.0, np.sqrt(2.0), s)
    assert max(r.values()) < 1e-12


def test_scalar_split_rejects_overcorrelated():
    assert not is_gaussian_state(1.0, 1.5)
    with pytest.raises(DomainError):
        scalar_split(1.0, 1.5)
    with pytest.raises(DomainError):
        scalar_split(-0.5, 0.0)
    with pytest.raises(DomainError):
        scalar_split(-2.0, 0.0)
    # The vacuum admits only m = 0.
    assert not is_gaussian_state(0.0, 1e-7)
    with pytest.raises(DomainError):
        scalar_split(0.0, 1e-7j)


def test_rounded_boundary_points_are_gaussian(rng):
    # |m|^2 = n(n+1) up to rounding, at every scale of n; the slack is relative to n(n+1).
    for _ in range(1000):
        n = 10.0 ** rng.uniform(-6.0, 8.0)
        m = np.sqrt(n * (n + 1.0)) * np.exp(2j * np.pi * rng.uniform())
        assert is_gaussian_state(n, m)
        assert not is_gaussian_state(n, m * (1.0 + 1e-9))
        r = split_residuals(n, m, scalar_split(n, m))
        assert max(r.values()) <= 1e-12


def test_split_residuals_are_relative_to_n_plus_one():
    # Absolute residuals of these identities were 7.4e137 and 1.5e138.
    n, m = 1e154, 5e153
    r = split_residuals(n, m, scalar_split(n, m))
    assert max(r.values()) <= 1e-12, r


@pytest.mark.parametrize("n, m", [(np.nan, 0.0), (np.inf, 0.0), (1.0, complex(np.nan, 0.0)),
                                  (1.0, complex(0.0, np.inf))])
def test_scalar_split_rejects_nonfinite(n, m):
    with pytest.raises(DomainError, match="finite"):
        scalar_split(n, m)


def test_scalar_split_identities_random(rng):
    for _ in range(200):
        n, m = random_gaussian_nm(rng)
        r = split_residuals(n, m, scalar_split(n, m))
        assert max(r.values()) < 1e-12


def test_operator_split_frozen_diagonal():
    spec = OperatorGaussianSpec(N=np.diag([3.0, 1.0]), M=np.diag([0.0, 1.0j]))
    x, y, z = operator_split(spec)
    np.testing.assert_allclose(x, np.diag([2.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(y, np.diag([np.sqrt(3.0), 1.0]), atol=1e-12)
    np.testing.assert_allclose(z, np.diag([0.0, 1.0j]), atol=1e-12)


def test_operator_split_identities_random_basis(rng):
    for d in (2, 3, 4):
        v = random_unitary(rng, d)
        pairs = [random_gaussian_nm(rng) for _ in range(d)]
        n_op = v @ np.diag([p[0] for p in pairs]) @ adjoint(v)
        m_op = v @ np.diag([p[1] for p in pairs]) @ adjoint(v)
        spec = OperatorGaussianSpec(N=n_op, M=m_op)
        x, y, z = operator_split(spec)
        eye = np.eye(d)
        assert operator_norm(adjoint(x) @ x - adjoint(y) @ y + adjoint(z) @ z - eye) < 1e-9
        assert operator_norm(adjoint(x) @ x + adjoint(z) @ z - (n_op + eye)) < 1e-9
        assert operator_norm(y @ z - m_op) < 1e-9


def test_operator_split_kernel_direction_gives_identity():
    # On ker N the pair correlation must vanish and the split restricts
    # to the vacuum values (1, 0, 0).
    spec = OperatorGaussianSpec(N=np.diag([0.0, 2.0]), M=np.diag([0.0, 1.0]))
    x, y, z = operator_split(spec)
    e0 = np.array([1.0, 0.0])
    np.testing.assert_allclose(x @ e0, e0, atol=1e-12)
    np.testing.assert_allclose(y @ e0, 0.0, atol=1e-12)
    np.testing.assert_allclose(z @ e0, 0.0, atol=1e-12)


def test_operator_split_rejects_noncommuting():
    spec = OperatorGaussianSpec(N=np.diag([1.0, 2.0]), M=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(CommutationError):
        operator_split(spec)


def test_operator_split_rejects_pair_on_kernel():
    spec = OperatorGaussianSpec(N=np.diag([0.0, 1.0]), M=np.diag([1.0, 0.0]))
    with pytest.raises(KernelError):
        operator_split(spec)


def test_operator_split_rejects_overcorrelated():
    spec = OperatorGaussianSpec(N=np.eye(2), M=np.diag([2.0, 0.0]))
    with pytest.raises(DomainError, match="exceeds"):
        operator_split(spec)


def test_operator_split_rejects_nonhermitian_n():
    spec = OperatorGaussianSpec(N=np.array([[1.0, 1.0], [0.0, 1.0]]), M=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        operator_split(spec)


def wide_range_pairs(rng, count):
    """(n, m) with n = 10^u, u in [-12, 8], every other one on |m|^2 = n(n+1)."""
    pairs = [(1e-10, 5e-11)]
    for k in range(count):
        n = 10.0 ** rng.uniform(-12.0, 8.0)
        radius = (1.0 if k % 2 else rng.uniform()) * np.sqrt(n * (n + 1.0))
        pairs.append((n, radius * np.exp(2j * np.pi * rng.uniform())))
    return pairs


def test_one_mode_operator_split_is_the_scalar_split(rng):
    for n, m in wide_range_pairs(rng, 1000):
        s = scalar_split(n, m)
        x, y, z = operator_split(OperatorGaussianSpec(N=[[n]], M=[[m]]))
        np.testing.assert_allclose(y[0, 0], s.y, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(z[0, 0], s.z, rtol=1e-12, atol=0.0)
        # On the boundary X is the square root of rounding noise on both paths.
        assert abs(x[0, 0] ** 2 - s.x**2) <= 1e-12 * (n + 1.0)


def test_operator_split_rejects_a_tiny_noncommuting_pair():
    # [N, M] is as large as N M itself; only an absolute floor let it through.
    m_op = 1e-11 * np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = OperatorGaussianSpec(N=np.diag([1e-10, 2e-10]), M=m_op)
    with pytest.raises(CommutationError):
        operator_split(spec)


def test_operator_split_small_n_overcorrelated_is_not_a_kernel_error():
    with pytest.raises(DomainError, match="exceeds") as info:
        operator_split(OperatorGaussianSpec(N=[[1e-10]], M=[[3e-5]]))
    assert not isinstance(info.value, KernelError)


def test_operator_split_accepts_large_n_with_rounding_asymmetry(rng):
    q = random_unitary(rng, 3)
    n_op = q @ np.diag([1e8, 2e8, 3e8]) @ adjoint(q)
    m_op = q @ np.diag([5e7, 1e8j, 0.0]) @ adjoint(q)
    assert np.abs(n_op - adjoint(n_op)).max() > 1e-9
    x, y, z = operator_split(OperatorGaussianSpec(N=n_op, M=m_op))
    eye = np.eye(3)
    assert operator_norm(adjoint(x) @ x + adjoint(z) @ z - (n_op + eye)) < 1e-12 * 3e8
    assert operator_norm(y @ z - m_op) < 1e-12 * 3e8


def test_operator_spec_shape_check():
    with pytest.raises(DimensionError):
        OperatorGaussianSpec(N=np.eye(2), M=np.zeros((3, 3)))


def test_fock_annihilator_matches_oracle():
    np.testing.assert_array_equal(fock_annihilator(6), ladder(6))
    num = adjoint(fock_annihilator(6)) @ fock_annihilator(6)
    np.testing.assert_allclose(num, np.diag(np.arange(6.0)), atol=1e-14)
    with pytest.raises(DomainError):
        fock_annihilator(1)


def test_mode_annihilators_tensor_layout():
    a = fock_annihilator(3)
    eye = np.eye(3)
    a1, a2 = mode_annihilators(2, 3)
    np.testing.assert_array_equal(a1, np.kron(a, eye))
    np.testing.assert_array_equal(a2, np.kron(eye, a))
    np.testing.assert_allclose(a1 @ a2 - a2 @ a1, 0.0, atol=1e-14)


def test_represent_annihilator_vacuum_is_first_factor():
    rep = represent_annihilator(np.array([1.0]), scalar_split(0.0, 0.0), cutoff=4)
    np.testing.assert_allclose(rep, np.kron(fock_annihilator(4), np.eye(4)), atol=1e-14)


def test_represent_annihilator_is_antilinear(rng):
    split = scalar_split(0.7, 0.4j)
    phi = np.array([1.0])
    c = 0.3 - 1.1j
    rep_scaled = represent_annihilator(c * phi, split, cutoff=4)
    rep = represent_annihilator(phi, split, cutoff=4)
    np.testing.assert_allclose(rep_scaled, np.conj(c) * rep, atol=1e-12)


def test_represent_annihilator_canonical_commutator_below_cutoff():
    cutoff = 5
    split = scalar_split(1.2, 0.8 * np.exp(0.3j))
    a = represent_annihilator(np.array([1.0]), split, cutoff)
    comm = a @ adjoint(a) - adjoint(a) @ a
    # Away from the truncation edge the commutator is the identity.
    keep = np.zeros(cutoff)
    keep[: cutoff - 1] = 1.0
    proj = np.diag(np.kron(keep, keep))
    np.testing.assert_allclose(proj @ comm @ proj, proj, atol=1e-12)


def test_represent_annihilator_input_checks():
    split = scalar_split(0.0, 0.0)
    with pytest.raises(DimensionError):
        represent_annihilator(np.array([1.0, 0.0]), split, cutoff=3)


def test_doubled_moments_scalar_squeezed():
    report = doubled_moment_report(OperatorGaussianSpec(N=[[1.0]], M=[[1.0j]]), cutoff=8)
    meas = report["measured"]
    assert meas["a_adag"] == pytest.approx(2.0, abs=1e-10)
    assert meas["adag_a"] == pytest.approx(1.0, abs=1e-10)
    assert meas["a_a"] == pytest.approx(1.0j, abs=1e-10)
    assert report["occupation_convention"] == "N+1"


def test_doubled_moments_operator_two_modes(rng):
    spec = OperatorGaussianSpec(N=np.diag([1.0, 0.5]), M=np.diag([1.0j, 0.3]))
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    report = doubled_moment_report(spec, cutoff=5, phi=phi, psi=psi)
    meas, pred = report["measured"], report["predicted"]
    assert abs(meas["a_adag"] - pred["a_adag_nplus1"]) < 1e-9
    assert abs(meas["a_a"] - pred["a_a"]) < 1e-9
    assert report["occupation_convention"] == "N+1"


def test_split_coefficients_as_matrices():
    s = SplitCoefficients(x=2.0, y=1.0, z=0.5j)
    x, y, z = s.as_matrices()
    assert x.shape == (1, 1) and y.shape == (1, 1) and z.shape == (1, 1)
    assert z[0, 0] == 0.5j


@pytest.mark.parametrize("n, m", [(1e155, 5e154), (1e155, 5e154j), (1e300, 3e299 - 4e299j),
                                  (1.7e308, 1.7e308)])
def test_scalar_split_where_m_squared_is_beyond_the_double_range(n, m):
    with pytest.raises(OverflowError):
        abs(m) ** 2
    s = scalar_split(n, m)
    assert np.all(np.isfinite([s.x, s.y, s.z]))
    r = split_residuals(n, m, s)
    assert max(r.values()) <= 1e-12 * (n + 1.0)


def test_gaussian_bound_where_m_squared_is_beyond_the_double_range():
    # |m| = n is inside n(n+1) by n; the slack stays 1e-12 relative to n(n+1).
    assert is_gaussian_state(1e200, 1e200)
    assert not is_gaussian_state(1e200, 1e200 * (1.0 + 1e-9))
    for n, m in ((1e155, 2e155), (1e200, 1e300), (1e-300, 1e300)):
        assert not is_gaussian_state(n, m)
        with pytest.raises(DomainError, match=r"violates \|m\|\^2 <= n\(n\+1\)"):
            scalar_split(n, m)
