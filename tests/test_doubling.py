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
