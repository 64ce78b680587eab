import numpy as np
import pytest
from helpers import SIGMA_MINUS, ZERO2, random_density

from gaussbath.collision import (
    CollisionConfig,
    convergence_study,
    increment_operator,
    simulate,
    step_unitary,
    trace_distance,
)
from gaussbath.doubling import mode_annihilators
from gaussbath.errors import DimensionError, DomainError, TruncationWarning
from gaussbath.lindblad import SystemModel, evolve
from gaussbath.linalg import adjoint, is_unitary
from gaussbath.noise import NoiseParams


def qubit_model(gamma=1.0, n=0.0, m=0.0, alpha=0.0):
    return SystemModel(
        C=SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=gamma, n=n, m=m, alpha=alpha)
    )


def pair_vacuum_expect(op):
    return complex(op[0, 0])


def test_config_validation():
    model = qubit_model()
    with pytest.raises(DomainError):
        CollisionConfig(model=model, dt=0.0, steps=10, cutoff=3)
    with pytest.raises(DomainError):
        CollisionConfig(model=model, dt=0.1, steps=0, cutoff=3)
    with pytest.raises(DomainError):
        CollisionConfig(model=model, dt=0.1, steps=10, cutoff=1)
    with pytest.raises(DomainError):
        CollisionConfig(model=qubit_model(n=1.0), dt=0.1, steps=10, cutoff=2)
    shifted = SystemModel(C=SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=1.0, sigma=0.5))
    with pytest.raises(DomainError, match="sigma"):
        CollisionConfig(model=shifted, dt=0.1, steps=10, cutoff=3)


def test_increment_moments_match_ito_table():
    gamma, dt, n, m = 1.5, 0.02, 1.0, 0.6 * np.exp(0.7j)
    config = CollisionConfig(model=qubit_model(gamma=gamma, n=n, m=m),
                             dt=dt, steps=1, cutoff=6)
    b = increment_operator(config)
    bd = adjoint(b)
    assert abs(pair_vacuum_expect(b @ bd) - gamma * dt * (n + 1.0)) < 1e-12
    assert abs(pair_vacuum_expect(bd @ b) - gamma * dt * n) < 1e-12
    assert abs(pair_vacuum_expect(b @ b) - gamma * dt * m) < 1e-12
    assert abs(pair_vacuum_expect(bd @ bd) - gamma * dt * np.conj(m)) < 1e-12


def test_increment_is_the_doubled_annihilator_of_the_two_mode_sum():
    # The two-mode form sqrt(gamma dt) (x b1 + y b2+ + z b2), written out here.
    for n, m, cutoff in ((0.0, 0.0, 3), (0.6, 0.4 * np.exp(1.1j), 5), (1.0, -0.9j, 7)):
        config = CollisionConfig(model=qubit_model(gamma=1.3, n=n, m=m),
                                 dt=0.03, steps=1, cutoff=cutoff)
        b1, b2 = mode_annihilators(2, cutoff)
        s = config.split
        want = np.sqrt(1.3 * 0.03) * (s.x * b1 + s.y * adjoint(b2) + s.z * b2)
        assert np.max(np.abs(increment_operator(config) - want)) == 0.0


def test_increment_commutator_on_low_levels():
    gamma, dt = 2.0, 0.05
    config = CollisionConfig(model=qubit_model(gamma=gamma, n=0.8, m=0.5j),
                             dt=dt, steps=1, cutoff=6)
    b = increment_operator(config)
    comm = b @ adjoint(b) - adjoint(b) @ b
    cutoff = 6
    keep = np.zeros(cutoff)
    keep[: cutoff - 1] = 1.0
    proj = np.diag(np.kron(keep, keep))
    np.testing.assert_allclose(proj @ comm @ proj, gamma * dt * proj, atol=1e-12)


def test_step_unitary_is_unitary():
    config = CollisionConfig(model=qubit_model(n=0.5, m=0.3, alpha=0.1j),
                             dt=0.05, steps=1, cutoff=4)
    u = step_unitary(config)
    assert u.shape == (2 * 16, 2 * 16)
    assert is_unitary(u, 1e-10)


def test_single_collision_error_is_second_order():
    # Halving dt should cut the one-step error by about four.
    model = qubit_model(gamma=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    errs = []
    for dt in (0.08, 0.04):
        config = CollisionConfig(model=model, dt=dt, steps=1, cutoff=4)
        approx = simulate(config, rho0)[-1]
        exact = evolve(model, rho0, np.array([0.0, dt]))[-1]
        errs.append(trace_distance(approx, exact))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_vacuum_trajectory_tracks_exact_decay():
    model = qubit_model(gamma=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    config = CollisionConfig(model=model, dt=0.01, steps=500, cutoff=3)
    states = simulate(config, rho0)
    grid = np.arange(501) * 0.01
    exact = evolve(model, rho0, grid)
    worst = max(trace_distance(states[k], exact[k]) for k in range(501))
    assert worst < 5e-3
    traces = np.einsum("kii->k", states)
    np.testing.assert_allclose(traces, 1.0, atol=1e-10)


def test_simulate_warns_on_truncation():
    model = qubit_model(gamma=2.0, n=3.0)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    config = CollisionConfig(model=model, dt=0.5, steps=3, cutoff=3)
    with pytest.warns(TruncationWarning):
        simulate(config, rho0)


def test_simulate_input_checks():
    config = CollisionConfig(model=qubit_model(), dt=0.1, steps=2, cutoff=3)
    with pytest.raises(DimensionError):
        simulate(config, np.eye(3) / 3.0)
    with pytest.raises(DomainError):
        simulate(config, np.diag([0.9, 0.3]))


def test_trace_distance_frozen_and_checks():
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-14)
    assert trace_distance(a, a) == 0.0
    with pytest.raises(DimensionError):
        trace_distance(a, np.eye(3))


def test_convergence_study_vacuum_first_order():
    model = qubit_model(gamma=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    result = convergence_study(model, rho0, t_final=0.5, dts=[0.05, 0.025, 0.0125], cutoff=3)
    assert result.dts == [0.05, 0.025, 0.0125]
    assert result.monotone
    assert 0.8 < result.fitted_order < 1.3
    for r in result.ratios:
        assert 1.5 < r < 2.5


def test_convergence_study_thermal(rng):
    model = qubit_model(gamma=1.0, n=1.0)
    rho0 = random_density(rng, 2)
    result = convergence_study(model, rho0, t_final=0.4, dts=[0.04, 0.02], cutoff=5)
    assert result.monotone
    assert 0.8 < result.fitted_order < 1.3


def test_convergence_study_input_checks():
    model = qubit_model()
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(DomainError):
        convergence_study(model, rho0, t_final=-1.0, dts=[0.1, 0.05], cutoff=3)
    with pytest.raises(DomainError):
        convergence_study(model, rho0, t_final=1.0, dts=[0.1], cutoff=3)
