import numpy as np
import pytest
from helpers import (
    SIGMA_MINUS,
    ZERO2,
    ito_heisenberg,
    random_complex,
    random_density,
    random_gaussian_nm,
    random_hermitian,
)

from gaussbath.errors import (
    DegenerateKernelError,
    DimensionError,
    DomainError,
    FormatError,
)
from gaussbath.linalg import (
    adjoint,
    choi_matrix,
    devectorize,
    mat_exp,
    operator_norm,
    vectorize,
)
from gaussbath.lindblad import (
    StepFunction,
    SystemModel,
    commutator_superoperator,
    dissipation_quadratic,
    effective_G,
    evolve,
    exp_vector_propagator,
    extract_commutator_hamiltonian,
    gks_decompose,
    heisenberg_generator,
    schrodinger_liouvillian,
    steady_state,
    validate_density_matrix,
)
from gaussbath.noise import NoiseParams
from gaussbath.wick import NORMAL_ORDERED, TIME_ORDERED, ItoCoefficients


def damped_qubit(gamma=1.0, n=0.0, m=0.0, sigma=0.0, alpha=0.0, f=None):
    return SystemModel(
        C=SIGMA_MINUS,
        F=ZERO2 if f is None else f,
        noise=NoiseParams(gamma=gamma, sigma=sigma, n=n, m=m, alpha=alpha),
    )


def random_model(rng, d, gamma=None):
    n, m = random_gaussian_nm(rng)
    return SystemModel(
        C=random_complex(rng, (d, d)),
        F=random_hermitian(rng, d),
        noise=NoiseParams(
            gamma=gamma if gamma is not None else float(rng.uniform(0.5, 2.0)),
            sigma=float(rng.uniform(-1.0, 1.0)),
            n=n,
            m=m,
        ),
    )


def apply(superop, x):
    return devectorize(superop @ vectorize(x), x.shape[0])


def test_system_model_validation():
    with pytest.raises(DomainError):
        SystemModel(C=SIGMA_MINUS, F=np.array([[0, 1], [0, 0]]), noise=NoiseParams(gamma=1.0))
    with pytest.raises(DimensionError):
        SystemModel(C=SIGMA_MINUS, F=np.zeros((3, 3)), noise=NoiseParams(gamma=1.0))
    with pytest.raises(DomainError, match="finite"):
        SystemModel(C=[[0.0, 0.0], [np.inf, 0.0]], F=ZERO2, noise=NoiseParams(gamma=1.0))


def test_density_matrix_validation():
    good = np.diag([0.25, 0.75]).astype(complex)
    validate_density_matrix(good)
    with pytest.raises(DomainError):
        validate_density_matrix(np.diag([0.5, 0.4]))
    with pytest.raises(DomainError):
        validate_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(DomainError):
        validate_density_matrix(np.diag([1.2, -0.2]))


def test_dissipation_quadratic_is_hermitian(rng):
    model = random_model(rng, 3)
    q = dissipation_quadratic(model)
    np.testing.assert_allclose(q, adjoint(q), atol=1e-12)


def test_effective_g_splits_into_drift_and_dissipation(rng):
    model = SystemModel(
        C=random_complex(rng, (3, 3)),
        F=random_hermitian(rng, 3),
        noise=NoiseParams(gamma=1.4, sigma=0.3, n=0.8, m=0.5j, alpha=0.2 - 0.1j),
    )
    g = effective_G(model)
    q = dissipation_quadratic(model)
    # Hermitian part is gamma/2 Q, anti-Hermitian part carries F, the
    # displacement and the sigma shift.
    np.testing.assert_allclose(g + adjoint(g), 1.4 * q, atol=1e-12)
    alpha = model.noise.alpha
    drift = model.F + np.conj(alpha) * model.C + alpha * adjoint(model.C) + 0.3 * q
    np.testing.assert_allclose(g - adjoint(g), 2j * drift, atol=1e-12)


def test_closed_system_reduces_to_commutators(rng):
    f = random_hermitian(rng, 3)
    model = SystemModel(C=np.zeros((3, 3)), F=f, noise=NoiseParams(gamma=1.0))
    np.testing.assert_allclose(
        heisenberg_generator(model), commutator_superoperator(f), atol=1e-12
    )
    np.testing.assert_allclose(
        schrodinger_liouvillian(model), -commutator_superoperator(f), atol=1e-12
    )


def test_vacuum_damping_population_observable():
    model = damped_qubit(gamma=1.3)
    proj = adjoint(SIGMA_MINUS) @ SIGMA_MINUS
    lx = apply(heisenberg_generator(model), proj)
    np.testing.assert_allclose(lx, -1.3 * proj, atol=1e-13)


def test_heisenberg_generator_is_unital(rng):
    for d in (2, 3):
        model = random_model(rng, d)
        residual = heisenberg_generator(model) @ vectorize(np.eye(d))
        assert np.max(np.abs(residual)) < 1e-12


def test_schrodinger_liouvillian_preserves_trace(rng):
    model = random_model(rng, 3)
    functional = vectorize(np.eye(3)).conj() @ schrodinger_liouvillian(model)
    assert np.max(np.abs(functional)) < 1e-12


def test_heisenberg_schrodinger_trace_duality(rng):
    # Independent pairing oracle: tr(L(X) rho) must equal tr(X L'(rho)).
    model = random_model(rng, 3)
    heis = heisenberg_generator(model)
    liouv = schrodinger_liouvillian(model)
    for _ in range(10):
        x = random_complex(rng, (3, 3))
        rho = random_complex(rng, (3, 3))
        lhs = np.trace(apply(heis, x) @ rho)
        rhs = np.trace(x @ apply(liouv, rho))
        assert abs(lhs - rhs) < 1e-10
    np.testing.assert_allclose(liouv, adjoint(heis), atol=1e-12)


def test_commutator_hamiltonian_round_trip(rng):
    h = random_hermitian(rng, 4)
    h = h - h[0, 0] * np.eye(4)
    got, residual = extract_commutator_hamiltonian(commutator_superoperator(h))
    np.testing.assert_allclose(got, h, atol=1e-11)
    assert residual < 1e-11


def test_commutator_hamiltonian_rejects_bad_shape():
    with pytest.raises(DimensionError):
        extract_commutator_hamiltonian(np.eye(5))


def test_gks_frozen_boundary_eigenvalues():
    # gamma [[n+1, m], [conj(m), n]] at n = 1, m = sqrt(2) has a zero
    # mode: the state sits exactly on the Gaussian boundary.
    form = gks_decompose(damped_qubit(gamma=1.0, n=1.0, m=np.sqrt(2.0)))
    np.testing.assert_allclose(form.kossakowski_eigenvalues(), [0.0, 3.0], atol=1e-12)
    assert form.is_cp(tol=1e-10)


def test_gks_interior_is_strictly_positive(rng):
    for _ in range(10):
        model = random_model(rng, 2)
        form = gks_decompose(model)
        assert form.is_cp()
        np.testing.assert_allclose(form.heisenberg_matrix(), ito_heisenberg(model), atol=1e-10)


def test_heisenberg_generator_matches_ito_closure(rng):
    # Independent oracle: L closed from the Gaussian Ito table over dU+ X U.
    worst = 0.0
    for case in range(60):
        d = 2 + case % 3
        n, m = random_gaussian_nm(rng)
        model = SystemModel(
            C=random_complex(rng, (d, d)),
            F=random_hermitian(rng, d),
            noise=NoiseParams(
                gamma=float(rng.uniform(0.5, 2.0)),
                sigma=float(rng.uniform(0.2, 1.0)),
                n=n,
                m=m,
                alpha=complex(*rng.uniform(-1.0, 1.0, size=2)),
            ),
        )
        worst = max(worst, np.abs(heisenberg_generator(model) - ito_heisenberg(model)).max())
    assert worst <= 1e-12


def test_gks_unphysical_pair_correlation_flags_negative():
    form = gks_decompose(damped_qubit(gamma=1.0, n=1.0, m=1.5))
    assert form.kossakowski_eigenvalues().min() < -1e-3
    assert not form.is_cp()


def test_gks_hamiltonian_carries_sigma_shift(rng):
    model = random_model(rng, 2, gamma=1.0)
    form = gks_decompose(model)
    want = (
        model.F
        + np.conj(model.noise.alpha) * model.C
        + model.noise.alpha * adjoint(model.C)
        + model.noise.sigma * dissipation_quadratic(model)
    )
    np.testing.assert_allclose(form.h_eff, want, atol=1e-12)


def test_evolve_vacuum_decay_analytic():
    gamma = 0.9
    model = damped_qubit(gamma=gamma)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    grid = np.array([0.0, 0.1, 0.25, 0.7, 1.3])
    states = evolve(model, rho0, grid)
    np.testing.assert_allclose(states[:, 0, 0], np.exp(-gamma * grid), atol=1e-10)
    np.testing.assert_allclose(states[:, 0, 0] + states[:, 1, 1], 1.0, atol=1e-12)


def test_evolve_coherence_half_rate():
    gamma = 1.0
    model = damped_qubit(gamma=gamma)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    grid = np.linspace(0.0, 2.0, 9)
    states = evolve(model, rho0, grid)
    np.testing.assert_allclose(states[:, 0, 1], 0.5 * np.exp(-0.5 * gamma * grid), atol=1e-10)


def test_evolve_rk4_matches_expm(rng):
    model = random_model(rng, 2)
    rho0 = random_density(rng, 2)
    grid = np.linspace(0.0, 1.0, 6)
    a = evolve(model, rho0, grid, method="expm")
    b = evolve(model, rho0, grid, method="rk4")
    assert max(operator_norm(x - y) for x, y in zip(a, b)) < 1e-8


def test_evolve_input_checks(rng):
    model = damped_qubit()
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(DomainError):
        evolve(model, rho0, np.array([0.5, 1.0]))
    with pytest.raises(DomainError):
        evolve(model, rho0, np.array([0.0, 0.5, 0.4]))
    with pytest.raises(DomainError):
        evolve(model, rho0, np.array([0.0, 1.0]), method="euler")
    with pytest.raises(DimensionError):
        evolve(model, np.eye(3) / 3.0, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        evolve(model, np.diag([0.9, 0.3]), np.array([0.0, 1.0]))


def test_evolve_trivial_grid():
    model = damped_qubit()
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    states = evolve(model, rho0, np.array([0.0]))
    assert states.shape == (1, 2, 2)
    np.testing.assert_array_equal(states[0], rho0)


def test_dynamics_stay_completely_positive(rng):
    model = random_model(rng, 2)
    liouv = schrodinger_liouvillian(model)
    for t in (0.1, 1.0):
        j = choi_matrix(mat_exp(t * liouv))
        assert np.linalg.eigvalsh((j + adjoint(j)) / 2.0).min() > -1e-10


def test_steady_state_thermal_qubit():
    for n in (0.5, 1.0, 3.0):
        rho = steady_state(damped_qubit(gamma=1.0, n=n))
        assert rho[0, 0] == pytest.approx(n / (2.0 * n + 1.0), abs=1e-10)
        residual = schrodinger_liouvillian(damped_qubit(gamma=1.0, n=n)) @ vectorize(rho)
        assert np.max(np.abs(residual)) < 1e-10


def test_steady_state_squeezed_qubit_stays_diagonal():
    # For a pure lowering coupling the pair correlation only mixes the
    # two coherences with each other; below |m| = (2n+1)/2 that sector
    # decays, so the squeezed steady state is the thermal diagonal.
    n = 1.0
    model = damped_qubit(gamma=1.0, n=n, m=0.8 * np.sqrt(2.0) * np.exp(0.25j * np.pi))
    rho = steady_state(model)
    validate_density_matrix(rho)
    np.testing.assert_allclose(rho, np.diag([n, n + 1.0]) / (2.0 * n + 1.0), atol=1e-10)


def test_steady_state_degenerate_kernel():
    model = SystemModel(C=np.zeros((2, 2)), F=ZERO2, noise=NoiseParams(gamma=1.0))
    with pytest.raises(DegenerateKernelError) as info:
        steady_state(model)
    assert info.value.kernel_dim == 4
    sz = np.diag([1.0, -1.0])
    with pytest.raises(DegenerateKernelError) as info:
        steady_state(SystemModel(C=np.zeros((2, 2)), F=sz, noise=NoiseParams(gamma=1.0)))
    assert info.value.kernel_dim == 2


def test_step_function_semantics():
    f = StepFunction([0.0, 1.0, 2.5], [1.0, -2.0j, 0.5])
    assert f(0.0) == 1.0
    assert f(0.999) == 1.0
    assert f(1.0) == -2.0j
    assert f(3.0) == 0.5
    np.testing.assert_array_equal(f.breakpoints_within(2.0), [1.0])
    np.testing.assert_array_equal(f.breakpoints_within(10.0), [1.0, 2.5])


def test_step_function_validation():
    with pytest.raises(FormatError):
        StepFunction([0.5, 1.0], [1.0, 2.0])
    with pytest.raises(FormatError):
        StepFunction([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(FormatError):
        StepFunction([0.0], [np.inf])
    with pytest.raises(FormatError):
        StepFunction([0.0, 1.0], [1.0])


def normal_table(rng, d):
    return ItoCoefficients(
        NORMAL_ORDERED,
        random_complex(rng, (d, d)),
        random_complex(rng, (d, d)),
        random_complex(rng, (d, d)),
        random_complex(rng, (d, d)),
    )


def rk4_segment_oracle(gen, t, steps=400):
    """Integrate dT/ds = gen T on [0, t] with classic RK4."""
    d = gen.shape[0]
    result = np.eye(d, dtype=complex)
    h = t / steps
    for _ in range(steps):
        k1 = gen @ result
        k2 = gen @ (result + 0.5 * h * k1)
        k3 = gen @ (result + 0.5 * h * k2)
        k4 = gen @ (result + h * k3)
        result = result + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return result


def test_exp_vector_propagator_zero_functions(rng):
    l = normal_table(rng, 3)
    t = 0.8
    got = exp_vector_propagator(l, None, None, t)
    np.testing.assert_allclose(got, mat_exp(t * l.c00), atol=1e-12)


def test_exp_vector_propagator_frozen_damping():
    c = SIGMA_MINUS
    l = ItoCoefficients(
        NORMAL_ORDERED, -0.5 * adjoint(c) @ c, -adjoint(c), c, np.zeros((2, 2))
    )
    got = exp_vector_propagator(l, 0.0, 0.0, 2.0)
    np.testing.assert_allclose(got, np.diag([np.exp(-1.0), 1.0]), atol=1e-12)


def test_exp_vector_propagator_constant_functions(rng):
    l = normal_table(rng, 2)
    f, g = 0.4 - 0.2j, 0.7j
    t = 0.6
    gen = l.c00 + g * l.c01 + np.conj(f) * l.c10 + np.conj(f) * g * l.c11
    got = exp_vector_propagator(l, f, g, t)
    np.testing.assert_allclose(got, rk4_segment_oracle(gen, t), atol=1e-9)


def test_exp_vector_propagator_step_functions(rng):
    l = normal_table(rng, 2)
    f = StepFunction([0.0, 0.3], [1.0, -0.5j])
    g = StepFunction([0.0, 0.5], [0.2, 0.9])
    t = 0.8
    oracle = np.eye(2, dtype=complex)
    for left, right in ((0.0, 0.3), (0.3, 0.5), (0.5, 0.8)):
        lf, lg = f(left), g(left)
        gen = l.c00 + lg * l.c01 + np.conj(lf) * l.c10 + np.conj(lf) * lg * l.c11
        oracle = rk4_segment_oracle(gen, right - left) @ oracle
    got = exp_vector_propagator(l, f, g, t)
    np.testing.assert_allclose(got, oracle, atol=1e-8)


def test_exp_vector_propagator_gamma_weighting(rng):
    l = normal_table(rng, 2)
    gamma, f, g = 2.0, 0.7, 0.3j
    weighted = exp_vector_propagator(l, f, g, 0.5, weighting="gamma", gamma=gamma)
    plain = exp_vector_propagator(l, gamma * f, gamma * g, 0.5)
    np.testing.assert_allclose(weighted, plain, atol=1e-12)


def test_exp_vector_propagator_input_checks(rng):
    l = normal_table(rng, 2)
    with pytest.raises(FormatError):
        exp_vector_propagator(l, lambda s: 1.0, None, 1.0)
    with pytest.raises(DomainError):
        exp_vector_propagator(l, None, None, -1.0)
    with pytest.raises(DomainError):
        exp_vector_propagator(l, None, None, 1.0, weighting="half")
    with pytest.raises(DomainError):
        exp_vector_propagator(l, None, None, 1.0, weighting="gamma")
    z = np.zeros((2, 2))
    e = ItoCoefficients(TIME_ORDERED, z, z, z, z)
    with pytest.raises(DomainError):
        exp_vector_propagator(e, None, None, 1.0)
