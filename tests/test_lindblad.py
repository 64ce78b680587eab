import warnings
from unittest import mock

import numpy as np
import pytest
from helpers import (
    SIGMA_MINUS,
    ZERO2,
    dense_steady_state,
    ito_heisenberg,
    ladder,
    random_complex,
    random_density,
    random_gaussian_nm,
    random_hermitian,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbath import lindblad
from gaussbath.errors import (
    DegenerateKernelError,
    DimensionError,
    DomainError,
)
from gaussbath.linalg import (
    MAX_DENSE_DIM,
    adjoint,
    choi_matrix,
    dense_exp_is_cheaper,
    devectorize,
    mat_exp,
    operator_norm,
    sandwich,
    sandwich_triplets,
    vectorize,
)
from gaussbath.lindblad import (
    SystemModel,
    _taylor4,
    commutator_superoperator,
    dissipation_quadratic,
    evolve,
    extract_commutator_hamiltonian,
    gks_decompose,
    heisenberg_generator,
    schrodinger_liouvillian,
    steady_state,
    validate_density_matrix,
)
from gaussbath.noise import NoiseParams


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


def test_hermiticity_of_f_is_relative_to_its_scale(rng):
    # Hermitian up to rounding; its asymmetry exceeds 1e-9 in absolute terms only.
    q = random_unitary(rng, 5)
    f = q @ np.diag(1e8 * np.arange(1.0, 6.0)) @ adjoint(q)
    assert np.abs(f - adjoint(f)).max() > 1e-9
    np.testing.assert_array_equal(SystemModel(C=ladder(5), F=f, noise=NoiseParams(1.0)).F, f)
    with pytest.raises(DomainError, match="Hermitian"):
        SystemModel(C=ladder(5), F=f + 1e-6 * np.abs(f).max() * np.triu(np.ones((5, 5)), 1),
                    noise=NoiseParams(1.0))


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
    g = gks_decompose(model).effective_G()
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


def test_schrodinger_matrix_is_the_dense_twin_of_the_sparse_one(rng):
    for d in (1, 2, 3, 5):
        form = gks_decompose(random_model(rng, d))
        dense = form.schrodinger_matrix()
        assert dense.tobytes() == form.schrodinger_sparse().toarray().tobytes()
        np.testing.assert_array_equal(dense, adjoint(form.heisenberg_matrix()))


def test_no_schrodinger_path_builds_the_heisenberg_matrix(rng, monkeypatch):
    import scipy.sparse.linalg

    def fail(*args, **kwargs):
        raise AssertionError("L' taken from the Heisenberg matrix")

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    model, rho0, grid = random_model(rng, 3), random_density(rng, 3), np.linspace(0.0, 1.0, 5)
    liouv = adjoint(heisenberg_generator(model))
    want = [rho0]
    for _ in grid[1:]:
        want.append(apply(mat_exp(grid[1] * liouv), want[-1]))
    steady = dense_steady_state(model)
    monkeypatch.setattr(lindblad.GKSForm, "heisenberg_matrix", fail)
    np.testing.assert_array_equal(schrodinger_liouvillian(model), liouv)
    for method in ("expm", "rk4"):
        states = evolve_on_route("dense", model, rho0, grid, method=method)
        np.testing.assert_allclose(states, want, rtol=0, atol=1e-10)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)  # the dense SVD decides
    np.testing.assert_allclose(steady_state(model), steady, rtol=0, atol=1e-10)


def test_commutator_hamiltonian_round_trip(rng):
    h = random_hermitian(rng, 4)
    h = h - h[0, 0] * np.eye(4)
    got, residual = extract_commutator_hamiltonian(commutator_superoperator(h))
    np.testing.assert_allclose(got, h, atol=1e-11)
    assert residual < 1e-11


def test_commutator_hamiltonian_reads_the_probe_columns(rng):
    # The probe form: h_raw[:, j] = -i s(|j><0|)[:, 0], written out here.
    for d in (2, 3, 5):
        s = random_complex(rng, (d * d, d * d))
        h_raw = np.zeros((d, d), dtype=complex)
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[j, 0] = 1.0
            h_raw[:, j] = -1j * apply(s, e)[:, 0]
        h_raw -= h_raw[0, 0] * np.eye(d)
        want = (h_raw + adjoint(h_raw)) / 2.0
        got, _ = extract_commutator_hamiltonian(s)
        assert np.max(np.abs(got - want)) <= 1e-15


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


@st.composite
def generated_forms(draw):
    """A Kossakowski form with nonzero sigma, alpha and m, random F and a C with zeros.

    Returns the form and whether C is complex.
    """
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_c = draw(st.booleans())
    c = random_complex(rng, (d, d)) if complex_c else rng.standard_normal((d, d))
    c *= rng.uniform(size=(d, d)) < draw(st.floats(0.2, 1.0))
    n = draw(st.floats(0.01, 2.0))
    m = draw(st.floats(0.01, 1.0)) * np.sqrt(n * (n + 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    noise = NoiseParams(
        gamma=draw(st.floats(0.1, 3.0)),
        sigma=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 2.0)),
        n=n,
        m=m,
        alpha=complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0))),
    )
    model = SystemModel(C=c, F=random_hermitian(rng, d), noise=noise)
    return gks_decompose(model), complex_c


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(generated=generated_forms())
def test_triplet_scatter_equals_kron_sum(generated):
    form, complex_c = generated
    # The six sandwiches as np.kron arrays, added in heisenberg_matrix's order.
    g = form.effective_G()
    eye = np.eye(g.shape[0])
    want = sandwich(eye, -g)
    want += sandwich(-adjoint(g), eye)
    for j, vj in enumerate(form.jumps):
        for k, vk in enumerate(form.jumps):
            want += sandwich(form.kossakowski[j, k] * adjoint(vj), vk)
    got = form.heisenberg_matrix()
    # The sparse L' sums the same triplets, in an order its index sort picks.
    sparse_err = np.abs(form.schrodinger_sparse().toarray() - adjoint(got)).max()
    assert sparse_err <= 4 * np.finfo(float).eps * np.abs(want).max()
    err = np.abs(got - want).max()
    if complex_c:
        # numpy rounds a complex-by-complex product by a kernel (fused or
        # not) chosen from the operand layout, so a C+ ... C product may
        # differ from np.kron's in its last bit.
        assert err <= 4 * np.finfo(float).eps * np.abs(want).max()
    else:
        # Every product has a real factor, so it is rounded once either way:
        # equal as floats, only the sign of a zero may differ.
        assert err == 0.0
        assert np.array_equal(got, want)


def test_sandwich_triplets_match_kron(rng):
    a = random_complex(rng, (3, 4)) * (rng.uniform(size=(3, 4)) < 0.5)
    b = random_complex(rng, (2, 5)) * (rng.uniform(size=(2, 5)) < 0.5)
    rows, cols, values = sandwich_triplets(a, b)
    dense = np.zeros((15, 8), dtype=complex)
    dense[rows, cols] = values
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
    assert np.array_equal(dense, sandwich(a, b))


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
    grid = np.linspace(0.0, 1.3, 5)
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


def rk4_stage_loop(model, rho0, grid):
    """Classical RK4 with four Liouvillian matvecs per substep, on evolve's substep rule.

    The grid is evenly spaced: every interval takes the step grid[1].
    """
    liouv = schrodinger_liouvillian(model)
    noise = model.noise
    scale = (noise.gamma * (2.0 * noise.n + 1.0 + 2.0 * abs(noise.m))
             * operator_norm(model.C) ** 2 + operator_norm(model.F))
    dt = grid[1]
    nsub = max(1, int(np.ceil(dt / min(dt / 20.0, 0.01 / scale))))
    h = dt / nsub
    v = vectorize(rho0)
    states = [rho0]
    for _ in range(grid.size - 1):
        for _ in range(nsub):
            k1 = liouv @ v
            k2 = liouv @ (v + 0.5 * h * k1)
            k3 = liouv @ (v + 0.5 * h * k2)
            k4 = liouv @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(devectorize(v, rho0.shape[0]))
    return np.array(states)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_evolve_rk4_equals_stage_loop(rng, d):
    model = random_model(rng, d)
    rho0 = random_density(rng, d)
    grid = np.linspace(0.0, 1.5, 9)
    got = evolve(model, rho0, grid, method="rk4")
    assert np.max(np.abs(got - rk4_stage_loop(model, rho0, grid))) <= 1e-12


def test_taylor4_is_one_rk4_step(rng):
    # At h ||L'|| ~ 1 one RK4 step is far from exp(h L'), so this tells the two apart.
    liouv = schrodinger_liouvillian(random_model(rng, 3))
    h = 1.0 / operator_norm(liouv)
    v = vectorize(random_density(rng, 3))
    k1 = liouv @ v
    k2 = liouv @ (v + 0.5 * h * k1)
    k3 = liouv @ (v + 0.5 * h * k2)
    k4 = liouv @ (v + h * k3)
    want = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.max(np.abs(_taylor4(h * liouv) @ v - want)) <= 1e-14
    assert np.max(np.abs(mat_exp(h * liouv) @ v - want)) > 1e-4


def test_evolve_input_checks(rng):
    model = damped_qubit()
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(DomainError):
        evolve(model, rho0, np.array([0.5, 1.0]))
    # No absolute floor: at gamma = 1e15 (femtoseconds) 9e-16 is most of a decay time.
    with pytest.raises(DomainError, match="time grid must start at 0"):
        evolve(damped_qubit(gamma=1e15), rho0, np.array([9e-16, 1.8e-15]))
    with pytest.raises(DomainError):
        evolve(model, rho0, np.array([0.0, 0.5, 0.4]))
    # One step map per trajectory: an uneven grid, however small, is rejected.
    for uneven in ([0.0, 0.1, 0.25, 0.7, 1.3], [0.0, 1e-13, 3e-13]):
        with pytest.raises(DomainError, match="evenly spaced"):
            evolve(model, rho0, np.array(uneven))
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError, match="finite"):
            evolve(model, rho0, np.array([0.0, 1.0, bad]))
    with pytest.raises(DomainError):
        evolve(model, rho0, np.array([0.0, 1.0]), method="euler")
    with pytest.raises(DimensionError):
        evolve(model, np.eye(3) / 3.0, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        evolve(model, np.diag([0.9, 0.3]), np.array([0.0, 1.0]))
    # points * d^2 <= MAX_DENSE_DIM^2 bounds the stored trajectory.
    with pytest.raises(DomainError, match="1048577 points at d = 2 breaks"):
        evolve(model, rho0, np.linspace(0.0, 1.0, MAX_DENSE_DIM**2 // 4 + 1))
    d = 46  # d^2 = 2116: RK4's dense maps are beyond MAX_DENSE_DIM
    big = SystemModel(C=ladder(d), F=np.zeros((d, d)), noise=NoiseParams(gamma=1.0))
    with pytest.raises(DomainError, match="dense budget 2048; use --method expm"):
        evolve(big, np.eye(d) / d, np.array([0.0, 1.0]), method="rk4")


def test_evolve_trivial_grid():
    model = damped_qubit()
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    states = evolve(model, rho0, np.array([0.0]))
    assert states.shape == (1, 2, 2)
    np.testing.assert_array_equal(states[0], rho0)


def test_evolve_builds_one_map_per_distinct_spacing(rng, monkeypatch):
    calls = []

    def counting_exp(a):
        calls.append(a)
        return mat_exp(a)

    monkeypatch.setattr(lindblad, "mat_exp", counting_exp)
    model = random_model(rng, 3)
    rho0 = random_density(rng, 3)
    liouv = schrodinger_liouvillian(model)
    # An evenly spaced grid has one spacing, so one map, even where rounding
    # makes np.diff differ in the last bits, and a tiny grid that an absolute
    # rounding would merge to 0.
    for grid in (np.linspace(0.0, 5.0, 101), np.linspace(0.0, 3e-13, 4)):
        assert np.unique(np.diff(grid)).size > 1
        calls.clear()
        got = evolve(model, rho0, grid)
        assert len(calls) == 1
        per_interval = [rho0]
        for dt in np.diff(grid):
            per_interval.append(devectorize(mat_exp(dt * liouv) @ vectorize(per_interval[-1]), 3))
        assert np.max(np.abs(got - np.array(per_interval))) <= 1e-12


# ---------------------------------------------------------------- Krylov route

def number(d):
    return np.diag(np.arange(d)).astype(complex)


TRAJECTORY_KINDS = ("thermal", "squeezed", "boundary", "displaced", "random F", "random C")


@st.composite
def trajectory_cases(draw, kind):
    """(model, rho0, grid) at d <= 24 for the Krylov pin.

    kind is one of TRAJECTORY_KINDS; "boundary" puts m on |m|^2 = n(n+1).
    The grid is a linspace.
    """
    d = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, f = ladder(d), number(d)
    n, m, sigma, alpha = draw(st.floats(0.0, 1.5)), 0.0, 0.0, 0.0
    if kind in ("squeezed", "boundary", "random F", "random C"):
        fill = 1.0 if kind == "boundary" else draw(st.floats(0.0, 1.0))
        m = fill * np.sqrt(n * (n + 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    if kind == "displaced":
        sigma = draw(st.floats(-1.0, 1.0))
        alpha = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    if kind == "random F":
        f = random_hermitian(rng, d)
    if kind == "random C":
        c = random_complex(rng, (d, d)) / np.sqrt(d)
    noise = NoiseParams(gamma=draw(st.floats(0.3, 2.0)), sigma=sigma, n=n, m=m, alpha=alpha)
    grid = np.linspace(0.0, draw(st.floats(0.1, 3.0)), draw(st.integers(2, 41)))
    return SystemModel(C=c, F=f, noise=noise), random_density(rng, d), grid


def evolve_on_route(route, *args, **kwargs):
    """evolve with the route rule fixed so that "expm" takes route."""
    with mock.patch.object(lindblad, "dense_exp_is_cheaper", lambda *a, **k: route == "dense"):
        return evolve(*args, **kwargs)


@pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_krylov_route_matches_dense_expm(kind, data):
    model, rho0, grid = data.draw(trajectory_cases(kind))
    dense = evolve_on_route("dense", model, rho0, grid)
    krylov = evolve_on_route("krylov", model, rho0, grid)
    assert krylov.shape == dense.shape
    assert np.max(np.abs(krylov - dense)) <= 1e-12


def test_krylov_route_calls_expm_multiply_once_per_run(rng, monkeypatch):
    import scipy.sparse.linalg

    calls = []
    expm_multiply = scipy.sparse.linalg.expm_multiply

    def counting(*args, **kwargs):
        calls.append(kwargs["num"])
        return expm_multiply(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", counting)
    model, rho0 = random_model(rng, 3), random_density(rng, 3)
    # An evenly spaced grid is one run: one call over all of its points.
    for grid in (np.linspace(0.0, 5.0, 101), np.linspace(0.0, 3e-13, 4)):
        calls.clear()
        krylov = evolve_on_route("krylov", model, rho0, grid)
        assert calls == [grid.size]
        dense = evolve_on_route("dense", model, rho0, grid)
        assert np.max(np.abs(krylov - dense)) <= 1e-12


def test_evolve_accepts_every_linspace_grid(monkeypatch):
    import scipy.sparse.linalg

    exps, nums = [], []

    def counting_exp(a):
        exps.append(a)
        return mat_exp(a)

    def constant_action(a, v, **grid):  # records the call; the numbers are pinned elsewhere
        nums.append(grid["num"])
        return np.repeat(v[None], grid["num"], axis=0)

    monkeypatch.setattr(lindblad, "mat_exp", counting_exp)
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", constant_action)
    model, rho0 = damped_qubit(), np.diag([1.0, 0.0]).astype(complex)
    for t_final in (1e-320, 1e-300, 5.0, 1e10):
        for points in (2, 5001, 100001):
            grid = np.linspace(0.0, t_final, points)
            if t_final == 1e-320 and points > 2:
                # t_final / (points - 1) underflows to 0, so linspace repeats
                # points: not a time grid, whatever its spacing.
                with pytest.raises(DomainError, match="strictly increasing"):
                    evolve(model, rho0, grid)
                continue
            exps.clear()
            nums.clear()
            dense = evolve_on_route("dense", model, rho0, grid)
            krylov = evolve_on_route("krylov", model, rho0, grid)
            assert len(dense) == len(krylov) == points
            assert len(exps) == 1 and nums == [points]
            np.testing.assert_allclose(dense[:, 0, 0].real, np.exp(-grid), rtol=0, atol=1e-10)
    # arange grids, k dt, deviate from the linspace by rounding alone.
    for dt in (1e-7, 0.1, 3.7):
        lindblad._check_grid(np.arange(10**6 + 1) * dt)


def test_evolve_on_the_krylov_route_never_builds_a_dense_map(monkeypatch):
    def fail(*args):
        raise AssertionError("dense route taken")

    d = 20
    model = SystemModel(C=ladder(d), F=number(d), noise=NoiseParams(gamma=0.7))
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[1, 1] = 1.0
    grid = np.linspace(0.0, 2.0, 11)
    # The rule sends this grid to Krylov and the same grid stretched 1000-fold to dense.
    pairs = gks_decompose(model).schrodinger_sandwiches()
    assert not dense_exp_is_cheaper(pairs, 0.2, 10)
    assert dense_exp_is_cheaper(pairs, 200.0, 10)
    monkeypatch.setattr(lindblad.GKSForm, "schrodinger_matrix", fail)
    monkeypatch.setattr(lindblad, "mat_exp", fail)
    _, keys, pos, *_ = np.random.get_state()
    states = evolve(model, rho0, grid)
    # expm_multiply's norm estimates leave numpy's global stream where it was.
    _, keys_after, pos_after, *_ = np.random.get_state()
    assert np.array_equal(keys_after, keys) and pos_after == pos
    # One quantum in a vacuum bath decays at rate gamma.
    np.testing.assert_allclose(states[:, 1, 1].real, np.exp(-0.7 * grid), rtol=0, atol=1e-12)
    with pytest.raises(AssertionError, match="dense route"):
        evolve(model, rho0, 1000.0 * grid)


@pytest.mark.parametrize("route, method",
                         [("dense", "expm"), ("krylov", "expm"), ("dense", "rk4")],
                         ids=["dense", "krylov", "rk4"])
def test_evolve_builds_one_gks_form_per_call(rng, monkeypatch, route, method):
    forms = []

    def counting(model):
        forms.append(gks_decompose(model))
        return forms[-1]

    monkeypatch.setattr(lindblad, "gks_decompose", counting)
    model, rho0 = random_model(rng, 3), random_density(rng, 3)
    evolve_on_route(route, model, rho0, np.linspace(0.0, 1.0, 5), method=method)
    assert len(forms) == 1


def scaled_ladder(scale, d=20):
    """A vacuum-bath oscillator with C = scale a and F = 0."""
    return SystemModel(C=scale * ladder(d), F=np.zeros((d, d)), noise=NoiseParams(gamma=1.0))


@pytest.mark.parametrize("route, model, grid, match", [
    # |m| far beyond sqrt(n(n+1)): the coherences of an unphysical bath grow.
    ("dense", damped_qubit(gamma=1.0, n=0.0, m=5.0), np.array([0.0, 400.0]), "not finite"),
    ("krylov", damped_qubit(gamma=1.0, n=0.0, m=5.0), np.array([0.0, 400.0]), "not finite"),
    # ||L'||_1 = 3.8e121 is finite, so the rule takes the dense route, where the
    # exponential of dt L' overflows.
    ("natural", scaled_ladder(1e60), np.linspace(0.0, 1.0, 3),
     "mat_exp overflow: result is not finite"),
    # Every entry of L' is finite but its norm is not, so the rule takes the Krylov
    # route, where scipy's own step count from that norm fails (on NaN).
    ("natural", scaled_ladder(1e153), np.linspace(0.0, 1.0, 3),
     "expm_multiply overflow: the trajectory is not finite"),
    # C = 1e160 |1><0|, gamma = 1e-100: dt L' (about 1e220) is finite and exp(dt L') a
    # contraction, but (dt L')^2 is not finite, so the dense route names the overflow.
    ("natural", SystemModel(C=np.array([[0.0, 0.0], [1e160, 0.0]]), F=np.zeros((2, 2)),
                            noise=NoiseParams(gamma=1e-100)), np.linspace(0.0, 1.0, 3),
     "mat_exp overflow: result is not finite"),
], ids=["dense", "krylov", "ladder-1e60", "ladder-1e153", "tiny-gamma"])
def test_a_trajectory_beyond_the_double_range_overflows(route, model, grid, match):
    rho0 = np.full((model.dim, model.dim), 1.0 / model.dim, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=match):
            if route == "natural":
                evolve(model, rho0, grid)
            else:
                evolve_on_route(route, model, rho0, grid)


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


# ---------------------------------------------------------------- units

@st.composite
def damped_models(draw):
    """A truncated damped oscillator with random Hermitian F and a physical bath.

    Returns a function of lambda: the model with (gamma, sigma, F, alpha)
    scaled by lambda, which changes only the unit of time.
    """
    d = draw(st.integers(2, 6))
    f = random_hermitian(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    gamma, sigma = draw(st.floats(0.1, 3.0)), draw(st.floats(-1.0, 1.0))
    n = draw(st.floats(0.0, 2.0))
    fill = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    m = fill * np.sqrt(n * (n + 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    alpha = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))

    def at(lam):
        noise = NoiseParams(gamma=lam * gamma, sigma=lam * sigma, n=n, m=m, alpha=lam * alpha)
        return SystemModel(C=ladder(d), F=lam * f, noise=noise)

    return at


@settings(derandomize=True, database=None, deadline=None)
@given(model_at=damped_models(), log_lam=st.floats(-12.0, 12.0))
def test_answers_do_not_depend_on_the_unit_of_time(model_at, log_lam):
    lam = 10.0**log_lam
    unit, scaled = model_at(1.0), model_at(lam)
    heis = heisenberg_generator(unit)
    err = np.abs(heisenberg_generator(scaled) - lam * heis).max()
    assert err <= 1e-12 * lam * np.abs(heis).max()
    np.testing.assert_allclose(steady_state(scaled), steady_state(unit), rtol=0, atol=1e-10)
    # Every generated bath is physical, the boundary included: CP at every scale.
    assert gks_decompose(unit).is_cp() and gks_decompose(scaled).is_cp()


# ---------------------------------------------------------------- sparse steady state

def steady_models():
    """Thermal, squeezed (the boundary |m|^2 = n(n+1) included), displaced and random-F models."""
    rng = np.random.default_rng(20261018)
    number = lambda d: np.diag(np.arange(d)).astype(complex)  # noqa: E731
    boundary = np.sqrt(0.8 * 1.8) * np.exp(0.4j)
    return [
        SystemModel(C=ladder(24), F=number(24), noise=NoiseParams(gamma=1.0, n=0.7)),
        SystemModel(C=ladder(16), F=number(16),
                    noise=NoiseParams(gamma=1.3, n=0.6, m=0.5 * np.sqrt(0.96) * np.exp(2j))),
        SystemModel(C=ladder(12), F=np.zeros((12, 12)),
                    noise=NoiseParams(gamma=1.0, n=0.8, m=boundary)),
        SystemModel(C=ladder(24), F=number(24),
                    noise=NoiseParams(gamma=1.0, sigma=0.3, n=0.2, m=0.1j, alpha=0.4 - 0.2j)),
        SystemModel(C=ladder(10), F=random_hermitian(rng, 10),
                    noise=NoiseParams(gamma=0.8, n=0.4, m=0.2 - 0.1j, alpha=0.3)),
        random_model(rng, 6),
        damped_qubit(gamma=1.0, n=1.0, m=np.sqrt(2.0)),
    ]


@pytest.mark.parametrize("case", range(len(steady_models())))
def test_steady_state_matches_dense_oracle(case):
    model = steady_models()[case]
    np.testing.assert_allclose(steady_state(model), dense_steady_state(model), rtol=0, atol=1e-10)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(model_at=damped_models())
def test_steady_state_matches_dense_oracle_on_generated_models(model_at):
    model = model_at(1.0)
    np.testing.assert_allclose(steady_state(model), dense_steady_state(model), rtol=0, atol=1e-10)


def linked_blocks(eps, link):
    """Two damped two-level blocks, {0, 1} and {2, 3}, linked by eps through C or through F."""
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = c[2, 3] = 1.0
    f = np.zeros((4, 4), dtype=complex)
    if link == "C":
        c[1, 2] = eps
    else:
        f[1, 2] = f[2, 1] = eps
    return SystemModel(C=c, F=f, noise=NoiseParams(gamma=1.0, n=0.5))


@pytest.mark.parametrize("link", ["C", "F"])
@pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-7, 1e-9])
def test_nearly_decoupled_blocks_get_the_oracle_verdict(eps, link):
    model = linked_blocks(eps, link)
    try:
        want = dense_steady_state(model)
    except DegenerateKernelError as exc:
        with pytest.raises(DegenerateKernelError) as info:
            steady_state(model)
        assert info.value.kernel_dim == exc.kernel_dim
    else:
        np.testing.assert_allclose(steady_state(model), want, rtol=0, atol=1e-10)


def test_steady_state_falls_back_to_the_dense_kernel_when_the_lu_is_singular(monkeypatch):
    import scipy.sparse.linalg

    calls = []

    def singular(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    d, n = 6, 0.5
    m = 0.5 * np.sqrt(n * (n + 1.0)) * np.exp(0.7j)
    model = SystemModel(C=ladder(d), F=number(d), noise=NoiseParams(gamma=1.0, n=n, m=m))
    rho = steady_state(model)
    assert len(calls) == 1
    np.testing.assert_allclose(rho, dense_steady_state(model), rtol=0, atol=1e-10)


def test_degenerate_kernel_beyond_the_dense_budget_is_not_counted():
    d = 46  # d^2 = 2116 > MAX_DENSE_DIM
    assert d * d > MAX_DENSE_DIM
    model = SystemModel(C=np.zeros((d, d)), F=np.zeros((d, d)), noise=NoiseParams(gamma=1.0))
    with pytest.raises(DegenerateKernelError, match="condition estimate inf") as info:
        steady_state(model)
    assert info.value.kernel_dim is None


def test_steady_state_of_a_large_squeezed_oscillator():
    d, n = 64, 0.5
    m = 0.5 * np.sqrt(n * (n + 1.0)) * np.exp(1.1j)
    a = ladder(d)
    rho = steady_state(SystemModel(C=a, F=np.zeros((d, d)), noise=NoiseParams(gamma=1.0, n=n, m=m)))
    assert abs(np.trace(adjoint(a) @ a @ rho) - n) <= 1e-8
    assert abs(abs(np.trace(a @ a @ rho)) - abs(m)) <= 1e-8


@pytest.mark.parametrize("method, match", [
    ("expm", "^evolve overflow: dt L' is not finite$"),
    ("rk4", "^evolve overflow: the RK4 substep count is not finite$"),
])
def test_a_step_map_beyond_the_double_range_overflows(method, match):
    # gamma dt = 1e310: dt L', and dt over RK4's 0.01 / gamma substep, leave the range.
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=match):
            evolve(damped_qubit(gamma=1e300), rho0, np.array([0.0, 1e10]), method=method)
