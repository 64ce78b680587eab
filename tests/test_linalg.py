import warnings
from math import isqrt

import numpy as np
import pytest
from helpers import ladder, random_complex, random_density, random_hermitian, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbath import linalg
from gaussbath.collision import CollisionConfig, _step_sandwiches
from gaussbath.errors import DimensionError, DomainError
from gaussbath.linalg import (
    adjoint,
    choi_matrix,
    dense_exp_is_cheaper,
    devectorize,
    expm_action,
    is_hermitian,
    is_psd,
    is_unitary,
    mat_exp,
    mat_sqrt_psd,
    operator_norm,
    partial_trace,
    propagate,
    require_finite_result,
    sandwich,
    sandwich_sum,
    sandwich_sum_sparse,
    vectorize,
)
from gaussbath.lindblad import SystemModel, gks_decompose, schrodinger_liouvillian
from gaussbath.noise import NoiseParams


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


@st.composite
def exp_arguments(draw):
    """-iH of a one-step collision at d cutoff^2 <= 200, or dt L' at d <= 8, dt in [0.01, 1].

    The model has a ladder or a random complex C, a random Hermitian F and a
    squeezed thermal bath; the L' kind also draws sigma and alpha.
    """
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = random_complex(rng, (d, d)) / np.sqrt(d) if draw(st.booleans()) else ladder(d)
    n = draw(st.floats(0.0, 1.5))
    m = draw(st.floats(0.0, 1.0)) * np.sqrt(n * (n + 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    noise = dict(gamma=draw(st.floats(0.1, 3.0)), n=n, m=m,
                 alpha=complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))))
    if draw(st.booleans()):
        model = SystemModel(C=c, F=random_hermitian(rng, d), noise=NoiseParams(**noise))
        config = CollisionConfig(model=model, dt=draw(st.floats(0.005, 0.1)), steps=1,
                                 cutoff=draw(st.integers(3, isqrt(200 // d))))
        return -1j * sandwich_sum(_step_sandwiches(config), "the step Hamiltonian")
    noise["sigma"] = draw(st.floats(-1.0, 1.0))
    model = SystemModel(C=c, F=random_hermitian(rng, d), noise=NoiseParams(**noise))
    return draw(st.floats(0.01, 1.0)) * schrodinger_liouvillian(model)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(a=exp_arguments())
def test_mat_exp_matches_scipy_expm(a):
    import scipy.linalg

    want = scipy.linalg.expm(a)
    assert np.max(np.abs(mat_exp(a) - want)) <= 1e-13 * np.max(np.abs(want))


def test_mat_exp_of_a_diagonal_is_exp_of_the_diagonal(rng):
    # L' of C = sigma_z is diagonal, and the oracle's zero error there rests on this.
    sigma_z = SystemModel(C=np.diag([1.0, -1.0]), F=np.zeros((2, 2)), noise=NoiseParams(gamma=1.0))
    for a in (np.diag(random_complex(rng, 6)), 0.1 * schrodinger_liouvillian(sigma_z),
              np.array([[-3.0 + 1j]])):
        assert np.array_equal(mat_exp(a), np.diag(np.exp(np.diagonal(a))))


@pytest.mark.parametrize("d", [2, 8])
def test_mat_exp_keeps_the_trace_of_a_stiff_decay(d):
    import scipy.linalg

    # A vacuum bath makes L' triangular.  At ||dt L'||_1 about 1e16, s is about 50: squarings
    # that do not keep the diagonal exact grow the unit eigenvalue's rounding 2^50-fold.
    model = SystemModel(C=1e8 * ladder(d), F=np.diag(np.arange(d)), noise=NoiseParams(gamma=1.0))
    a = 0.5 * schrodinger_liouvillian(model)
    got, trace = mat_exp(a), np.eye(d).flatten(order="F")
    assert np.max(np.abs(trace @ got - trace)) <= 1e-14
    want = scipy.linalg.expm(a)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_mat_exp_takes_m_9_by_the_exact_d8(monkeypatch):
    import scipy.linalg

    # -iH of a d = 8 collision step at cutoff 5: d_4 > theta_9 > d_6 > d_8, so m = 9 takes
    # five n x n products (A^2, A^4, A^6, A^8, A U), where the bound d_8 <= d_4 took m = 13
    # and six (A^2, A^4, A^6, A^6 P, A^6 Q, A U).
    a = -1j * sandwich_sum(step_pairs(8, 5), "the step Hamiltonian")
    n = a.shape[0]
    d = {k: np.abs(np.linalg.matrix_power(a, k)).sum(axis=0).max() ** (1 / k) for k in (4, 6, 8)}
    assert d[4] > linalg._PADE_THETA[9] > d[6] > d[8]
    products = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(x, y, *args, **kwargs):
            if np.shape(x) == np.shape(y) == (n, n):
                products.append(1)
            return np.matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(linalg, "np", CountingNumpy())
    got = mat_exp(a)
    monkeypatch.undo()
    assert len(products) == 5
    want = scipy.linalg.expm(a)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("a", [
    np.full((3, 3), 1e80),  # exp(a) itself is beyond the double range
    np.array([[-1e80, 1e80], [0.0, -1e80]]),  # exp(a) is a contraction, A^4 is not finite
], ids=["growing", "contraction"])
def test_mat_exp_overflowing_power_is_range_error(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="mat_exp overflow: result is not finite"):
            mat_exp(a)


def test_mat_sqrt_psd_squares_back(rng):
    a = random_complex(rng, (4, 4))
    psd = a @ adjoint(a)
    root = mat_sqrt_psd(psd)
    assert is_psd(root, scale=0.1)  # eigenvalues >= -1e-10
    assert np.max(np.abs(root @ root - psd)) < 1e-10


def test_mat_sqrt_psd_clips_tiny_negative_eigenvalues():
    a = np.diag([1.0, -1e-12]).astype(complex)
    root = mat_sqrt_psd(a, scale=0.1)  # clips eigenvalues down to -1e-10
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


def test_vectorize_rejects_a_non_square_array():
    with pytest.raises(DimensionError, match=r"vectorize argument must be a square matrix"):
        vectorize(np.zeros((2, 3)))


def test_devectorize_rejects_bad_length():
    with pytest.raises(DimensionError):
        devectorize(np.zeros(5), 2)


def test_vectorize_and_devectorize_take_stacks(rng):
    stack = random_complex(rng, (2, 4, 3, 3))
    vecs = vectorize(stack)
    assert vecs.shape == (2, 4, 9)
    back = devectorize(vecs, 3)
    assert back.shape == stack.shape
    assert np.ascontiguousarray(back).tobytes() == stack.tobytes()
    for j in range(2):
        for k in range(4):
            assert vecs[j, k].tobytes() == vectorize(stack[j, k]).tobytes()
            assert back[j, k].tobytes() == devectorize(vecs[j, k], 3).tobytes()
    with pytest.raises(DimensionError, match=r"square matrix, got shape \(4, 2, 3\)"):
        vectorize(np.zeros((4, 2, 3)))
    with pytest.raises(DimensionError, match="vector of length 5 is not 2x2"):
        devectorize(np.zeros((4, 5)), 2)


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("d", [1, 3])
def test_propagate_is_the_step_loop_bit_for_bit(rng, d, count):
    step = random_complex(rng, (d * d, d * d)) / d
    rho0 = random_density(rng, d)
    v, want = vectorize(rho0), [rho0]
    for _ in range(count):
        v = step @ v
        want.append(devectorize(v, d))
    states = propagate(rho0, step, count)
    assert states.shape == (count + 1, d, d)
    assert np.ascontiguousarray(states).tobytes() == np.array(want).tobytes()


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
    # A scale s allows a residual of DEFAULT_TOL * s = 1e-9 * s.
    h = random_hermitian(rng, 3)
    perturbed = h + 1e-10 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert is_hermitian(perturbed, scale=1.0)
    assert is_hermitian(perturbed)  # at its own O(1) size
    assert not is_hermitian(perturbed, scale=1e-3)
    u = random_unitary(rng, 3)
    assert is_unitary(u, 1e-9)
    assert not is_unitary(1.001 * u, 1e-9)
    rho = random_density(rng, 3)
    assert is_psd(rho, scale=1e-3)
    assert not is_psd(rho - 0.5 * np.eye(3), scale=1.0)


def test_choi_of_unitary_conjugation_is_rank_one(rng):
    u = random_unitary(rng, 3)
    s = sandwich(u, adjoint(u))  # X -> U X U+ on column-stacked X
    j = choi_matrix(s)
    evals = np.linalg.eigvalsh((j + adjoint(j)) / 2.0)
    assert evals.min() > -1e-12
    assert abs(evals.max() - 3.0) < 1e-10
    assert np.sum(evals > 1e-10) == 1


def test_choi_matrix_equals_probe_sum(rng):
    # J = sum_ik E_ik (x) Phi(E_ik), one probe per matrix unit, written out here.
    for d in (1, 2, 3, 4):
        s = random_complex(rng, (d * d, d * d))
        want = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for k in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, k] = 1.0
                want += np.kron(e, devectorize(s @ vectorize(e), d))
        assert np.max(np.abs(choi_matrix(s) - want)) <= 1e-15


def test_require_finite_result_passes_values_through():
    values = np.array([1.0, -2.5j])
    assert require_finite_result(values, "the test array") is values
    for bad in (np.inf, np.nan, complex(0.0, -np.inf)):
        with pytest.raises(OverflowError, match="^the test array is not finite$"):
            require_finite_result(np.array([1.0, bad]), "the test array")


def oscillator_liouvillian(d, noise, scale=1.0):
    model = SystemModel(C=scale * ladder(d), F=np.diag(np.arange(d)).astype(complex), noise=noise)
    return gks_decompose(model).schrodinger_sparse()


def test_expm_action_is_reproducible_and_leaves_the_global_stream(rng):
    # At d = 6, t = 5 scipy's norm estimates draw from numpy's global stream.
    d, t = 6, 5.0
    liouv = oscillator_liouvillian(d, NoiseParams(gamma=1.0, n=0.5, m=0.3))
    v = vectorize(random_density(rng, d))
    answers = []
    for seed in (1, 2):
        np.random.seed(seed)
        _, keys, pos, *_ = np.random.get_state()
        answers.append(expm_action(t * liouv, v, "the test state"))
        _, keys_after, pos_after, *_ = np.random.get_state()
        assert np.array_equal(keys_after, keys) and pos_after == pos
    assert np.array_equal(answers[0], answers[1])
    assert np.max(np.abs(answers[0] - mat_exp(t * liouv.toarray()) @ v)) <= 1e-12
    grid = expm_action(liouv, v, "the test state", start=0.0, stop=t, num=3, endpoint=True)
    assert grid.shape == (3, d * d)
    assert np.max(np.abs(grid[-1] - answers[0])) <= 1e-12


@pytest.mark.parametrize("scale, cause", [(1e60, OverflowError), (1e153, ValueError)],
                         ids=["infinite-step-count", "nan-step-count"])
def test_expm_action_names_a_norm_beyond_the_double_range(scale, cause):
    # Every entry of L' is finite, its norm is not: scipy's int() of its step
    # count fails, and the failure is renamed, chained to scipy's exception.
    liouv = oscillator_liouvillian(20, NoiseParams(gamma=1.0), scale)
    assert np.all(np.isfinite(liouv.data))
    v = np.zeros(400, dtype=complex)
    v[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^expm_multiply overflow: the test state is not "
                           "finite$") as info:
            expm_action(liouv, v, "the test state")
    assert type(info.value.__cause__) is cause


def oscillator_pairs(d, scale=1.0, **noise):
    """The sandwiches of L' for C = scale a and F = a+a."""
    model = SystemModel(C=scale * ladder(d), F=np.diag(np.arange(d)).astype(complex),
                        noise=NoiseParams(**{"gamma": 1.0, **noise}))
    return gks_decompose(model).schrodinger_sandwiches()


def step_pairs(d, cutoff, dt=0.02):
    """The sandwiches of a collision step Hamiltonian on a thermal oscillator."""
    model = SystemModel(C=ladder(d), F=np.diag(np.arange(d)).astype(complex),
                        noise=NoiseParams(gamma=1.0, n=0.5))
    return _step_sandwiches(CollisionConfig(model=model, dt=dt, steps=1, cutoff=cutoff))


BENCH_BATH = {"n": 0.5, "m": 0.2}  # n + |m| = 0.7, as the evolve benchmark jobs hold it


# (operator pairs, step, count, columns, whether dense is cheaper)
ROUTES = {
    "evolve-expm/d4": (lambda: oscillator_pairs(4, **BENCH_BATH), 0.05, 100, 1, True),
    "evolve-expm/d8": (lambda: oscillator_pairs(8, **BENCH_BATH), 0.05, 100, 1, True),
    "evolve-expm/d16": (lambda: oscillator_pairs(16, **BENCH_BATH), 0.05, 100, 1, True),
    "evolve-expm/d24": (lambda: oscillator_pairs(24, **BENCH_BATH), 0.05, 100, 1, False),
    "collision-reference/d8": (lambda: oscillator_pairs(8, n=0.75), 0.01, 50, 1, True),
    "step-space-50": (lambda: step_pairs(2, 5), 1.0, 1, 2, True),
    "step-space-100": (lambda: step_pairs(4, 5), 1.0, 1, 4, False),
    "step-space-200": (lambda: step_pairs(8, 5), 1.0, 1, 8, False),
    "step-space-256": (lambda: step_pairs(4, 8), 1.0, 1, 4, False),
    # Stiff and long grids: expm_multiply's matvecs grow with t ||A||_1.
    "d20-gamma1e4-t1": (lambda: oscillator_pairs(20, gamma=1e4, n=0.5), 0.5, 2, 1, True),
    "d19-t10": (lambda: oscillator_pairs(19, n=0.5), 1.0, 10, 1, False),
    "d19-t1000": (lambda: oscillator_pairs(19, n=0.5), 100.0, 10, 1, True),
    # The d = 24 bench oscillator to t = 5 (101 points is evolve-expm/d24): past s points
    # expm_multiply runs its Taylor terms at every point, so long grids go dense.
    "d24-t5-1001-points": (lambda: oscillator_pairs(24, **BENCH_BATH), 0.005, 1000, 1, True),
    "d24-t5-5001-points": (lambda: oscillator_pairs(24, **BENCH_BATH), 0.001, 5000, 1, True),
    # Ten points to t = 20 is fewer than s = 161 steps: no per-point terms, Krylov stays.
    "d24-t20-11-points": (lambda: oscillator_pairs(24, **BENCH_BATH), 2.0, 10, 1, False),
    # Beyond the dense budget only Krylov is left, however long the grid.
    "d46-t1000": (lambda: oscillator_pairs(46, n=0.5), 100.0, 10, 1, False),
    # tr(L') overflows, so the shifted ||L'||_1 is not finite: expm_multiply names it.
    "ladder-1e153": (lambda: oscillator_pairs(20, scale=1e153), 0.5, 2, 1, False),
    # ||L'||_1 is finite but ||t L'||_1 is not: the dense route names dt L'.
    "qubit-gamma1e300-t1e10": (lambda: oscillator_pairs(2, gamma=1e300), 1e10, 1, 1, True),
    # An entry beyond the double range: the sparse builder names it.
    "infinite-entry": (lambda: [(np.array([[1e300]]), np.array([[1e300]]))], 1.0, 1, 1, False),
}


@pytest.mark.parametrize("case", sorted(ROUTES))
def test_the_route_rule_picks_the_cheaper_route(case):
    pairs, step, count, columns, dense = ROUTES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dense_exp_is_cheaper(pairs(), step, count, columns) is dense


def test_theta_table_is_scipys():
    from scipy.sparse.linalg._expm_multiply import _theta

    assert dict(zip(linalg._TAYLOR_M.tolist(), linalg._THETA_M.tolist())) == _theta


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_sandwich_sums_equal_the_kron_sum(rng, kind):
    def factor(shape):
        a = rng.standard_normal(shape) if kind == "real" else random_complex(rng, shape)
        return a * (rng.uniform(size=shape) < 0.6)

    for _ in range(60):
        p, q, r, s = rng.integers(1, 6, size=4)
        pairs = [(factor((p, q)), factor((r, s))) for _ in range(rng.integers(1, 7))]
        want = sandwich(*pairs[0])
        for a, b in pairs[1:]:  # np.kron arrays added in list order
            want = want + sandwich(a, b)
        dense = sandwich_sum(pairs, "the sum")
        sparse = sandwich_sum_sparse(pairs, "the sum")
        assert sparse.format == "csc" and sparse.has_canonical_format
        assert sparse.toarray().tobytes() == dense.tobytes()
        if kind == "real":
            # Every product is rounded once either way: equal as floats.
            assert np.array_equal(dense, want)
        else:
            # numpy may round a complex product by a fused kernel in np.kron.
            assert np.abs(dense - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


@pytest.mark.parametrize("assemble", [sandwich_sum, sandwich_sum_sparse])
def test_sandwich_sums_beyond_the_double_range_overflow(assemble):
    eye, big = np.eye(2), np.diag([1e200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # A product beyond the range, and two finite terms whose sum is beyond it.
        for pairs in ([(big, big)], [(1e308 * eye, eye), (eye, 1e308 * eye)]):
            with pytest.raises(OverflowError, match="^the sum is not finite$"):
                assemble(pairs, "the sum")
