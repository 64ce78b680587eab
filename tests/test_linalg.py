import json
import sys
import warnings
from math import isqrt

import numpy as np
import pytest
from helpers import (
    choi_matrix,
    ladder,
    random_complex,
    random_density,
    random_gaussian_nm,
    random_hermitian,
    random_unitary,
    sandwich,
    union_find_labels,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussbath import linalg
from gaussbath.cli import main
from gaussbath.collision import CollisionConfig, _step_channel, _step_sandwiches
from gaussbath.errors import DimensionError, DomainError
from gaussbath.linalg import (
    adjoint,
    component_labels,
    devectorize,
    exp_plan,
    expm_action,
    hermitian_part,
    is_hermitian,
    is_psd,
    is_unitary,
    mat_exp,
    mat_sqrt_psd,
    operator_norm,
    partial_trace,
    propagate,
    require_finite_result,
    sandwich_sum,
    vectorize,
)
from gaussbath.lindblad import (
    SystemModel,
    evolve,
    gks_decompose,
    schrodinger_liouvillian,
    steady_state,
)
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
        return -1j * sandwich_sum(_step_sandwiches(config), "the step Hamiltonian").dense()
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
    a = -1j * step_sum(8, 5).dense()
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


def test_hermitian_part_takes_a_matrix_or_a_stack(rng):
    stack = random_complex(rng, (3, 4, 4))
    parts = hermitian_part(stack)
    for a, h in zip(stack, parts):
        assert hermitian_part(a).tobytes() == h.tobytes()
        assert np.abs(h - (a + adjoint(a)) / 2).max() <= 1e-15 * np.abs(a).max()
        assert np.array_equal(h, adjoint(h)) and hermitian_part(h).tobytes() == h.tobytes()
    # A real matrix comes back complex, as psd_eigh and mat_sqrt_psd take it.
    assert hermitian_part(np.array([[1.0, 2.0], [0.0, 3.0]])).tolist() == [[1, 1], [1, 3]]


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
    return gks_decompose(model).liouvillian


def test_expm_action_is_reproducible_and_leaves_the_global_stream(rng, monkeypatch):
    # expm_action estimates no norm, so it neither reads nor moves numpy's global stream.
    d, t = 6, 5.0
    liouv = oscillator_liouvillian(d, NoiseParams(gamma=1.0, n=0.5, m=0.3))
    v = vectorize(random_density(rng, d))

    def fail(*args, **kwargs):
        raise AssertionError("numpy's global stream was used")

    _, keys, pos, *_ = np.random.get_state()
    with monkeypatch.context() as patch:
        for name in ("get_state", "set_state", "seed"):
            patch.setattr(np.random, name, fail)
        answers = [expm_action(exp_plan(liouv, t, 1), v, "the test state")[1] for _ in range(2)]
        grid = expm_action(exp_plan(liouv, t / 2, 2), v, "the test state")
    _, keys_after, pos_after, *_ = np.random.get_state()
    assert np.array_equal(keys_after, keys) and pos_after == pos
    assert np.array_equal(answers[0], answers[1])
    assert np.max(np.abs(answers[0] - mat_exp(t * liouv.dense()) @ v)) <= 1e-12
    assert grid.shape == (3, d * d)
    assert np.max(np.abs(grid[-1] - answers[0])) <= 1e-12


@pytest.mark.parametrize("scale", [1e60, 1e153], ids=["infinite-step-count", "nan-step-count"])
def test_expm_action_names_a_norm_beyond_the_double_range(scale):
    # Every entry of L' is finite.  At 1e60 its norm, 2.9e121, asks for about 1.6e122
    # matvecs, beyond the 2^53 a double counts exactly; at 1e153 tr(L') overflows and the
    # shifted norm is NaN.  Both are overflows, named before any matvec.
    liouv = oscillator_liouvillian(20, NoiseParams(gamma=1.0), scale)
    assert np.all(np.isfinite(liouv.data))
    v = np.zeros(400, dtype=complex)
    v[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^expm_multiply overflow: the test state is not "
                           "finite$"):
            expm_action(exp_plan(liouv, 1.0, 1), v, "the test state")


@st.composite
def action_cases(draw):
    """(A, v, step, count, regime) for expm_action: an L' or a step -iH on 1 or d columns.

    regime "single" is exp(step A) v; "few" has fewer steps than Taylor blocks, so blocks
    hold at most one time; "many" has more, so blocks hold several.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 4))
    n, m = random_gaussian_nm(rng)
    noise = NoiseParams(gamma=draw(st.floats(0.3, 2.0)), n=n, m=m)
    if draw(st.sampled_from(["liouvillian", "step"])) == "liouvillian":
        model = SystemModel(C=random_complex(rng, (d, d)), F=random_hermitian(rng, d), noise=noise)
        op = gks_decompose(model).liouvillian
        v = vectorize(np.stack([random_density(rng, d) for _ in range(d)])).T
    else:
        model = SystemModel(C=ladder(d), F=random_hermitian(rng, d), noise=noise)
        cutoff = draw(st.integers(3, 5))
        config = CollisionConfig(model=model, dt=draw(st.floats(0.005, 0.05)), steps=1,
                                 cutoff=cutoff)
        h = sandwich_sum(_step_sandwiches(config), "H")
        op = h._replace(data=-1j * h.data)
        v = np.zeros((d * cutoff**2, d), dtype=complex)
        v[np.arange(d) * cutoff**2, np.arange(d)] = 1.0
    if draw(st.booleans()):
        v = v[:, 0]
    regime = draw(st.sampled_from(["single", "few", "many"]))
    if regime == "single":
        return op, v, draw(st.floats(0.1, 10.0)), 1, regime
    if regime == "few":
        span, count = draw(st.floats(5.0, 40.0)), draw(st.integers(1, 3))
    else:
        span, count = draw(st.floats(0.05, 2.0)), draw(st.integers(59, 299))
    return op, v, span / count, count, regime


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=action_cases())
def test_expm_action_matches_expm_multiply(case):
    from scipy.sparse.linalg import expm_multiply

    op, v, step, count, regime = case
    a, plan = op.sparse(), exp_plan(op, step, count)
    if regime != "single":
        assume((count < plan.s) == (regime == "few"))
    state = np.random.get_state()  # scipy's norm estimates draw from numpy's global stream
    try:
        if regime == "single":
            want = np.stack([v, expm_multiply(step * a, v)])
        else:
            want = expm_multiply(a, v, start=0.0, stop=count * step, num=count + 1,
                                 endpoint=True)
    finally:
        np.random.set_state(state)
    got = expm_action(plan, v, "the test state")
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def oscillator(d, scale=1.0, **noise):
    """The model of C = scale a and F = a+a, gamma 1 unless noise names it."""
    return SystemModel(C=scale * ladder(d), F=np.diag(np.arange(d)).astype(complex),
                       noise=NoiseParams(**{"gamma": 1.0, **noise}))


def oscillator_sum(d, scale=1.0, **noise):
    """L' of the oscillator, assembled."""
    return gks_decompose(oscillator(d, scale, **noise)).liouvillian


def step_config(d, cutoff, dt=0.02):
    """One collision step on a thermal oscillator."""
    return CollisionConfig(model=oscillator(d, n=0.5), dt=dt, steps=1, cutoff=cutoff)


def step_sum(d, cutoff, dt=0.02):
    """The step Hamiltonian of step_config, assembled."""
    return sandwich_sum(_step_sandwiches(step_config(d, cutoff, dt)), "the step Hamiltonian")


BENCH_BATH = {"n": 0.5, "m": 0.2}  # n + |m| = 0.7, as the evolve benchmark jobs hold it


# (the assembled operator, step, count, columns, whether dense is cheaper)
ROUTES = {
    "evolve-expm/d4": (lambda: oscillator_sum(4, **BENCH_BATH), 0.05, 100, 1, True),
    "evolve-expm/d8": (lambda: oscillator_sum(8, **BENCH_BATH), 0.05, 100, 1, True),
    # Near the cut: expm_action timed about 1.3x faster on these two, but the rule
    # counts no Python work per dense step, and MATVEC_OVERHEAD keeps them dense.
    "evolve-expm/d16": (lambda: oscillator_sum(16, **BENCH_BATH), 0.05, 100, 1, True),
    "collision-reference/d8": (lambda: oscillator_sum(8, n=0.75), 0.01, 50, 1, True),
    "evolve-expm/d24": (lambda: oscillator_sum(24, **BENCH_BATH), 0.05, 100, 1, False),
    "step-space-50": (lambda: step_sum(2, 5), 1.0, 1, 2, True),
    "step-space-100": (lambda: step_sum(4, 5), 1.0, 1, 4, False),
    "step-space-200": (lambda: step_sum(8, 5), 1.0, 1, 8, False),
    "step-space-256": (lambda: step_sum(4, 8), 1.0, 1, 4, False),
    # Stiff and long grids: expm_action's matvecs grow with t ||A||_1.
    "d20-gamma1e4-t1": (lambda: oscillator_sum(20, gamma=1e4, n=0.5), 0.5, 2, 1, True),
    "d19-t10": (lambda: oscillator_sum(19, n=0.5), 1.0, 10, 1, False),
    "d19-t1000": (lambda: oscillator_sum(19, n=0.5), 100.0, 10, 1, True),
    # The d = 24 bench oscillator to t = 5 (101 points is evolve-expm/d24): expm_action
    # forms each Taylor term once per block, so its matvecs do not grow with the points
    # while the dense map's steps do.
    "d24-t5-1001-points": (lambda: oscillator_sum(24, **BENCH_BATH), 0.005, 1000, 1, False),
    "d24-t5-5001-points": (lambda: oscillator_sum(24, **BENCH_BATH), 0.001, 5000, 1, False),
    "d24-t20-11-points": (lambda: oscillator_sum(24, **BENCH_BATH), 2.0, 10, 1, False),
    # Beyond the dense budget only Krylov is left, however long the grid.
    "d46-t1000": (lambda: oscillator_sum(46, n=0.5), 100.0, 10, 1, False),
    # tr(L') overflows, so the shifted ||L'||_1 is not finite: expm_action names it.
    "ladder-1e153": (lambda: oscillator_sum(20, scale=1e153), 0.5, 2, 1, False),
    # ||L'||_1 is finite but ||t L'||_1 is not: the dense route names dt L'.
    "qubit-gamma1e300-t1e10": (lambda: oscillator_sum(2, gamma=1e300), 1e10, 1, 1, True),
    # An entry beyond the double range: the assembly names it, so no rule runs.
    "infinite-entry": (lambda: sandwich_sum([(np.array([[1e300]]), np.array([[1e300]]))],
                                            "the sum"), 1.0, 1, 1, None),
}


@pytest.mark.parametrize("case", sorted(ROUTES))
def test_the_route_rule_picks_the_cheaper_route(case, tmp_path, capsys):
    assemble, step, count, columns, dense = ROUTES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if dense is not None:
            assert exp_plan(assemble(), step, count, columns).dense is dense
            return
        with pytest.raises(OverflowError, match="^the sum is not finite$"):
            assemble()
        # The same product in evolve's L', the sandwich (K_00 C+, C) of C = 1e300: exit 3.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"dim": 1, "gamma": 1.0, "C": [[[1e300, 0.0]]],
                                     "F": [[[0.0, 0.0]]]}))
        rho0 = tmp_path / "rho0.json"
        rho0.write_text(json.dumps({"rho": [[[1.0, 0.0]]]}))
        assert main(["evolve", "--model", str(model), "--rho0", str(rho0), "--t-final", "1",
                     "--points", "3"]) == 3
    assert capsys.readouterr() == (
        "", "gaussbath: numerical error: generator overflow: the Heisenberg generator is not finite\n")


def test_the_rule_counts_the_plan_that_expm_action_runs(rng):
    # A squeezed-bath model with random C and F whose ||L' - mu I||_1, summed as
    # |column| + |a_jj - mu| - |a_jj|, rounds one ulp above the sum down the shifted
    # column; at this span m = 22 or 23 hangs on that last bit.
    seeded = np.random.default_rng(1)
    n, m = random_gaussian_nm(seeded)
    model = SystemModel(C=random_complex(seeded, (3, 3)), F=random_hermitian(seeded, 3),
                        noise=NoiseParams(gamma=1.0, n=n, m=m))
    liouv, span = model.form.liouvillian, 0.07095743297940975
    h = step_sum(4, 5)  # F_00 = 0, so part of the diagonal of H is not stored
    for op in (liouv, h, h._replace(data=-1j * h.data)):
        a = op.dense()
        mu, eye = np.trace(a) / a.shape[0], np.eye(a.shape[0])
        plan = exp_plan(op, span, 1)
        assert plan.mu == mu
        assert plan.norm == np.abs(a - mu * eye).sum(axis=0).max()
        assert np.array_equal(plan.shifted.dense(), a - mu * eye)
        assert np.all(plan.shifted.data != 0)
    plan = exp_plan(liouv, span, 1)
    assert (plan.m, plan.s, plan.step, plan.count) == (22, 1, span, 1)
    assert exp_plan(liouv, np.nextafter(span, np.inf), 1)[4:6] == (23, 1)
    # The action runs the plan it is given: cut to one Taylor term it returns
    # e^{mu span} (I + span (L' - mu I)) v, so it plans nothing of its own.
    v = vectorize(random_density(rng, 3))
    want = np.exp(plan.mu * span) * (v + span * plan.shifted.dense() @ v)
    got = expm_action(plan._replace(m=1.0), v, "the test state")[1]
    assert np.max(np.abs(got - want)) <= 1e-15
    full = expm_action(plan, v, "the test state")[1]
    assert np.max(np.abs(full - mat_exp(span * liouv.dense()) @ v)) <= 1e-14


def weighted_sum_action(plan, v):
    """exp(count step A) v for one output time as a weighted sum: all m Taylor terms of
    every block, the last block's weighted by tau^p e^{mu tau w}, the sum that the tau = 1
    rule of expm_action replaces."""
    a, m, s = plan.shifted.dense(), int(plan.m), int(plan.s)
    t = np.linspace(0.0, plan.count * plan.step, plan.count + 1)[-1]
    width = t / s
    tau = t / width - (s - 1)
    z = v
    for _ in range(s):
        terms = [z]
        for p in range(1, m + 1):
            terms.append(a @ terms[-1] * (width / p))
        z = sum(terms) * np.exp(plan.mu * width)
    return sum(tau**p * np.exp(plan.mu * width * tau) * term for p, term in enumerate(terms))


@pytest.mark.parametrize("d, cutoff, dt", [(4, 5, 0.02), (3, 6, 0.02), (4, 8, 0.04),
                                           (8, 5, 0.01)])
def test_a_one_step_action_is_its_last_blocks_state(rng, d, cutoff, dt):
    # The Kraus columns of one collision step: the one output time is at tau = 1 of the
    # last block, so it is that block's e^{mu w} series, within 1e-15 of the largest entry
    # of the weighted sum it replaces.
    h = step_sum(d, cutoff, dt)
    plan = exp_plan(h._replace(data=-1j * h.data), 1.0, 1, columns=d)
    assert not plan.dense
    v = rng.standard_normal((d * cutoff**2, d)) + 1j * rng.standard_normal((d * cutoff**2, d))
    got = expm_action(plan, v, "the test columns")[1]
    want = weighted_sum_action(plan, v)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    # In two blocks, the time that ends the first is the state the second starts from, so
    # one block from it ends, bit for bit, where the two-block action does.
    halves = expm_action(plan._replace(step=0.5, count=2, s=2.0), v, "the test columns")
    rest = expm_action(plan._replace(step=0.5), halves[1], "the test columns")[1]
    assert np.array_equal(rest, halves[2])


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
        op = sandwich_sum(pairs, "the sum")
        dense, sparse = op.dense(), op.sparse()
        assert sparse.format == "csc" and sparse.has_canonical_format
        assert sparse.toarray().tobytes() == dense.tobytes()
        if kind == "real":
            # Every product is rounded once either way: equal as floats.
            assert np.array_equal(dense, want)
        else:
            # numpy may round a complex product by a fused kernel in np.kron.
            assert np.abs(dense - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


def test_the_numpy_matvec_is_the_csc_product(rng):
    # SandwichSum.matvec sums each row in key order, as the CSC matvec does; the loop over
    # the entries in that order is the reference, and the CSC and dense products agree.
    for d in (1, 2, 3, 5):
        op = sandwich_sum([(random_complex(rng, (d, d)), random_complex(rng, (d, d))),
                           (np.eye(d), random_complex(rng, (d, d)))], "the sum")
        v = random_complex(rng, d * d)
        want = np.zeros(d * d, dtype=complex)
        for key, value in zip(op.keys, op.data):
            want[key % (d * d)] += value * v[key // (d * d)]
        got = op.matvec(v)
        scale = np.abs(op.dense()) @ np.abs(v)
        for other in (want, op.sparse() @ v, op.dense() @ v):
            assert np.all(np.abs(got - other) <= 8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("view", ["dense", "sparse"], ids=["sandwich_sum", "sandwich_sum_sparse"])
def test_sandwich_sums_beyond_the_double_range_overflow(view):
    eye, big = np.eye(2), np.diag([1e200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # A product beyond the range, and two finite terms whose sum is beyond it.
        for pairs in ([(big, big)], [(1e308 * eye, eye), (eye, 1e308 * eye)]):
            with pytest.raises(OverflowError, match="^the sum is not finite$"):
                getattr(sandwich_sum(pairs, "the sum"), view)()


@pytest.fixture
def calls(monkeypatch):
    """The names of the calls into sandwich_sum, exp_plan, mat_exp and expm_action, in order.

    Each is rebound in every gaussbath module that holds it, as perfbench's tracer
    rebinds what it traces: a from-import copies the reference.
    """
    log = []

    def recording(name, original):
        def record(*args, **kwargs):
            log.append(name)
            return original(*args, **kwargs)
        return record

    for name in ("sandwich_sum", "exp_plan", "mat_exp", "expm_action"):
        original, holders = getattr(linalg, name), []
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "gaussbath":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, recording(name, original))
                        holders.append(module_name)
        if name in ("sandwich_sum", "exp_plan"):
            assert {"gaussbath.lindblad", "gaussbath.collision"} <= set(holders), holders
    return log


def oscillator_file(path, d, **bath):
    """The model file of oscillator(d) in a bath given by model-file keys (n, m_re, ...)."""
    model = oscillator(d)
    pairs = {key: np.stack([a.real, a.imag], axis=-1).tolist() for key, a in
             (("C", model.C), ("F", model.F))}
    path.write_text(json.dumps({"dim": d, "gamma": 1.0, **bath, **pairs}))
    return str(path)


def test_one_assembly_per_exponential(calls, monkeypatch, tmp_path, capsys):
    import scipy.sparse.linalg

    def ground(d):
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    # The ROUTES cases evolve-expm/d4 (dense), evolve-expm/d8 (dense, in blocks), d19-t10
    # (Krylov), step-space-50 (dense) and step-space-100 (Krylov): one plan of the
    # operator, then the route it names.  expm_action runs the plan and builds none, so
    # each exponential has one exp_plan.  At d = 8 the squeezed bath splits L' into two
    # parity blocks of 32, so the one dense map is built from one mat_exp per block.
    runs = {
        "evolve, dense": (lambda: evolve(oscillator(4, **BENCH_BATH), ground(4), 0.05, 100),
                          ["sandwich_sum", "exp_plan", "mat_exp"]),
        "evolve, dense in blocks": (lambda: evolve(oscillator(8, **BENCH_BATH), ground(8),
                                                   0.05, 100),
                                    ["sandwich_sum", "exp_plan", "mat_exp", "mat_exp"]),
        "evolve, Krylov": (lambda: evolve(oscillator(19, n=0.5), ground(19), 1.0, 10),
                           ["sandwich_sum", "exp_plan", "expm_action"]),
        "evolve, RK4": (lambda: evolve(oscillator(4, **BENCH_BATH), ground(4), 0.05, 100,
                                       method="rk4"), ["sandwich_sum"]),
        "step, Krylov": (lambda: _step_channel(step_config(4, 5)),
                         ["sandwich_sum", "exp_plan", "expm_action"]),
        "step, dense": (lambda: _step_channel(step_config(2, 5)),
                        ["sandwich_sum", "exp_plan", "mat_exp"]),
    }
    for name, (run, want) in runs.items():
        calls.clear()
        run()
        assert calls == want, name
    # Whole commands: steady's residual and generator's two fields read the model's one L';
    # the oracle assembles L' once for the study and H once per dt, plans each
    # exponential once, and takes one reference exponential per nested family, after
    # the family's first chain: 0.04 and 0.02 read the trajectory at 0.01, while
    # 0.1 * 3 != 0.3 in floating point, so 0.3 and 0.1 each have their own.
    thermal = oscillator_file(tmp_path / "thermal.json", 4, n=0.5)
    squeezed = oscillator_file(tmp_path / "squeezed.json", 2, n=0.5, m_re=0.2)
    pair = oscillator_file(tmp_path / "pair.json", 2, n=0.5)
    exp = ["exp_plan", "mat_exp"]
    step = ["sandwich_sum", *exp]
    commands = {
        "steady": (["steady", "--model", thermal], ["sandwich_sum"]),
        "generator": (["generator", "--model", squeezed], ["sandwich_sum"]),
        "oracle": (["oracle", "--model", pair, "--cutoff", "5", "--dt-list", "0.04,0.02,0.01",
                    "--t-final", "0.5"], step + step + step + step),
        "oracle, not nested": (["oracle", "--model", pair, "--cutoff", "5", "--dt-list",
                                "0.3,0.1", "--t-final", "0.6"], step + step + step + exp),
    }
    for name, (argv, want) in commands.items():
        calls.clear()
        assert main(argv) == 0, name
        assert calls == want, name
    capsys.readouterr()
    # The dense SVD fallback of steady_state reads the L' that its sparse LU took: at
    # d = 23 the squeezed bath's parity blocks, 265 and 264, are beyond the numpy solve.
    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    calls.clear()
    steady_state(oscillator(23, **BENCH_BATH))
    assert calls == ["sandwich_sum"]


# ---------------------------------------------------------------- blocks


@st.composite
def key_sets(draw):
    """(rows, cols, n): the entries of a random n x n sparsity pattern, sparse or dense."""
    n = draw(st.integers(1, 60))
    keys = draw(st.lists(st.integers(0, n * n - 1), max_size=draw(st.sampled_from([n, 3 * n]))))
    keys = np.unique(np.array(keys, dtype=int))
    return keys % n, keys // n, n


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=key_sets())
def test_component_labels_match_union_find(case):
    rows, cols, n = case
    assert component_labels(rows, cols, n).tolist() == union_find_labels(rows, cols, n).tolist()


def test_component_labels_join_a_chain_in_any_order():
    # A path whose vertices are visited in a shuffled order: the hooks run against the
    # index order, so each sweep joins pieces, and pointer jumping gathers them at 0.
    order = np.random.default_rng(7).permutation(500)
    labels = component_labels(order[:-1], order[1:], 500)
    assert labels.tolist() == [0] * 500


def test_block_stacks_are_the_diagonal_blocks(rng):
    # Three blocks of sides 2, 3 and 2 in a shuffled order of 7 indices.
    blocks = (np.array([0, 4]), np.array([1, 2, 6]), np.array([3, 5]))
    dense = np.zeros((7, 7), dtype=complex)
    for block in blocks:
        dense[np.ix_(block, block)] = random_complex(rng, (len(block), len(block)))
    dense[4, 4] = 0.0
    keys = np.flatnonzero(dense.T.reshape(-1))  # column-major
    op = linalg.SandwichSum(keys, dense.T.reshape(-1)[keys], (7, 7))
    groups = op.block_stacks(blocks)
    assert [idx.tolist() for idx, _ in groups] == [[[0, 4], [3, 5]], [[1, 2, 6]]]
    for idx, stack in groups:
        for block, a in zip(idx, stack):
            assert a.tobytes() == dense[np.ix_(block, block)].tobytes()
