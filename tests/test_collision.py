import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from math import isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import (
    SIGMA_MINUS,
    ZERO2,
    ladder,
    random_complex,
    random_density,
    random_hermitian,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbath import collision
from gaussbath.cli import main
from gaussbath.collision import (
    CollisionConfig,
    _step_channel,
    convergence_study,
    increment_operator,
    simulate,
    step_unitary,
    trace_distance,
)
from gaussbath.doubling import mode_annihilators
from gaussbath.errors import DimensionError, DomainError, TruncationWarning
from gaussbath.lindblad import SystemModel, evolve
from gaussbath.linalg import (
    MAX_DENSE_DIM,
    adjoint,
    exp_plan,
    is_unitary,
    partial_trace,
    sandwich_sum,
)
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
    # Only values over the budget: the check runs before anything that size is allocated.
    for d, cutoff in ((2, 33), (8, 17)):
        assert d * cutoff**2 > MAX_DENSE_DIM
        big = SystemModel(C=np.eye(d, k=1), F=np.zeros((d, d)), noise=NoiseParams(gamma=1.0))
        with pytest.raises(DomainError, match=f"cutoff {cutoff} at d = {d}"):
            CollisionConfig(model=big, dt=0.1, steps=1, cutoff=cutoff)
    # The stored trajectory, (steps + 1) d x d states, has the same budget.
    limit = MAX_DENSE_DIM**2 // 4 - 1
    assert CollisionConfig(model=model, dt=1e-6, steps=limit, cutoff=3).steps == limit
    with pytest.raises(DomainError, match=r"dt = 1e-06 \(t_final = "):
        CollisionConfig(model=model, dt=1e-6, steps=limit + 1, cutoff=3)
    with pytest.raises(DomainError, match="steps"):  # a numpy count must not wrap the product
        CollisionConfig(model=model, dt=1e-6, steps=np.int64(2**62), cutoff=3)
    # Sizes are integers, numpy's included; a float fails here, not in simulate.
    for name, bad in (("steps", 2.5), ("steps", 3.0), ("steps", True), ("cutoff", 4.5),
                      ("cutoff", True)):
        with pytest.raises(DomainError, match=f"{name} must be an integer, got {bad}"):
            CollisionConfig(model=model, dt=0.1, **{"steps": 2, "cutoff": 3, name: bad})
    config = CollisionConfig(model=model, dt=0.1, steps=np.int32(2), cutoff=np.int64(3))
    assert simulate(config, np.diag([1.0, 0.0])).shape == (3, 2, 2)


@pytest.mark.parametrize("dt, steps, message", [
    (0.1, 2.5, "steps must be an integer, got 2.5"),
    (0.1, True, "steps must be an integer, got True"),
    (0.1, 0, "steps must be at least 1, got 0"),
    (0.0, 2, "dt must be positive, got 0.0"),
    (-0.1, 2, "dt must be positive, got -0.1"),
    (np.inf, 2, "dt must be finite, got inf"),
    (np.nan, 2, "dt must be finite, got nan"),
    (1e-6, MAX_DENSE_DIM**2 // 4, "1.04858e+06 steps of dt = 1e-06 (t_final = 1.04858) at d = 2 "
                                  "breaks (steps + 1) * d^2 <= 4194304"),
], ids=["fractional-steps", "bool-steps", "zero-steps", "zero-dt", "negative-dt", "infinite-dt",
        "nan-dt", "over-budget"])
def test_evolve_and_the_chain_share_one_trajectory_check(dt, steps, message):
    model, rho0 = qubit_model(), np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(DomainError) as chain:
        CollisionConfig(model=model, dt=dt, steps=steps, cutoff=3)
    with pytest.raises(DomainError) as master:
        evolve(model, rho0, dt, steps)
    assert str(chain.value) == str(master.value)
    assert str(chain.value).startswith(message)


def test_step_channel_is_inside_the_dense_budget(tmp_path, capsys):
    # At cutoff 3 the step space 9 d is far inside the budget; the d^2 x d^2
    # step channel S is not, from d = 46 ((d^2)^2 = 4477456 > 2048^2).
    def oscillator(d):
        a = ladder(d)
        return SystemModel(C=a, F=adjoint(a) @ a, noise=NoiseParams(gamma=1.0, n=0.5))

    small, big = oscillator(45), oscillator(46)
    tracemalloc.start()
    try:
        CollisionConfig(model=small, dt=0.1, steps=4, cutoff=3)
        with pytest.raises(DomainError, match=r"the step channel at d = 46 breaks \(d\^2\)\^2"):
            CollisionConfig(model=big, dt=0.1, steps=4, cutoff=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    path = tmp_path / "oscillator.json"
    path.write_text(json.dumps({"dim": 46, "gamma": 1.0, "n": 0.5, **{
        name: np.stack([a.real, a.imag], -1).tolist() for name, a in (("C", big.C), ("F", big.F))
    }}))
    argv = ["oracle", "--model", str(path), "--t-final", "0.4", "--dt-list", "0.1,0.05",
            "--cutoff", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "the step channel at d = 46" in err, err


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
        exact = evolve(model, rho0, dt, 1)[-1]
        errs.append(trace_distance(approx, exact))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_vacuum_trajectory_tracks_exact_decay():
    model = qubit_model(gamma=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    config = CollisionConfig(model=model, dt=0.01, steps=500, cutoff=3)
    states = simulate(config, rho0)
    exact = evolve(model, rho0, 0.01, 500)
    worst = max(trace_distance(states[k], exact[k]) for k in range(501))
    assert worst < 5e-3
    traces = np.einsum("kii->k", states)
    np.testing.assert_allclose(traces, 1.0, atol=1e-10)


def dense_chain(config, rho0):
    """The full-space chain: U (rho (x) |00><00|) U+, trace out the pair, Hermitian part.

    Also returns the worst pair population at the Fock boundary before
    each partial trace, read off the diagonal of the full state.
    """
    u = step_unitary(config)
    d, cutoff = config.model.dim, config.cutoff
    pair_dim = cutoff**2
    vac = np.zeros((pair_dim, pair_dim), dtype=complex)
    vac[0, 0] = 1.0
    levels = np.arange(cutoff)
    edge = ((levels[:, None] == cutoff - 1) | (levels[None, :] == cutoff - 1)).ravel()
    mask = np.tile(edge.astype(float), d)
    rho = rho0
    states, worst = [rho0], 0.0
    for _ in range(config.steps):
        full = u @ np.kron(rho, vac) @ adjoint(u)
        worst = max(worst, float(np.real(np.diag(full)) @ mask))
        rho = partial_trace(full, (d, pair_dim), "second")
        rho = (rho + adjoint(rho)) / 2.0
        states.append(rho)
    return np.array(states), worst


# (d, cutoff, n, squeezed, alpha)
CHAIN_CASES = [
    (2, 3, 0.0, False, 0.0),
    (2, 5, 0.8, True, 0.3 - 0.2j),
    (3, 4, 0.5, False, 0.4j),
    (3, 6, 1.0, True, 0.0),
    (4, 3, 1.0, True, -0.25),
    (4, 5, 0.6, False, 0.1 + 0.1j),
]


def chain_config(rng, d, cutoff, n, squeezed, alpha):
    m = 0.9 * np.sqrt(n * (n + 1.0)) * np.exp(2j * np.pi * rng.uniform()) if squeezed else 0.0
    c = random_complex(rng, (d, d)) / d
    model = SystemModel(C=c, F=random_hermitian(rng, d),
                        noise=NoiseParams(gamma=1.0, n=n, m=m, alpha=alpha))
    return CollisionConfig(model=model, dt=0.05, steps=12, cutoff=cutoff)


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_simulate_matches_dense_chain(rng, case):
    config = chain_config(rng, *case)
    rho0 = random_density(rng, case[0])
    want, worst = dense_chain(config, rho0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        got = simulate(config, rho0)
    assert np.max(np.abs(got - want)) <= 1e-13
    # The warning quotes the worst boundary population over steps 0 ... steps-1.
    assert [str(w.message).split()[4] for w in caught] == (
        [f"{worst:.2e};"] if worst > 1e-3 else [])


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_step_channel_boundary_matches_diagonal_mask(rng, case):
    config = chain_config(rng, *case)
    rho0 = random_density(rng, case[0])
    states, want = dense_chain(config, rho0)
    _, boundary = _step_channel(config)
    got = max(float(np.real(np.trace(boundary @ rho))) for rho in states[:-1])
    assert abs(got - want) <= 1e-14


# ------------------------------------------------------------ Krylov route

STEP_KINDS = ("thermal", "squeezed", "displaced", "random F", "random C")


@st.composite
def step_configs(draw, kind):
    """A one-step config whose step space d cutoff^2 lies between 18 and 320.

    That spans both routes of the rule; kind is one of STEP_KINDS.
    """
    d = draw(st.integers(2, 8))
    cutoff = draw(st.integers(3, min(8, isqrt(320 // d))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, f = ladder(d), np.diag(np.arange(d)).astype(complex)
    n, m, alpha = draw(st.floats(0.0, 1.5)), 0.0, 0.0
    if kind in ("squeezed", "random F", "random C"):
        fill = draw(st.floats(0.0, 1.0))
        m = fill * np.sqrt(n * (n + 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    if kind == "displaced":
        alpha = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    if kind == "random F":
        f = random_hermitian(rng, d)
    if kind == "random C":
        c = random_complex(rng, (d, d)) / np.sqrt(d)
    noise = NoiseParams(gamma=draw(st.floats(0.3, 2.0)), n=n, m=m, alpha=alpha)
    return CollisionConfig(model=SystemModel(C=c, F=f, noise=noise),
                           dt=draw(st.floats(0.005, 0.05)), steps=1, cutoff=cutoff)


def step_channel_on_route(route, config):
    """_step_channel with the plan's route fixed so that its Kraus operators take route."""
    with mock.patch.object(collision, "exp_plan",
                           lambda *a, **k: exp_plan(*a, **k)._replace(dense=route == "dense")):
        return _step_channel(config)


@pytest.mark.parametrize("kind", STEP_KINDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_krylov_step_channel_matches_dense_step_unitary(kind, data):
    config = data.draw(step_configs(kind))
    dense_step, dense_boundary = step_channel_on_route("dense", config)
    krylov_step, krylov_boundary = step_channel_on_route("krylov", config)
    assert np.max(np.abs(krylov_step - dense_step)) <= 1e-12
    assert np.max(np.abs(krylov_boundary - dense_boundary)) <= 1e-12


def test_the_rule_chooses_the_step_route(monkeypatch):
    def fail(route):
        def call(*args, **kwargs):
            raise AssertionError(f"{route} route taken")
        return call

    def config(d):
        model = SystemModel(C=ladder(d), F=np.zeros((d, d)), noise=NoiseParams(gamma=1.0, n=0.5))
        return CollisionConfig(model=model, dt=0.02, steps=1, cutoff=5)

    at, above = config(2), config(4)  # step spaces d cutoff^2 = 50 (dense) and 100 (Krylov)
    for c, dense in ((at, True), (above, False)):
        pairs = collision._step_sandwiches(c)
        assert exp_plan(sandwich_sum(pairs, "H"), 1.0, 1, c.model.dim).dense is dense
    with monkeypatch.context() as patch:
        patch.setattr(collision, "expm_action", fail("krylov"))
        _step_channel(at)
        with pytest.raises(AssertionError, match="krylov route"):
            _step_channel(above)
    monkeypatch.setattr(collision, "step_unitary", fail("dense"))
    _, keys, pos, *_ = np.random.get_state()
    step, _ = _step_channel(above)
    # expm_action draws no random number: numpy's global stream is where it was.
    _, keys_after, pos_after, *_ = np.random.get_state()
    assert np.array_equal(keys_after, keys) and pos_after == pos
    # Trace preservation: vec(1)+ S = vec(1)+.
    eye = np.eye(above.model.dim).flatten(order="F")
    assert np.max(np.abs(eye @ step - eye)) <= 1e-13
    with pytest.raises(AssertionError, match="dense route"):
        _step_channel(at)


@pytest.mark.parametrize("route", ["dense", "krylov"])
@pytest.mark.parametrize("scale, gamma, match", [
    (1e100, 1e20, "not finite"),
    (1e200, 1e250, "the step Hamiltonian is not finite"),
], ids=["exponential-overflows", "hamiltonian-overflows"])
def test_a_step_beyond_the_double_range_overflows(route, scale, gamma, match):
    model = SystemModel(C=scale * SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=gamma))
    config = CollisionConfig(model=model, dt=0.1, steps=1, cutoff=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=match):
            step_channel_on_route(route, config)


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


def test_trace_distance_frozen_and_checks(rng):
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-14)
    assert trace_distance(a, a) == 0.0
    with pytest.raises(DimensionError):
        trace_distance(a, np.eye(3))
    # Stacks: one value per pair, equal to the pairwise calls.
    lhs = np.array([random_density(rng, 4) for _ in range(6)])
    rhs = np.array([random_density(rng, 4) for _ in range(6)])
    assert trace_distance(lhs, rhs).tolist() == [trace_distance(x, y) for x, y in zip(lhs, rhs)]
    with pytest.raises(DimensionError):
        trace_distance(lhs, rhs[:5])
    with pytest.raises(DimensionError):
        trace_distance(lhs[:, :, :3], rhs[:, :, :3])


def test_convergence_study_vacuum_first_order():
    model = qubit_model(gamma=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    result = convergence_study(model, rho0, t_final=0.5, dts=[0.05, 0.025, 0.0125], cutoff=3)
    assert result.dts == [0.05, 0.025, 0.0125]
    assert result.monotone
    assert 0.8 < result.fitted_order < 1.3
    for coarse, fine in zip(result.errors, result.errors[1:]):
        assert 1.5 < coarse / fine < 2.5


def test_convergence_study_thermal(rng):
    model = qubit_model(gamma=1.0, n=1.0)
    rho0 = random_density(rng, 2)
    result = convergence_study(model, rho0, t_final=0.4, dts=[0.04, 0.02], cutoff=5)
    assert result.monotone
    assert 0.8 < result.fitted_order < 1.3


def test_convergence_study_flags_errors_that_really_grow(monkeypatch):
    # Stand-in chain: the exact states off by 1e-4/dt in trace distance.
    model = qubit_model(gamma=1.0)
    rho0 = np.diag([0.5, 0.5]).astype(complex)

    def drifting(config, rho):
        exact = evolve(model, rho, config.dt, config.steps, method="expm")
        return exact + 1e-4 / config.dt * np.diag([1.0, -1.0])

    monkeypatch.setattr(collision, "simulate", drifting)
    result = convergence_study(model, rho0, t_final=0.5, dts=[0.1, 0.05], cutoff=3)
    np.testing.assert_allclose(result.errors, [1e-3, 2e-3], rtol=1e-9)
    assert not result.monotone


def test_convergence_study_input_checks():
    model = qubit_model()
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(DomainError):
        convergence_study(model, rho0, t_final=-1.0, dts=[0.1, 0.05], cutoff=3)
    with pytest.raises(DomainError):
        convergence_study(model, rho0, t_final=1.0, dts=[0.1], cutoff=3)


@pytest.mark.parametrize("t_final, dts, match", [
    (1e300, [1e-300, 1e-301], r"t_final = 1e\+300 over dt = 1e-300 is not a finite step count"),
    (np.float64(1e300), [1e-300, 1e-301],
     r"t_final = 1e\+300 over dt = 1e-300 is not a finite step count"),
    (0.5, [1e-300, 0.1], r"5e\+299 steps of dt = 1e-300 \(t_final = 0.5\)"),
    (0.5, [0.0, 0.1], "dt must be positive"),
    (0.4, [0.1, 0.05, 0.1], r"dt = 0\.1 is repeated"),
    (0.4, [1.0, 0.5], r"t_final = 0\.4 over dt = 1\.0 rounds to 0 steps"),
], ids=["ratio-overflows", "ratio-overflows-numpy-float", "over-budget", "zero-dt",
        "repeated-dt", "zero-steps"])
def test_convergence_study_checks_every_step_count_before_running(monkeypatch, t_final, dts,
                                                                   match):
    def fail(config, rho):
        raise AssertionError("a chain ran before every step count was checked")

    monkeypatch.setattr(collision, "simulate", fail)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            convergence_study(qubit_model(), rho0, t_final=t_final, dts=dts, cutoff=3)


def squeezed_oscillator(d):
    a = ladder(d)
    return SystemModel(C=a, F=adjoint(a) @ a, noise=NoiseParams(gamma=1.0, n=0.4, m=0.2j))


def per_step_reference_errors(model, rho0, t_final, dts, cutoff):
    """Each row's error against an evolve at its own step, which a shared reference must
    match within rounding."""
    errors = []
    for dt in sorted(dts, reverse=True):
        config = CollisionConfig(model=model, dt=dt, steps=round(t_final / dt), cutoff=cutoff)
        exact = evolve(model, rho0, dt, config.steps, method="expm")
        errors.append(float(trace_distance(simulate(config, rho0), exact).max()))
    return errors


@pytest.mark.parametrize("t_final, dts, references", [
    (0.5, [0.04, 0.02, 0.01], [(0.01, 50)]),
    (0.3, [0.03, 0.01], [(0.01, 30)]),
    (0.6, [0.3, 0.1], [(0.3, 2), (0.1, 6)]),
    # 0.3 = 2 * 0.15 in 2 steps needs state 4 of the 3-step grid at 0.15: it runs to 4.
    (0.5, [0.3, 0.15], [(0.15, 4)]),
], ids=["ratio-2", "ratio-3", "not-nested", "coarse-outruns-fine"])
@pytest.mark.parametrize("d, cutoff", [(2, 5), (4, 5)], ids=["dense-step", "krylov-step"])
def test_a_nested_family_reads_one_reference(rng, monkeypatch, t_final, dts, references, d,
                                             cutoff):
    model, rho0 = squeezed_oscillator(d), random_density(rng, d)
    want = per_step_reference_errors(model, rho0, t_final, dts, cutoff)
    runs = []

    def recording(*args, **kwargs):
        runs.append(args[2:4])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(collision, "evolve", recording)
    with mock.patch.object(collision, "represent_annihilator",
                           wraps=collision.represent_annihilator) as built:
        result = convergence_study(model, rho0, t_final, dts, cutoff)
    assert runs == references
    assert built.call_count == 1  # one unit increment per study
    if len(references) == len(dts):  # every row reads its own evolve, as it did before
        assert result.errors == want
    else:
        assert np.abs(np.subtract(result.errors, want)).max() <= 1e-13


def test_a_row_past_the_trajectory_budget_keeps_its_own_reference(monkeypatch):
    # d = 8 admits 65,535 steps.  To t_final = 0.6, dt = 1 takes 1 step, which is 2^16
    # steps of 2^-16: past the budget, while the 39,322 steps of 2^-16 are within it.
    model = squeezed_oscillator(8)
    rho0 = np.eye(8, dtype=complex) / 8
    runs = []

    def recording(*args, **kwargs):
        runs.append(args[2:4])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(collision, "evolve", recording)
    monkeypatch.setattr(collision, "simulate",
                        lambda config, rho: np.broadcast_to(rho, (config.steps + 1, 8, 8)))
    result = convergence_study(model, rho0, 0.6, [1.0, 2.0**-16], 3)
    assert runs == [(1.0, 1), (2.0**-16, 39322)]
    assert result.errors[0] == trace_distance(rho0, evolve(model, rho0, 1.0, 1)[1])


def test_configs_share_a_unit_increment_of_their_cutoff():
    model = qubit_model(n=0.5)
    config = CollisionConfig(model=model, dt=0.1, steps=2, cutoff=3)
    assert not config.unit.flags.writeable
    shared = CollisionConfig(model=model, dt=0.05, steps=4, cutoff=3, unit=config.unit)
    assert shared.unit is config.unit
    own = CollisionConfig(model=model, dt=0.05, steps=4, cutoff=3)
    assert increment_operator(shared).tobytes() == increment_operator(own).tobytes()
    with pytest.raises(DimensionError, match=r"unit has shape \(9, 9\), the ancilla pair "
                                             r"at cutoff 4 is 16-dimensional"):
        CollisionConfig(model=model, dt=0.1, steps=2, cutoff=4, unit=config.unit)


def cross_call_study(k):
    """Study k of two on different models and cutoffs, from inputs built the same way in any
    process."""
    if k == 0:
        model, rho0, cutoff = squeezed_oscillator(2), np.diag([0.3, 0.7]).astype(complex), 3
        return convergence_study(model, rho0, 0.4, [0.04, 0.02, 0.01], cutoff)
    psi = np.exp(1j * np.arange(4.0)) / 2.0
    return convergence_study(squeezed_oscillator(4), np.outer(psi, psi.conj()), 0.3,
                             [0.05, 0.025], 5)


def test_studies_in_one_process_each_equal_a_fresh_run():
    # Nothing a study builds outlives its call: after the other study, each result is
    # the one a fresh interpreter gives, bit for bit.
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])}
    fresh = [subprocess.run([sys.executable, "-c", "import test_collision; "
                             f"print(repr(test_collision.cross_call_study({k})))"],
                            capture_output=True, text=True, env=env, timeout=120,
                            check=True).stdout.strip() for k in (0, 1)]
    for k in (0, 1, 0, 1):
        assert repr(cross_call_study(k)) == fresh[k], k


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_step_hamiltonian_is_the_kron_sum(rng, kind):
    for d, cutoff in ((2, 3), (3, 4), (4, 5)):
        if kind == "real":
            c, f = rng.standard_normal((d, d)), rng.standard_normal((d, d))
            noise = NoiseParams(gamma=1.3, n=0.6, m=0.4)
            f = f + f.T
        else:
            c, f = random_complex(rng, (d, d)), random_hermitian(rng, d)
            noise = NoiseParams(gamma=1.3, n=0.6, m=0.4 * np.exp(0.9j), alpha=0.3 - 0.2j)
        config = CollisionConfig(model=SystemModel(C=c, F=f, noise=noise), dt=0.03, steps=1,
                                 cutoff=cutoff)
        model, b, alpha = config.model, increment_operator(config), noise.alpha
        drift = model.F + np.conj(alpha) * model.C + alpha * adjoint(model.C)
        want = (config.dt * np.kron(drift, np.eye(cutoff**2)) + np.kron(model.C, adjoint(b))
                + np.kron(adjoint(model.C), b))
        pairs = collision._step_sandwiches(config)
        h = sandwich_sum(pairs, "H")
        dense = h.dense()
        assert h.sparse().toarray().tobytes() == dense.tobytes()
        if kind == "real":
            assert np.array_equal(dense, want)
        else:
            assert np.abs(dense - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


def test_krylov_step_channel_builds_no_dense_step_hamiltonian():
    d, cutoff = 16, 6
    a = ladder(d)
    model = SystemModel(C=a, F=adjoint(a) @ a, noise=NoiseParams(gamma=1.0, n=0.1))
    config = CollisionConfig(model=model, dt=0.04, steps=1, cutoff=cutoff)
    assert not exp_plan(sandwich_sum(collision._step_sandwiches(config), "H"), 1.0, 1, d).dense
    _step_channel(config)  # imports and first-call set-up stay out of the measurement
    tracemalloc.start()
    try:
        _step_channel(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Below one dense complex (d cutoff^2)^2 array, 5.1 MiB: no dense H.
    assert peak < (d * cutoff**2) ** 2 * 16, peak
