import numpy as np
import pytest
from helpers import SIGMA_MINUS, ZERO2, random_complex, random_hermitian, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbath.collision import CollisionConfig, convergence_study
from gaussbath.doubling import (
    fock_annihilator,
    mode_annihilators,
    represent_annihilator,
    scalar_split,
)
from gaussbath.errors import DimensionError, DomainError
from gaussbath.linalg import adjoint
from gaussbath.lindblad import SystemModel, evolve
from gaussbath.noise import (
    BLOCK_KEYS,
    NORMAL_ORDERED,
    TIME_ORDERED,
    ItoCoefficients,
    NoiseParams,
    is_gaussian_state,
    ito_product,
    unitarity_defect,
)

# Deterministic and database-free, so tier-1 repeats itself and writes nothing.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def contraction_oracle(x, y, gamma):
    """Independent index contraction for the vacuum table.

    Only dA^{i1} dA^{1l} = gamma dA^{il} survives, so the correction at
    (i, l) is gamma * X[i,1] @ Y[1,l].
    """
    xc = {(0, 0): x.c00, (0, 1): x.c01, (1, 0): x.c10, (1, 1): x.c11}
    yc = {(0, 0): y.c00, (0, 1): y.c01, (1, 0): y.c10, (1, 1): y.c11}
    return {f"c{i}{l}": gamma * xc[(i, 1)] @ yc[(1, l)] for i in (0, 1) for l in (0, 1)}


def quadruple(d=2, **blocks):
    """Normal-ordered quadruple with the named blocks set and the rest zero."""
    zero = np.zeros((d, d), dtype=complex)
    return ItoCoefficients(NORMAL_ORDERED, *(blocks.get(key, zero) for key in BLOCK_KEYS))


def random_quadruple(rng, d=2, gauge=True):
    blocks = {key: random_complex(rng, (d, d)) for key in BLOCK_KEYS}
    if not gauge:
        del blocks["c11"]
    return quadruple(d, **blocks)


def assert_blocks_close(got, want, atol):
    for key in BLOCK_KEYS:
        np.testing.assert_allclose(getattr(got, key), getattr(want, key), atol=atol)


def test_noise_params_kappa_and_validation():
    p = NoiseParams(gamma=2.0, sigma=-0.5)
    assert p.kappa == 1.0 - 0.5j
    with pytest.raises(DomainError):
        NoiseParams(gamma=0.0)
    with pytest.raises(DomainError):
        NoiseParams(gamma=1.0, n=-0.1)


@pytest.mark.parametrize("field, value", [
    ("gamma", np.inf), ("sigma", np.inf), ("n", np.nan), ("m", complex(np.nan, 0.0)),
    ("alpha", complex(0.0, -np.inf)),
])
def test_noise_params_rejects_nonfinite(field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        NoiseParams(**{"gamma": 1.0, field: value})


def _qubit():
    return SystemModel(C=SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=1.0))


_RHO0 = np.diag([0.5, 0.5]).astype(complex)

# (entry point, argument): its rule (a count's minimum for a count) and a call that puts
# the value in that argument, every other argument valid.
_ENTRY_POINTS = {
    ("NoiseParams", "gamma"): ("positive", lambda v: NoiseParams(gamma=v)),
    ("NoiseParams", "sigma"): ("real", lambda v: NoiseParams(gamma=1.0, sigma=v)),
    ("NoiseParams", "n"): ("real", lambda v: NoiseParams(gamma=1.0, n=v)),
    ("NoiseParams", "m"): ("finite", lambda v: NoiseParams(gamma=1.0, m=v)),
    ("NoiseParams", "alpha"): ("finite", lambda v: NoiseParams(gamma=1.0, alpha=v)),
    ("evolve", "dt"): ("positive", lambda v: evolve(_qubit(), _RHO0, v, 2)),
    ("evolve", "steps"): (1, lambda v: evolve(_qubit(), _RHO0, 0.1, v)),
    ("CollisionConfig", "dt"): (
        "positive", lambda v: CollisionConfig(model=_qubit(), dt=v, steps=2, cutoff=3)),
    ("CollisionConfig", "steps"): (
        1, lambda v: CollisionConfig(model=_qubit(), dt=0.1, steps=v, cutoff=3)),
    ("CollisionConfig", "cutoff"): (
        2, lambda v: CollisionConfig(model=_qubit(), dt=0.1, steps=2, cutoff=v)),
    ("convergence_study", "t_final"): (
        "positive", lambda v: convergence_study(_qubit(), _RHO0, v, [0.2, 0.1], 3)),
    ("convergence_study", "dt"): (
        "positive", lambda v: convergence_study(_qubit(), _RHO0, 0.4, [0.2, v], 3)),
    ("convergence_study", "cutoff"): (
        2, lambda v: convergence_study(_qubit(), _RHO0, 0.4, [0.2, 0.1], v)),
    ("scalar_split", "n"): ("real", lambda v: scalar_split(v, 0.0)),
    ("scalar_split", "m"): ("finite", lambda v: scalar_split(1.0, v)),
    ("fock_annihilator", "cutoff"): (2, fock_annihilator),
    ("mode_annihilators", "modes"): (1, lambda v: mode_annihilators(v, 3)),
    ("mode_annihilators", "cutoff"): (2, lambda v: mode_annihilators(1, v)),
    ("represent_annihilator", "cutoff"): (
        2, lambda v: represent_annihilator(np.ones(1), scalar_split(0.0, 0.0), v)),
}

_NOT_NUMBERS = [True, np.True_, "1", None]
_NOT_FINITE = [np.nan, np.inf, -np.inf]
# A complex type where a real is expected, its imaginary part zero or not.
_COMPLEX = [1j, 1 + 0j, np.complex128(2.0)]
# Counts that wrapped (d cutoff^2)^2 in fixed-width numpy arithmetic (to 0 and below 0):
# only the entry points that check the dense budget before allocating take them.
_WRAPPING_CUTOFFS = [np.int64(2**32), np.int32(70000)]


def _verdicts():
    """(entry point, argument, bad value, the one message of its rule for that argument)."""
    for (entry, name), (rule, _) in _ENTRY_POINTS.items():
        if rule in ("finite", "real", "positive"):
            cases = [(v, f"must be a number, got {v!r}") for v in _NOT_NUMBERS]
            cases += [(v, f"must be finite, got {v}") for v in _NOT_FINITE]
            if rule in ("real", "positive"):
                cases += [(v, f"must be real, got {v}") for v in _COMPLEX]
            if rule == "positive":
                cases += [(v, f"must be positive, got {v}") for v in (0, -1)]
        else:
            cases = [(v, f"must be an integer, got {v!r}") for v in _NOT_NUMBERS + _NOT_FINITE]
            cases += [(2.5, "must be an integer, got 2.5")]
            cases += [(v, f"must be at least {rule}, got {v}") for v in (0, -1)]
        for value, message in cases:
            yield pytest.param(entry, name, value, f"{name} {message}",
                               id=f"{entry}-{name}-{value!r}")
    for entry in ("CollisionConfig", "convergence_study"):
        for value in _WRAPPING_CUTOFFS:
            yield pytest.param(entry, "cutoff", value,
                               f"cutoff {value} at d = 2 breaks (d * cutoff^2)^2 <= 4194304, "
                               "the dense budget 2048",
                               id=f"{entry}-cutoff-{value!r}")


@pytest.mark.parametrize("entry, name, value, message", _verdicts())
def test_one_verdict_per_argument_at_every_entry_point(entry, name, value, message):
    # Each scalar rule has one implementation in noise, so an argument gets one verdict,
    # a DomainError naming it, wherever it enters; no TypeError gets through.
    call = _ENTRY_POINTS[entry, name][1]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == message


def test_gaussian_validity_predicate():
    assert is_gaussian_state(1.0, np.sqrt(2.0))
    assert not is_gaussian_state(1.0, 1.5)
    assert is_gaussian_state(0.0, 0.0)


def test_differential_rejects_foreign_labels():
    z = np.zeros((2, 2))
    with pytest.raises(DomainError):
        ItoCoefficients("fock", z, z, z, z)
    # The Ito table multiplies normal-ordered differentials only.
    e = ItoCoefficients(TIME_ORDERED, z, z, z, z)
    with pytest.raises(DomainError):
        ito_product(e, quadruple(), NoiseParams(gamma=1.0))
    with pytest.raises(DomainError):
        ito_product(quadruple(), e, NoiseParams(gamma=1.0))


def test_differential_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        ItoCoefficients(NORMAL_ORDERED, np.eye(2), np.eye(3), np.eye(2), np.eye(2))
    with pytest.raises(DimensionError):
        ito_product(quadruple(2), quadruple(3), NoiseParams(gamma=1.0))


def test_vacuum_product_annihilation_times_creation():
    # dA . dA+ = gamma dt with unit coefficients
    params = NoiseParams(gamma=1.0)
    corr = ito_product(quadruple(c01=np.eye(2)), quadruple(c10=np.eye(2)), params)
    np.testing.assert_allclose(corr.c00, np.eye(2), atol=1e-15)
    for key in ("c01", "c10", "c11"):
        np.testing.assert_allclose(getattr(corr, key), 0.0, atol=1e-15)


def test_vacuum_product_creation_times_annihilation_vanishes():
    params = NoiseParams(gamma=1.0)
    corr = ito_product(quadruple(c10=np.eye(2)), quadruple(c01=np.eye(2)), params)
    for key in BLOCK_KEYS:
        np.testing.assert_allclose(getattr(corr, key), 0.0, atol=1e-15)


def test_vacuum_product_matches_contraction_oracle(rng):
    params = NoiseParams(gamma=1.7, sigma=0.3)
    for _ in range(20):
        x = random_quadruple(rng)
        y = random_quadruple(rng)
        corr = ito_product(x, y, params)
        for key, want in contraction_oracle(x, y, 1.7).items():
            np.testing.assert_allclose(getattr(corr, key), want, atol=1e-12)


def test_vacuum_product_associative_at_correction_level(rng):
    params = NoiseParams(gamma=0.9)
    x, y, z = (random_quadruple(rng) for _ in range(3))
    left = ito_product(ito_product(x, y, params), z, params)
    right = ito_product(x, ito_product(y, z, params), params)
    assert_blocks_close(left, right, atol=1e-12)


def test_gaussian_product_hand_weighted_example(rng):
    # X carries only a dA coefficient, Y only a dA+ coefficient, so the
    # correction is the single moment gamma (n+1) CX CY dt.
    gamma, n = 1.3, 0.5
    params = NoiseParams(gamma=gamma, n=n, m=0.3j)
    cx = random_complex(rng, (2, 2))
    cy = random_complex(rng, (2, 2))
    corr = ito_product(quadruple(c01=cx), quadruple(c10=cy), params)
    np.testing.assert_allclose(corr.c00, gamma * (n + 1.0) * cx @ cy, atol=1e-12)
    for key in ("c01", "c10", "c11"):
        np.testing.assert_allclose(getattr(corr, key), 0.0, atol=1e-15)


def test_gaussian_product_all_four_moments(rng):
    gamma, n, m = 0.8, 1.2, 0.9 * np.exp(0.4j)
    params = NoiseParams(gamma=gamma, n=n, m=m)
    x = random_quadruple(rng, gauge=False)
    y = random_quadruple(rng, gauge=False)
    corr = ito_product(x, y, params)
    # Term-by-term application of the second-moment table; dt factors
    # contribute nothing at first order.
    xa, xc, ya, yc = x.c01, x.c10, y.c01, y.c10
    want = gamma * ((n + 1.0) * xa @ yc + n * xc @ ya + m * xa @ ya + np.conj(m) * xc @ yc)
    np.testing.assert_allclose(corr.c00, want, atol=1e-12)


def test_gaussian_product_vacuum_limit_matches_vacuum_table(rng):
    # At n = m = 0 the dt block is exactly the vacuum contraction gamma x01 y10.
    params = NoiseParams(gamma=1.1, n=0.0, m=0.0)
    x = random_quadruple(rng)
    y = random_quadruple(rng)
    corr = ito_product(x, y, params)
    np.testing.assert_array_equal(corr.c00, 1.1 * (x.c01 @ y.c10))


def test_gauge_slot_outside_the_vacuum_is_rejected(rng):
    # m alone is unphysical at n = 0, but any (n, m) != (0, 0) must reject the gauge slot.
    for params in (NoiseParams(gamma=1.0, n=0.3), NoiseParams(gamma=1.0, m=0.1)):
        with pytest.raises(DomainError, match="gauge"):
            ito_product(random_quadruple(rng), random_quadruple(rng, gauge=False), params)
        with pytest.raises(DomainError, match="gauge"):
            ito_product(random_quadruple(rng, gauge=False), random_quadruple(rng), params)
    assert np.any(ito_product(random_quadruple(rng), random_quadruple(rng),
                              NoiseParams(gamma=1.0)).c11)


def test_differential_adjoint_transposes_labels(rng):
    x = random_quadruple(rng)
    xd = x.adjoint()
    np.testing.assert_array_equal(xd.c00, adjoint(x.c00))
    np.testing.assert_array_equal(xd.c01, adjoint(x.c10))
    np.testing.assert_array_equal(xd.c10, adjoint(x.c01))
    np.testing.assert_array_equal(xd.c11, adjoint(x.c11))
    assert xd.kind == x.kind
    assert_blocks_close(xd.adjoint(), x, atol=1e-15)


def test_differential_adjoint_swaps_gaussian_labels(rng):
    # A pure dA differential becomes a pure dA+ differential.
    c = random_complex(rng, (2, 2))
    xd = quadruple(c01=c).adjoint()
    np.testing.assert_array_equal(xd.c10, adjoint(c))
    for key in ("c00", "c01", "c11"):
        np.testing.assert_allclose(getattr(xd, key), 0.0, atol=1e-15)


def hp_table(w, coupling, h, gamma):
    """Unitary coefficient quadruple built from a scattering triple."""
    eye = np.eye(w.shape[0])
    return ItoCoefficients(
        NORMAL_ORDERED,
        -0.5 * gamma * adjoint(coupling) @ coupling - 1j * h,
        -adjoint(coupling) @ w,
        coupling,
        (w - eye) / gamma,
    )


def test_unitarity_defect_vanishes_on_scattering_table(rng):
    gamma = 1.4
    for d in (2, 3):
        l = hp_table(random_unitary(rng, d), random_complex(rng, (d, d)),
                     random_hermitian(rng, d), gamma)
        assert unitarity_defect(l, gamma) < 1e-12


def test_unitarity_defect_linear_response():
    # Shifting L00 by eps*1 moves only the (0,0) block, by exactly 2*eps.
    gamma, eps = 1.0, 1e-3
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    l = hp_table(np.eye(2), sm, np.zeros((2, 2)), gamma)
    perturbed = ItoCoefficients(
        NORMAL_ORDERED, l.c00 + eps * np.eye(2), l.c01, l.c10, l.c11
    )
    assert abs(unitarity_defect(perturbed, gamma) - 2.0 * eps) < 1e-12


def test_unitarity_defect_rejects_bad_gamma(rng):
    l = hp_table(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
    with pytest.raises(DomainError):
        unitarity_defect(l, 0.0)


# ---------------------------------------------------------------- properties

@st.composite
def baths(draw):
    """gamma > 0 and a physical Gaussian state (n, m), the vacuum included."""
    gamma = draw(st.floats(0.1, 3.0))
    if draw(st.booleans()):
        return NoiseParams(gamma=gamma)
    n = draw(st.floats(0.0, 2.0))
    radius = draw(st.floats(0.0, 1.0)) * np.sqrt(n * (n + 1.0))
    return NoiseParams(gamma=gamma, n=n, m=radius * np.exp(1j * draw(st.floats(0.0, 6.3))))


dims = st.sampled_from([1, 2, 3])
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(d=dims, params=baths(), seed=seeds)
def test_ito_product_adjoint_reverses_factors(d, params, seed):
    rng = np.random.default_rng(seed)
    gauge = params.n == 0 and params.m == 0
    x = random_quadruple(rng, d, gauge)
    y = random_quadruple(rng, d, gauge)
    left = ito_product(x, y, params).adjoint()
    right = ito_product(y.adjoint(), x.adjoint(), params)
    assert_blocks_close(left, right, atol=1e-12 * (1.0 + params.n))


@PROPERTY
@given(d=dims, gamma=st.floats(0.1, 3.0), seed=seeds)
def test_ito_product_is_associative_in_the_vacuum(d, gamma, seed):
    rng = np.random.default_rng(seed)
    params = NoiseParams(gamma=gamma)
    x, y, z = (random_quadruple(rng, d) for _ in range(3))
    left = ito_product(ito_product(x, y, params), z, params)
    right = ito_product(x, ito_product(y, z, params), params)
    assert_blocks_close(left, right, atol=1e-12 * gamma**2)


@PROPERTY
@given(d=dims, seed=seeds)
def test_adjoint_is_an_involution(d, seed):
    x = random_quadruple(np.random.default_rng(seed), d)
    for key in BLOCK_KEYS:
        np.testing.assert_array_equal(getattr(x.adjoint().adjoint(), key), getattr(x, key))


@PROPERTY
@given(d=dims, gamma=st.floats(0.1, 3.0), seed=seeds)
def test_unitarity_defect_vanishes_on_random_scattering_tables(d, gamma, seed):
    rng = np.random.default_rng(seed)
    coupling, h = random_complex(rng, (d, d)), random_hermitian(rng, d)
    l = hp_table(random_unitary(rng, d), coupling, h, gamma)
    scale = 1.0 + gamma * np.linalg.norm(coupling, 2) ** 2 + np.linalg.norm(h, 2) + 1.0 / gamma
    assert unitarity_defect(l, gamma) <= 1e-12 * scale


@PROPERTY
@given(d=dims, seed=seeds, skewed=st.sampled_from([None, "c00", "c01", "c11"]),
       exponents=st.tuples(*[st.floats(-12.0, 12.0)] * 3))
def test_hermitian_generator_does_not_depend_on_block_units(d, seed, skewed, exponents):
    rng = np.random.default_rng(seed)
    q, c10 = random_unitary(rng, d), random_complex(rng, (d, d))
    blocks = {"c00": q @ np.diag(np.arange(1.0, d + 1.0)) @ adjoint(q), "c01": adjoint(c10),
              "c10": c10, "c11": random_hermitian(rng, d)}
    if skewed:
        blocks[skewed] = blocks[skewed] + 1e-6j * np.abs(blocks[skewed]).max() * np.eye(d)
    x = quadruple(d, **blocks)
    f00, f11, pair = 10.0 ** np.array(exponents)
    scaled = quadruple(d, c00=f00 * x.c00, c01=pair * x.c01, c10=pair * x.c10, c11=f11 * x.c11)
    assert scaled.hermitian_generator() == x.hermitian_generator() == (skewed is None)
