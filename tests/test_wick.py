import numpy as np
import pytest
from helpers import SIGMA_MINUS, random_complex, random_hermitian, random_unitary

from gaussbath.errors import DomainError, SingularityError
from gaussbath.linalg import DEFAULT_TOL, adjoint, operator_norm
from gaussbath.noise import (
    BLOCK_KEYS,
    NORMAL_ORDERED,
    TIME_ORDERED,
    ItoCoefficients,
    NoiseParams,
    unitarity_defect,
)
from gaussbath.wick import HPParameters, hp_extract, hp_residuals, normal_to_time, time_to_normal


def hermitian_time_ordered(rng, d):
    """Random generator quadruple of the form i * (self-adjoint expression)."""
    e00 = random_hermitian(rng, d)
    e11 = random_hermitian(rng, d)
    e10 = random_complex(rng, (d, d))
    return ItoCoefficients(TIME_ORDERED, e00, adjoint(e10), e10, e11)


def coeff_distance(a, b):
    return max(
        operator_norm(a.c00 - b.c00),
        operator_norm(a.c01 - b.c01),
        operator_norm(a.c10 - b.c10),
        operator_norm(a.c11 - b.c11),
    )


def test_kind_tag_is_validated():
    z = np.zeros((2, 2))
    with pytest.raises(DomainError):
        ItoCoefficients("antinormal", z, z, z, z)


def test_damped_qubit_frozen_coefficients():
    # No gauge term, coupling sigma-, kappa = 1/2: the contraction
    # resummation is a single term and every block is known in closed form.
    f = np.array([[0.3, 0.0], [0.0, -0.3]], dtype=complex)
    c = SIGMA_MINUS
    e = ItoCoefficients(TIME_ORDERED, f, adjoint(c), c, np.zeros((2, 2)))
    l = time_to_normal(e, NoiseParams(gamma=1.0))
    np.testing.assert_allclose(l.c11, 0.0, atol=1e-15)
    np.testing.assert_allclose(l.c10, -1j * c, atol=1e-15)
    np.testing.assert_allclose(l.c01, -1j * adjoint(c), atol=1e-15)
    np.testing.assert_allclose(l.c00, -1j * f - 0.5 * adjoint(c) @ c, atol=1e-15)
    assert unitarity_defect(l, 1.0) < 1e-14


def test_hermitian_generator_predicate(rng):
    e = hermitian_time_ordered(rng, 3)
    assert e.hermitian_generator()
    skew = ItoCoefficients(TIME_ORDERED, 1j * np.eye(2), np.zeros((2, 2)),
                           np.zeros((2, 2)), np.zeros((2, 2)))
    assert not skew.hermitian_generator()
    # A skew shift in any one block breaks self-adjointness of the quadruple.
    for key in ("c00", "c01", "c10", "c11"):
        blocks = {k: getattr(e, k) for k in ("c00", "c01", "c10", "c11")}
        blocks[key] = blocks[key] + 1e-6j * np.eye(3)
        assert not ItoCoefficients(TIME_ORDERED, **blocks).hermitian_generator()


def test_hermitian_generator_is_relative_to_each_block(rng):
    # E00 in a fast time unit: Hermitian up to rounding, skewed by more than DEFAULT_TOL.
    q = random_unitary(rng, 4)
    e00 = q @ np.diag(1e8 * np.arange(1.0, 5.0)) @ adjoint(q)
    assert np.abs(e00 - adjoint(e00)).max() > DEFAULT_TOL
    e10 = 1e-3 * random_complex(rng, (4, 4))
    e = ItoCoefficients(TIME_ORDERED, e00, adjoint(e10), e10, 1e5 * random_hermitian(rng, 4))
    assert e.hermitian_generator()
    # A skew of 1e-6 of a block's own size is not rounding.
    for key in BLOCK_KEYS:
        blocks = {k: getattr(e, k) for k in BLOCK_KEYS}
        blocks[key] = blocks[key] + 1e-6j * np.abs(blocks[key]).max() * np.eye(4)
        assert not ItoCoefficients(TIME_ORDERED, **blocks).hermitian_generator()


def test_hermitian_generators_map_to_unitary_tables(rng):
    for d in (2, 3, 4):
        for _ in range(10):
            e = hermitian_time_ordered(rng, d)
            gamma = float(rng.uniform(0.5, 2.0))
            sigma = float(rng.uniform(-1.0, 1.0))
            l = time_to_normal(e, NoiseParams(gamma=gamma, sigma=sigma))
            assert unitarity_defect(l, gamma) < 1e-11


def test_round_trip_time_normal_time(rng):
    params = NoiseParams(gamma=1.3, sigma=-0.4)
    for d in (2, 4):
        e = ItoCoefficients(
            TIME_ORDERED,
            random_complex(rng, (d, d)),
            random_complex(rng, (d, d)),
            random_complex(rng, (d, d)),
            random_complex(rng, (d, d)),
        )
        back = normal_to_time(time_to_normal(e, params), params)
        assert coeff_distance(e, back) < 1e-11


def test_round_trip_normal_time_normal(rng):
    params = NoiseParams(gamma=0.8, sigma=0.6)
    d = 3
    l = ItoCoefficients(
        NORMAL_ORDERED,
        random_complex(rng, (d, d)),
        random_complex(rng, (d, d)),
        random_complex(rng, (d, d)),
        0.1 * random_complex(rng, (d, d)),
    )
    back = time_to_normal(normal_to_time(l, params), params)
    assert coeff_distance(l, back) < 1e-11


def test_conversion_checks_ordering_tag():
    z = np.zeros((2, 2))
    l = ItoCoefficients(NORMAL_ORDERED, z, z, z, z)
    with pytest.raises(DomainError):
        time_to_normal(l, NoiseParams(gamma=1.0))
    e = ItoCoefficients(TIME_ORDERED, z, z, z, z)
    with pytest.raises(DomainError):
        normal_to_time(e, NoiseParams(gamma=1.0))


def test_singular_resummation_is_reported():
    # 1 + i*kappa*E11 = diag(0, 1 + i/2) at kappa = 1/2.
    z = np.zeros((2, 2))
    e = ItoCoefficients(TIME_ORDERED, z, z, z, np.diag([2.0j, 1.0]))
    with pytest.raises(SingularityError) as info:
        time_to_normal(e, NoiseParams(gamma=1.0))
    assert info.value.cond > 1e12 or not np.isfinite(info.value.cond)


def test_singular_inverse_map_is_reported():
    # 1 + kappa*L11 = diag(0, 1) at kappa = 1/2.
    z = np.zeros((2, 2))
    l = ItoCoefficients(NORMAL_ORDERED, z, z, z, np.diag([-2.0, 0.0]))
    with pytest.raises(SingularityError):
        normal_to_time(l, NoiseParams(gamma=1.0))


def test_hp_extract_vacuum_damping():
    gamma = 1.0
    c = SIGMA_MINUS
    l = ItoCoefficients(
        NORMAL_ORDERED,
        -0.5 * gamma * adjoint(c) @ c,
        -adjoint(c),
        c,
        np.zeros((2, 2)),
    )
    p = hp_extract(l, gamma)
    np.testing.assert_allclose(p.W, np.eye(2), atol=1e-14)
    np.testing.assert_array_equal(p.L, c)
    np.testing.assert_allclose(p.H, 0.0, atol=1e-14)
    r1, r2 = hp_residuals(l, p, gamma)
    assert r1 < 1e-14 and r2 < 1e-14


def test_hp_extract_from_converted_generator(rng):
    gamma = 1.6
    e = hermitian_time_ordered(rng, 3)
    l = time_to_normal(e, NoiseParams(gamma=gamma))
    p = hp_extract(l, gamma)
    r1, r2 = hp_residuals(l, p, gamma)
    assert r1 < 1e-10 and r2 < 1e-10
    np.testing.assert_allclose(p.H, adjoint(p.H), atol=1e-12)


def test_hp_extract_rejects_nonunitary_table():
    z = np.zeros((2, 2))
    l = ItoCoefficients(NORMAL_ORDERED, np.eye(2), z, z, z)
    with pytest.raises(DomainError, match="defect"):
        hp_extract(l, 1.0)


def test_hp_extract_checks_ordering_tag():
    z = np.zeros((2, 2))
    e = ItoCoefficients(TIME_ORDERED, z, z, z, z)
    with pytest.raises(DomainError):
        hp_extract(e, 1.0)


def test_hp_parameters_shape():
    p = HPParameters(W=np.eye(2), L=SIGMA_MINUS, H=np.zeros((2, 2)))
    assert p.W.shape == p.L.shape == p.H.shape
