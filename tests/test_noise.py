import numpy as np
import pytest
from helpers import random_complex, random_hermitian, random_unitary

from gaussbath.errors import BasisError, DimensionError, DomainError
from gaussbath.linalg import adjoint
from gaussbath.noise import (
    GAUSSIAN3,
    NoiseParams,
    QSDifferential,
    VACUUM4,
    differential_adjoint,
    ito_product_gaussian,
    ito_product_vacuum,
    unitarity_defect,
)
from gaussbath.wick import NORMAL_ORDERED, ItoCoefficients


def contraction_oracle(xc, yc, gamma):
    """Independent index contraction for the vacuum table.

    Only dA^{i1} dA^{1l} = gamma dA^{il} survives, so the correction at
    (i, l) is gamma * X[i,1] @ Y[1,l].
    """
    out = {}
    for i in (0, 1):
        for l in (0, 1):
            out[(i, l)] = gamma * xc[(i, 1)] @ yc[(1, l)]
    return out


def random_vacuum_differential(rng, d=2):
    return QSDifferential(
        VACUUM4, {(i, j): random_complex(rng, (d, d)) for i in (0, 1) for j in (0, 1)}
    )


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


def test_gaussian_validity_predicate():
    assert NoiseParams(gamma=1.0, n=1.0, m=np.sqrt(2.0)).is_gaussian_valid()
    assert not NoiseParams(gamma=1.0, n=1.0, m=1.5).is_gaussian_valid()
    assert NoiseParams(gamma=1.0, n=0.0, m=0.0).is_gaussian_valid()


def test_differential_rejects_foreign_labels():
    with pytest.raises(BasisError):
        QSDifferential(VACUUM4, {"dA": np.eye(2)})
    with pytest.raises(BasisError):
        QSDifferential(GAUSSIAN3, {(0, 1): np.eye(2)})
    with pytest.raises(BasisError):
        QSDifferential("fock", {})


def test_differential_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        QSDifferential(VACUUM4, {(0, 0): np.eye(2), (0, 1): np.eye(3)})


def test_vacuum_product_annihilation_times_creation():
    # dA . dA+ = gamma dt with unit coefficients
    params = NoiseParams(gamma=1.0)
    x = QSDifferential(VACUUM4, {(0, 1): np.eye(2)})
    y = QSDifferential(VACUUM4, {(1, 0): np.eye(2)})
    corr = ito_product_vacuum(x, y, params)
    np.testing.assert_allclose(corr.coeff((0, 0)), np.eye(2), atol=1e-15)
    for label in ((0, 1), (1, 0), (1, 1)):
        np.testing.assert_allclose(corr.coeff(label), 0.0, atol=1e-15)


def test_vacuum_product_creation_times_annihilation_vanishes():
    params = NoiseParams(gamma=1.0)
    x = QSDifferential(VACUUM4, {(1, 0): np.eye(2)})
    y = QSDifferential(VACUUM4, {(0, 1): np.eye(2)})
    corr = ito_product_vacuum(x, y, params)
    for label in ((0, 0), (0, 1), (1, 0), (1, 1)):
        np.testing.assert_allclose(corr.coeff(label), 0.0, atol=1e-15)


def test_vacuum_product_matches_contraction_oracle(rng):
    params = NoiseParams(gamma=1.7, sigma=0.3)
    for _ in range(20):
        x = random_vacuum_differential(rng)
        y = random_vacuum_differential(rng)
        corr = ito_product_vacuum(x, y, params)
        expected = contraction_oracle(x.coeffs, y.coeffs, 1.7)
        for label, want in expected.items():
            np.testing.assert_allclose(corr.coeff(label), want, atol=1e-12)


def test_vacuum_product_associative_at_correction_level(rng):
    params = NoiseParams(gamma=0.9)
    x = random_vacuum_differential(rng)
    y = random_vacuum_differential(rng)
    z = random_vacuum_differential(rng)
    left = ito_product_vacuum(ito_product_vacuum(x, y, params), z, params)
    right = ito_product_vacuum(x, ito_product_vacuum(y, z, params), params)
    for label in ((0, 0), (0, 1), (1, 0), (1, 1)):
        np.testing.assert_allclose(left.coeff(label), right.coeff(label), atol=1e-12)


def test_gaussian_product_hand_weighted_example(rng):
    # X carries only a dA coefficient, Y only a dA+ coefficient, so the
    # correction is the single moment gamma (n+1) CX CY dt.
    gamma, n = 1.3, 0.5
    params = NoiseParams(gamma=gamma, n=n, m=0.3j)
    cx = random_complex(rng, (2, 2))
    cy = random_complex(rng, (2, 2))
    corr = ito_product_gaussian(
        QSDifferential(GAUSSIAN3, {"dA": cx}),
        QSDifferential(GAUSSIAN3, {"dAdag": cy}),
        params,
    )
    np.testing.assert_allclose(corr.coeff("dt"), gamma * (n + 1.0) * cx @ cy, atol=1e-12)
    np.testing.assert_allclose(corr.coeff("dA"), 0.0, atol=1e-15)


def test_gaussian_product_all_four_moments(rng):
    gamma, n, m = 0.8, 1.2, 0.9 * np.exp(0.4j)
    params = NoiseParams(gamma=gamma, n=n, m=m)
    xa, xc = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
    ya, yc = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
    x = QSDifferential(GAUSSIAN3, {"dA": xa, "dAdag": xc, "dt": random_complex(rng, (2, 2))})
    y = QSDifferential(GAUSSIAN3, {"dA": ya, "dAdag": yc, "dt": random_complex(rng, (2, 2))})
    corr = ito_product_gaussian(x, y, params)
    # Term-by-term application of the second-moment table; dt factors
    # contribute nothing at first order.
    want = gamma * ((n + 1.0) * xa @ yc + n * xc @ ya + m * xa @ ya + np.conj(m) * xc @ yc)
    np.testing.assert_allclose(corr.coeff("dt"), want, atol=1e-12)


def test_gaussian_product_vacuum_limit_matches_vacuum_table(rng):
    params = NoiseParams(gamma=1.1, n=0.0, m=0.0)
    xa, xc = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
    ya, yc = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
    gauss = ito_product_gaussian(
        QSDifferential(GAUSSIAN3, {"dA": xa, "dAdag": xc}),
        QSDifferential(GAUSSIAN3, {"dA": ya, "dAdag": yc}),
        params,
    )
    vac = ito_product_vacuum(
        QSDifferential(VACUUM4, {(0, 1): xa, (1, 0): xc}),
        QSDifferential(VACUUM4, {(0, 1): ya, (1, 0): yc}),
        params,
    )
    np.testing.assert_allclose(gauss.coeff("dt"), vac.coeff((0, 0)), atol=1e-12)


def test_differential_adjoint_transposes_labels(rng):
    x = random_vacuum_differential(rng)
    xd = differential_adjoint(x)
    for i in (0, 1):
        for j in (0, 1):
            np.testing.assert_array_equal(xd.coeff((j, i)), adjoint(x.coeff((i, j))))
    xdd = differential_adjoint(xd)
    for label in ((0, 0), (0, 1), (1, 0), (1, 1)):
        np.testing.assert_allclose(xdd.coeff(label), x.coeff(label), atol=1e-15)


def test_differential_adjoint_swaps_gaussian_labels(rng):
    c = random_complex(rng, (2, 2))
    x = QSDifferential(GAUSSIAN3, {"dA": c})
    xd = differential_adjoint(x)
    np.testing.assert_array_equal(xd.coeff("dAdag"), adjoint(c))
    np.testing.assert_allclose(xd.coeff("dA"), 0.0, atol=1e-15)


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
