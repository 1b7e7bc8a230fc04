"""Spectral calculus: derivative exactness, quadrature, and operator algebra.

Oracles:
  * analytic derivatives of resolved trigonometric modes,
  * an 8th-order centered finite-difference stencil at two resolutions
    (confirms the spectral derivative converges faster than the stencil),
  * the modified-Bessel value I0(1) summed directly from its series.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    VectorFieldFlat,
    bandlimited_field,
    dot,
    flat_divergence,
    flat_gradient,
    flat_laplacian,
    integrate_inner,
    resolution_fraction,
    rotate_J,
)

TWO_PI = 2.0 * np.pi

# Frozen oracle: I0(1) = sum_k (1/4)^k / (k!)^2, 20 terms, error < 1e-16.
I0_ONE = 1.2660658777520084


def series_i0(z: float, terms: int = 20) -> float:
    """Modified Bessel I0 by direct series summation (test oracle)."""
    return sum((z * z / 4.0) ** k / math.factorial(k) ** 2 for k in range(terms))


def fd8_axis0(values: np.ndarray, h: float) -> np.ndarray:
    """8th-order centered first derivative along axis 0 (periodic)."""
    weights = [
        (1, 4.0 / 5.0), (2, -1.0 / 5.0), (3, 4.0 / 105.0), (4, -1.0 / 280.0),
    ]
    out = np.zeros_like(values)
    for offset, w in weights:
        out += w * (np.roll(values, -offset, axis=0) - np.roll(values, offset, axis=0))
    return out / h


@pytest.fixture
def square64() -> LatticeSpec:
    return LatticeSpec.unit_square(64)


@pytest.fixture
def oblique() -> LatticeSpec:
    return LatticeSpec((1.0, 0.0), (0.5, 1.0), 64, 64)


### Lattice construction

def test_lattice_rejects_degenerate_generators():
    with pytest.raises(ValueError):
        LatticeSpec((1.0, 0.0), (2.0, 0.0), 8, 8)


@pytest.mark.parametrize(
    "d1, d2", [((1.0, 0.0), (0.0, 1e-300)), ((1e200, 0.0), (0.0, 1e200))], ids=["wavevector", "area"]
)
def test_lattice_rejects_generators_that_overflow_a_float(d1, d2):
    # the check itself raises no RuntimeWarning, which the test settings make an error
    with pytest.raises(ValueError, match="overflow a float"):
        LatticeSpec(d1, d2, 8, 8)


def test_lattice_keeps_small_generators_whose_wavevectors_fit_a_float():
    lattice = LatticeSpec((1.0, 0.0), (0.0, 1e-150), 8, 8)
    k = lattice.wavevector(*lattice.frequencies)
    assert math.isfinite(lattice.area)
    assert np.all(np.isfinite(np.sum(k * k, axis=-1)))


@pytest.mark.parametrize("n1,n2", [(3, 8), (8, 7), (2, 8)])
def test_lattice_rejects_bad_grid_counts(n1, n2):
    with pytest.raises(ValueError):
        LatticeSpec((1.0, 0.0), (0.0, 1.0), n1, n2)


def test_dual_basis_pairs_with_generators(oblique):
    basis = np.array([oblique.d1, oblique.d2])
    pairing = oblique.dual_basis @ basis.T
    np.testing.assert_allclose(pairing, np.eye(2), atol=1e-14)


def test_scalar_field_rejects_non_finite(square64):
    bad = np.zeros(square64.shape)
    bad[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(square64, bad)


def test_scalar_field_samples_are_immutable(square64):
    f = ScalarField.from_constant(square64, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


### Derivatives

def test_derivative_of_constant_is_zero(square64):
    f = ScalarField.from_constant(square64, 3.7)
    grad = flat_gradient(f)
    for df in (grad.comp1, grad.comp2, flat_laplacian(f)):
        assert df.max_abs() == 0.0


def test_derivative_of_resolved_mode_is_analytic(square64):
    f = ScalarField.from_function(square64, lambda x, y: np.sin(TWO_PI * x))
    exact = ScalarField.from_function(square64, lambda x, y: TWO_PI * np.cos(TWO_PI * x))
    df = flat_gradient(f).comp1
    assert (df - exact).max_abs() <= 1e-12


def test_derivative_on_oblique_lattice_follows_dual_basis(oblique):
    # f = sin(2*pi*lam1) has gradient 2*pi*cos(2*pi*lam1) * delta1.
    lam1, _ = oblique.fractional_coords
    f = ScalarField(oblique, np.sin(TWO_PI * lam1))
    cos_part = np.cos(TWO_PI * lam1)
    delta1 = oblique.dual_basis[0]
    grad = flat_gradient(f)
    for df, component in ((grad.comp1, delta1[0]), (grad.comp2, delta1[1])):
        exact = TWO_PI * cos_part * component
        assert np.max(np.abs(df.values - exact)) <= 1e-12


def test_derivative_matches_high_order_finite_differences():
    """Spectral derivative agrees with an 8th-order stencil, and the
    disagreement shrinks at the stencil's own O(h^8) rate."""
    errors = {}
    for n in (32, 64):
        lattice = LatticeSpec.unit_square(n)
        f = ScalarField.from_function(
            lattice, lambda x, y: np.exp(np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
        )
        spectral = flat_gradient(f).comp1.values
        stencil = fd8_axis0(f.values, h=1.0 / n)
        errors[n] = np.max(np.abs(spectral - stencil))
    assert errors[32] < 1e-3
    assert errors[64] < errors[32] / 100.0  # ~2^8 expected (measured ~221)


def test_derivative_error_decays_spectrally():
    """On an analytic field the error beats any fixed algebraic order."""
    errs = []
    for n in (16, 32):
        lattice = LatticeSpec.unit_square(n)
        f = ScalarField.from_function(lattice, lambda x, y: np.exp(np.sin(TWO_PI * x)))
        exact = ScalarField.from_function(
            lattice, lambda x, y: TWO_PI * np.cos(TWO_PI * x) * np.exp(np.sin(TWO_PI * x))
        )
        errs.append(max((flat_gradient(f).comp1 - exact).max_abs(), 1e-14))
    assert errs[1] < errs[0] / 2.0**10


def test_odd_derivative_kills_nyquist_mode():
    lattice = LatticeSpec.unit_square(8)
    f = ScalarField.from_function(lattice, lambda x, y: np.cos(TWO_PI * 4 * x))
    assert flat_gradient(f).comp1.max_abs() <= 1e-12


### Quadrature

def test_integrate_constant_gives_area(square64):
    one = ScalarField.from_constant(square64, 1.0)
    assert integrate_inner(one) == pytest.approx(1.0, abs=1e-15)


def test_integrate_sin_squared(square64):
    f = ScalarField.from_function(square64, lambda x, y: np.sin(TWO_PI * x))
    assert integrate_inner(f, f) == pytest.approx(0.5, abs=1e-14)


def test_integrate_matches_bessel_series_oracle():
    lattice = LatticeSpec.unit_square(128)
    f = ScalarField.from_function(lattice, lambda x, y: np.exp(np.cos(TWO_PI * x)))
    assert series_i0(1.0) == pytest.approx(I0_ONE, abs=1e-15)
    assert integrate_inner(f) == pytest.approx(I0_ONE, abs=1e-12)


def test_integrate_rejects_lattice_mismatch(square64):
    other = LatticeSpec.unit_square(32)
    with pytest.raises(ValueError, match="mismatch"):
        integrate_inner(
            ScalarField.from_constant(square64, 1.0),
            ScalarField.from_constant(other, 1.0),
        )


def test_oblique_area_weighting():
    lattice = LatticeSpec((2.0, 0.0), (0.5, 1.5), 16, 16)
    one = ScalarField.from_constant(lattice, 1.0)
    assert integrate_inner(one) == pytest.approx(3.0, rel=1e-15)


### Rotation J

def test_rotate_constant_field(square64):
    X = VectorFieldFlat(
        ScalarField.from_constant(square64, 1.0),
        ScalarField.from_constant(square64, 0.0),
    )
    JX = rotate_J(X)
    assert JX.comp1.max_abs() == 0.0
    assert (JX.comp2 - 1.0).max_abs() == 0.0


def test_rotate_twice_negates(square64):
    rng = np.random.default_rng(7)
    X = VectorFieldFlat(bandlimited_field(square64, rng), bandlimited_field(square64, rng))
    JJX = rotate_J(rotate_J(X))
    assert (JJX.comp1 + X.comp1).max_abs() <= 1e-15
    assert (JJX.comp2 + X.comp2).max_abs() <= 1e-15


def test_rotation_is_pointwise_orthogonal(square64):
    rng = np.random.default_rng(8)
    X = VectorFieldFlat(bandlimited_field(square64, rng), bandlimited_field(square64, rng))
    assert dot(rotate_J(X), X).max_abs() <= 1e-15


### Operator algebra invariants

@pytest.mark.parametrize("lattice_name", ["square64", "oblique"])
@pytest.mark.parametrize("direction", [1, 2])
def test_derivative_is_skew_adjoint(lattice_name, direction, request):
    lattice = request.getfixturevalue(lattice_name)
    rng = np.random.default_rng(11)
    f = bandlimited_field(lattice, rng)
    g = bandlimited_field(lattice, rng)
    component = f"comp{direction}"
    lhs = integrate_inner(getattr(flat_gradient(f), component), g)
    rhs = -integrate_inner(f, getattr(flat_gradient(g), component))
    scale = max(abs(lhs), abs(rhs), 1e-30)
    assert abs(lhs - rhs) / scale <= 1e-10


@pytest.mark.parametrize("lattice_name", ["square64", "oblique"])
def test_divergence_integrates_to_zero(lattice_name, request):
    lattice = request.getfixturevalue(lattice_name)
    rng = np.random.default_rng(12)
    X = VectorFieldFlat(bandlimited_field(lattice, rng), bandlimited_field(lattice, rng))
    assert abs(integrate_inner(flat_divergence(X))) <= 1e-11


@pytest.mark.parametrize("lattice_name", ["square64", "oblique"])
def test_laplacian_is_symmetric(lattice_name, request):
    lattice = request.getfixturevalue(lattice_name)
    rng = np.random.default_rng(13)
    f = bandlimited_field(lattice, rng)
    g = bandlimited_field(lattice, rng)
    lhs = integrate_inner(flat_laplacian(f), g)
    rhs = integrate_inner(f, flat_laplacian(g))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) <= 1e-10


def test_laplacian_equals_divergence_of_gradient(square64):
    rng = np.random.default_rng(14)
    f = bandlimited_field(square64, rng)
    composed = -flat_divergence(flat_gradient(f)).values
    direct = flat_laplacian(f).values
    assert np.max(np.abs(composed - direct)) <= 1e-11 * max(1.0, np.max(np.abs(direct)))


def test_laplacian_and_divergence_of_gradient_kill_nyquist_mode():
    # one rule: the Laplacian composes the first derivatives, which vanish on
    # the Nyquist lines, so neither form keeps -k^2 there
    lattice = LatticeSpec.unit_square(8)
    f = ScalarField.from_function(lattice, lambda x, y: np.cos(TWO_PI * 4 * x))
    assert flat_laplacian(f).max_abs() == 0.0
    assert flat_divergence(flat_gradient(f)).max_abs() == 0.0


def test_laplacian_sign_is_geometer(square64):
    f = ScalarField.from_function(square64, lambda x, y: np.sin(TWO_PI * x))
    expected = (TWO_PI**2) * f.values
    assert np.max(np.abs(flat_laplacian(f).values - expected)) <= 1e-10


def test_fourier_roundtrip(square64):
    rng = np.random.default_rng(15)
    f = bandlimited_field(square64, rng)
    back = np.fft.ifft2(np.fft.fft2(f.values)).real
    assert np.max(np.abs(back - f.values)) <= 1e-13 * max(1.0, f.max_abs())


### Resolution diagnostics

def test_resolution_fraction_flags_nyquist_content():
    lattice = LatticeSpec.unit_square(16)
    smooth = ScalarField.from_function(lattice, lambda x, y: np.sin(TWO_PI * x))
    rough = ScalarField.from_function(lattice, lambda x, y: np.sin(TWO_PI * 7 * x))
    assert resolution_fraction(smooth) <= 1e-12
    assert resolution_fraction(rough) > 0.5


def test_resolution_fraction_of_constant_is_zero(square64):
    assert resolution_fraction(ScalarField.from_constant(square64, 4.2)) == 0.0
    # on these grids the FFT of a constant leaves roundoff off the mean;
    # roundoff is not resolution content, whatever share of it sits on top
    for n1, n2 in [(20, 20), (50, 50), (100, 100), (72, 50)]:
        lattice = LatticeSpec((1.0, 0.0), (0.0, 1.0), n1, n2)
        for value in (0.3, 4.2, -1.7, 1e10):
            assert resolution_fraction(ScalarField.from_constant(lattice, value)) == 0.0
