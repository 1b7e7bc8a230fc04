"""Winding classes, linear representatives, and the angle/field dictionary."""

from __future__ import annotations

import numpy as np
import pytest

from torusfield.angles import (
    AngleField,
    HomotopyClass,
    _constant_gradient,
    angle_to_unit_field,
    winding_class,
)
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    VectorFieldFlat,
    bandlimited_field,
    flat_gradient,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture
def square() -> LatticeSpec:
    return LatticeSpec.unit_square(16)


def make_angle(lattice: LatticeSpec, m: int, n: int, periodic_values=None) -> AngleField:
    if periodic_values is None:
        periodic_values = np.zeros(lattice.shape)
    return AngleField(HomotopyClass(m, n), ScalarField(lattice, periodic_values))


### Linear representatives

def test_trivial_class_has_zero_representative(square):
    samples = make_angle(square, 0, 0).total_samples()
    assert np.max(np.abs(samples)) == 0.0
    np.testing.assert_array_equal(_constant_gradient(HomotopyClass(0, 0), square), [0.0, 0.0])


def test_unit_square_class_one_zero(square):
    samples = make_angle(square, 1, 0).total_samples()
    x, _ = square.cartesian_coords
    np.testing.assert_allclose(samples, TWO_PI * x, atol=1e-14)
    np.testing.assert_allclose(_constant_gradient(HomotopyClass(1, 0), square), [TWO_PI, 0.0], atol=1e-14)


def test_oblique_gradient_solves_dual_system():
    lattice = LatticeSpec((1.0, 0.0), (0.5, 1.0), 16, 16)
    gradient = np.array(_constant_gradient(HomotopyClass(2, -1), lattice))
    # The defining property: <Y0, d1> = 2*pi*m and <Y0, d2> = 2*pi*n.
    assert float(gradient @ np.array(lattice.d1)) == pytest.approx(4 * np.pi, rel=1e-14)
    assert float(gradient @ np.array(lattice.d2)) == pytest.approx(-2 * np.pi, rel=1e-14)


### Angle -> unit field

def test_zero_angle_gives_first_axis_field(square):
    V = angle_to_unit_field(make_angle(square, 0, 0))
    assert (V.comp1 - 1.0).max_abs() == 0.0
    assert V.comp2.max_abs() == 0.0


def test_constant_quarter_turn(square):
    V = angle_to_unit_field(
        make_angle(square, 0, 0, np.full(square.shape, np.pi / 2))
    )
    assert V.comp1.max_abs() <= 1e-15
    assert (V.comp2 - 1.0).max_abs() <= 1e-15


def test_unit_norm_pointwise(square):
    rng = np.random.default_rng(3)
    alpha = bandlimited_field(square, rng, band=3, amplitude=2.0)
    V = angle_to_unit_field(AngleField(HomotopyClass(1, 2), alpha))
    norms = np.hypot(V.comp1.values, V.comp2.values)
    assert np.max(np.abs(norms - 1.0)) <= 1e-15


### Winding recovery

@pytest.mark.parametrize("m", range(-2, 3))
@pytest.mark.parametrize("n", range(-2, 3))
def test_winding_roundtrip(square, m, n):
    V = angle_to_unit_field(make_angle(square, m, n))
    assert winding_class(V) == HomotopyClass(m, n)


def test_winding_survives_periodic_perturbation():
    lattice = LatticeSpec.unit_square(32)
    lam1, lam2 = lattice.fractional_coords
    wiggle = 0.4 * np.sin(TWO_PI * lam1) * np.cos(TWO_PI * lam2)
    V = angle_to_unit_field(make_angle(lattice, 1, 1, wiggle))
    assert winding_class(V) == HomotopyClass(1, 1)


def test_constant_field_has_trivial_class(square):
    V = VectorFieldFlat(
        ScalarField.from_constant(square, 0.0), ScalarField.from_constant(square, 1.0)
    )
    assert winding_class(V) == HomotopyClass(0, 0)


def test_winding_refuses_vanishing_field(square):
    c1 = np.ones(square.shape)
    c1[2, 3] = 0.0
    c2 = np.zeros(square.shape)
    V = VectorFieldFlat.from_arrays(square, c1, c2)
    with pytest.raises(ValueError, match="vanishes"):
        winding_class(V)


def test_winding_refuses_under_resolved_field(square):
    # Class (8, 0) on a 16-point axis steps exactly pi per grid point.
    V = angle_to_unit_field(make_angle(square, 8, 0))
    with pytest.raises(ValueError, match="under-resolved"):
        winding_class(V)


def test_winding_refuses_a_field_whose_grid_lines_wind_differently(square):
    # the lines t < 8 wind once along d1 and the others not at all, with every
    # increment along d1 below pi; the sums of a line's wrapped increments are
    # exact multiples of 2 pi to n eps, so their "inconsistent winding sums"
    # refusal needs ~1e9 points per line and is not tested
    lam1, _ = square.fractional_coords
    phi = np.where(np.arange(16) < 8, TWO_PI * lam1, 0.0)
    V = VectorFieldFlat.from_arrays(square, np.cos(phi), np.sin(phi))
    with pytest.raises(ValueError, match="winding differs between grid lines"):
        winding_class(V)


### Split representation

def test_from_total_roundtrip(square):
    rng = np.random.default_rng(5)
    alpha = bandlimited_field(square, rng, band=3, amplitude=0.7)
    theta = AngleField(HomotopyClass(-1, 2), alpha)
    rebuilt = AngleField.from_total(square, theta.total_samples(), theta.homotopy)
    assert (rebuilt.periodic - alpha).max_abs() <= 1e-12


def test_total_gradient_matches_trig_route():
    """Two routes to grad(theta): the split form Y0 + grad(alpha), and the
    branch-free trigonometric identity cos*d(sin) - sin*d(cos)."""
    lattice = LatticeSpec.unit_square(64)
    rng = np.random.default_rng(6)
    alpha = bandlimited_field(lattice, rng, band=3, amplitude=0.3)
    theta = AngleField(HomotopyClass(1, -1), alpha)
    V = angle_to_unit_field(theta)
    split = theta.total_gradient()
    trig = V.comp1 * flat_gradient(V.comp2) - V.comp2 * flat_gradient(V.comp1)
    for trig_comp, split_comp in ((trig.comp1, split.comp1), (trig.comp2, split.comp2)):
        assert (trig_comp - split_comp).max_abs() <= 1e-11


def test_shifted_preserves_class(square):
    theta = make_angle(square, 2, 1)
    beta = ScalarField.from_constant(square, 0.25)
    assert theta.shifted(beta).homotopy == HomotopyClass(2, 1)
