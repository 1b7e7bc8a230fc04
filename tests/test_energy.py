"""Energy functional: closed forms, two-path oracles, first variation.

The headline oracle recomputes the energy from the pointwise residual pair
and from the curvature-weighted second fundamental form of the unit field —
two routes that share no code with the production quadratures.
"""

from __future__ import annotations

import numpy as np
import pytest

from torusfield.angles import AngleField, HomotopyClass
from torusfield.conformal import (
    ConformalStructure,
    ResolutionWarning,
    section_residual_pair,
)
from torusfield.energy import bienergy, el_residual, right_hand_side
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    VectorFieldFlat,
    bandlimited_field,
    dot,
    flat_gradient,
    flat_laplacian,
    integrate_inner,
)

from oracles import directional_derivative_check

TWO_PI = 2.0 * np.pi
FOURTH_POWER_OF_2PI = 1558.5454565440389  # (2*pi)**4


@pytest.fixture
def flat64() -> ConformalStructure:
    lattice = LatticeSpec.unit_square(64)
    return ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))


def random_structure(lattice: LatticeSpec, seed: int) -> ConformalStructure:
    rng = np.random.default_rng(seed)
    return ConformalStructure.from_exponent(bandlimited_field(lattice, rng, band=3, amplitude=0.3))


def random_angle(lattice: LatticeSpec, seed: int, m: int = 1, n: int = 0) -> AngleField:
    rng = np.random.default_rng(seed)
    return AngleField(HomotopyClass(m, n), bandlimited_field(lattice, rng, band=3, amplitude=0.3))


### Closed forms on the flat square

def test_parallel_field_has_zero_energy(flat64):
    lattice = flat64.lattice
    for m, n in [(0, 0), (1, 0), (-2, 3)]:
        theta = AngleField(HomotopyClass(m, n), ScalarField.from_constant(lattice, 0.0))
        e = bienergy(flat64, theta)
        assert e.bienergy == 0.0
        assert e.vertical_bienergy == 0.0
        assert e.horizontal_part == 0.0


def test_parallel_field_bending_energy(flat64):
    # the first-order bending of a winding-(1,0) parallel field on the unit
    # square is half the squared constant gradient: (2*pi)^2 / 2
    theta = AngleField(HomotopyClass(1, 0), ScalarField.from_constant(flat64.lattice, 0.0))
    e = bienergy(flat64, theta)
    assert e.total_bending == pytest.approx(2.0 * np.pi**2, rel=1e-13)
    assert e.area == pytest.approx(1.0, rel=1e-13)


def test_single_mode_closed_form(flat64):
    eps = 0.1
    lam1, _ = flat64.lattice.fractional_coords
    alpha = ScalarField(flat64.lattice, eps * np.sin(TWO_PI * lam1))
    theta = AngleField(HomotopyClass(0, 0), alpha)
    e = bienergy(flat64, theta)
    assert e.vertical_bienergy == pytest.approx(eps**2 * FOURTH_POWER_OF_2PI / 2.0, rel=1e-12)
    assert e.horizontal_part == 0.0
    assert e.bienergy == e.vertical_bienergy


def test_breakdown_parts_are_nonnegative_and_sum():
    lattice = LatticeSpec.unit_square(64)
    for seed in range(4):
        cs = random_structure(lattice, seed)
        theta = random_angle(lattice, seed + 50, m=seed % 3 - 1, n=1)
        e = bienergy(cs, theta)
        assert e.vertical_bienergy >= 0.0
        assert e.horizontal_part >= 0.0
        assert e.total_bending >= 0.0
        assert e.area > 0.0
        assert abs(e.bienergy - (e.vertical_bienergy + e.horizontal_part)) <= 1e-12 * max(
            1.0, e.bienergy
        )


### Two-path oracle

def curved_covariant_derivative(cs, Y, X):
    """nabla_Y X for the curved metric, assembled term by term from the
    conformal change-of-connection formula (test oracle)."""
    du = flat_gradient(cs.u)

    def directional(W, f):
        return dot(W, flat_gradient(f))

    flat_dYX = VectorFieldFlat(directional(Y, X.comp1), directional(Y, X.comp2))
    gYX = cs.em2u * dot(Y, X)
    return flat_dYX - dot(Y, du) * X - dot(X, du) * Y + gYX * cs.gradient(cs.u)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_energy_matches_residual_and_shape_operator_routes(seed):
    """Vertical part from the pointwise residual; horizontal part from the
    curvature-weighted acceleration nabla_V V - div(V) V."""
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, seed)
    theta = random_angle(lattice, seed + 10, m=1, n=seed % 2)
    e = bienergy(cs, theta)

    pair = section_residual_pair(cs, theta)
    vertical_oracle = cs.integrate(cs.em2u * dot(pair.curved, pair.curved))

    total = theta.total_samples()
    V = VectorFieldFlat.from_arrays(
        lattice, cs.eu.values * np.cos(total), cs.eu.values * np.sin(total)
    )
    accel = curved_covariant_derivative(cs, V, V) - cs.divergence(V) * V
    horizontal_oracle = cs.integrate(cs.kg_sq, cs.em2u * dot(accel, accel))

    assert e.vertical_bienergy == pytest.approx(vertical_oracle, rel=1e-8)
    assert e.horizontal_part == pytest.approx(horizontal_oracle, rel=1e-8)
    assert e.bienergy == pytest.approx(vertical_oracle + horizontal_oracle, rel=1e-8)


def test_zero_energy_iff_pointwise_vanishing(flat64):
    theta = AngleField(HomotopyClass(2, -1), ScalarField.from_constant(flat64.lattice, 0.0))
    e = bienergy(flat64, theta)
    assert e.bienergy == 0.0
    # pointwise integrands vanish too
    lap = flat_laplacian(theta.periodic)
    assert lap.max_abs() <= 1e-10
    assert flat64.kg_sq.max_abs() <= 1e-10
    # and a genuinely bent field has strictly positive energy
    bent = random_angle(flat64.lattice, 7)
    assert bienergy(flat64, bent).bienergy > 1e-3


### Critical-point residual

def test_residual_vanishes_for_flat_parallel_field(flat64):
    theta = AngleField(HomotopyClass(1, 2), ScalarField.from_constant(flat64.lattice, 0.0))
    assert el_residual(flat64, theta, "curved").max_abs() <= 1e-12
    assert el_residual(flat64, theta, "flat_weighted").max_abs() <= 1e-12


def test_residual_reduces_to_biharmonic_operator_on_flat_square(flat64):
    theta = random_angle(flat64.lattice, 21, m=1, n=-1)
    expected = flat_laplacian(flat_laplacian(theta.periodic))
    scale = expected.max_abs()
    for formulation in ("curved", "flat_weighted"):
        res = el_residual(flat64, theta, formulation)
        assert (res - expected).max_abs() <= 1e-10 * scale


@pytest.mark.parametrize("seed", [30, 31, 32])
def test_residual_formulations_differ_by_conformal_factor(seed):
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, seed)
    theta = random_angle(lattice, seed + 5)
    curved = el_residual(cs, theta, "curved")
    flat = el_residual(cs, theta, "flat_weighted")
    scale = max(1.0, curved.max_abs())
    assert (curved - cs.e2u * flat).max_abs() <= 1e-8 * scale


def test_residual_mean_zero():
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 40)
    theta = random_angle(lattice, 41)
    flat = el_residual(cs, theta, "flat_weighted")
    curved = el_residual(cs, theta, "curved")
    assert abs(integrate_inner(flat)) <= 1e-10 * max(1.0, flat.max_abs())
    assert abs(cs.integrate(curved)) <= 1e-10 * max(1.0, curved.max_abs())


def test_residual_rejects_unknown_formulation(flat64):
    theta = AngleField(HomotopyClass(0, 0), ScalarField.from_constant(flat64.lattice, 0.0))
    with pytest.raises(ValueError, match="formulation"):
        el_residual(flat64, theta, "weak")


### First variation

def test_zero_variation_gives_zero_pair():
    lattice = LatticeSpec.unit_square(32)
    cs = random_structure(lattice, 50)
    theta = random_angle(lattice, 51)
    pair = directional_derivative_check(cs, theta, ScalarField.from_constant(lattice, 0.0), h=1e-4)
    assert pair.analytic == 0.0
    assert pair.numeric == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_first_variation_agrees_with_central_difference(seed):
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, seed)
    theta = random_angle(lattice, seed + 200, m=1, n=seed % 2)
    rng = np.random.default_rng(seed + 400)
    beta = bandlimited_field(lattice, rng, band=3, amplitude=0.5)
    pair = directional_derivative_check(cs, theta, beta, h=1e-4)
    gap = abs(pair.analytic - pair.numeric)
    assert gap <= 1e-6 * max(abs(pair.analytic), abs(pair.numeric))


def test_halving_h_quarters_the_gap():
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 60)
    theta = random_angle(lattice, 61)
    rng = np.random.default_rng(62)
    beta = bandlimited_field(lattice, rng, band=3, amplitude=0.5)
    gaps = []
    for h in (4e-3, 2e-3, 1e-3):
        pair = directional_derivative_check(cs, theta, beta, h=h)
        gaps.append(abs(pair.analytic - pair.numeric))
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5
    assert 3.5 <= gaps[1] / gaps[2] <= 4.5


def test_variation_pairing_matches_between_formulations():
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 70)
    theta = random_angle(lattice, 71)
    rng = np.random.default_rng(72)
    beta = bandlimited_field(lattice, rng, band=3, amplitude=0.5)
    curved_pairing = 2.0 * cs.integrate(beta, el_residual(cs, theta, "curved"))
    flat_pairing = 2.0 * integrate_inner(beta, el_residual(cs, theta, "flat_weighted"))
    assert curved_pairing == pytest.approx(flat_pairing, rel=1e-7)


### Diagnostics

def test_energy_rejects_lattice_mismatch(flat64):
    other = LatticeSpec.unit_square(32)
    theta = AngleField(HomotopyClass(0, 0), ScalarField.from_constant(other, 0.0))
    with pytest.raises(ValueError, match="mismatch"):
        bienergy(flat64, theta)
    with pytest.raises(ValueError, match="mismatch"):
        el_residual(flat64, theta)


def test_source_and_residual_reject_an_unknown_formulation(flat64):
    theta = AngleField(HomotopyClass(1, 0), ScalarField.from_constant(flat64.lattice, 0.0))
    with pytest.raises(ValueError, match="unknown formulation: 'weighted'"):
        el_residual(flat64, theta, "weighted")
    with pytest.raises(ValueError, match="unknown formulation: 'weighted'"):
        right_hand_side(flat64, theta.homotopy, "weighted")


def test_energy_of_an_angle_within_roundoff_does_not_warn(flat64):
    # the rough mode of the next test at 1e-20 rad is FFT roundoff; the test
    # settings make a warning an error
    lam1, _ = flat64.lattice.fractional_coords
    tiny = ScalarField(flat64.lattice, 1e-20 * np.sin(TWO_PI * 30 * lam1))
    assert bienergy(flat64, AngleField(HomotopyClass(0, 0), tiny)).bienergy < 1e-30


def test_energy_warns_on_unresolved_angle(flat64):
    lattice = flat64.lattice
    lam1, _ = lattice.fractional_coords
    rough = ScalarField(lattice, 0.1 * np.sin(TWO_PI * 30 * lam1))
    theta = AngleField(HomotopyClass(0, 0), rough)
    with pytest.warns(ResolutionWarning):
        bienergy(flat64, theta)
