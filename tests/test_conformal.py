"""Curved-metric calculus: curvature oracle, adjointness, frames, residuals.

The Gaussian-curvature convention (sign and conformal-factor placement) is
pinned here by an independent oracle: the general metric-curvature
determinant formula evaluated with 4th-order finite differences on the
metric component arrays — no conformal shortcut, no spectral derivatives.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from torusfield.angles import AngleField, HomotopyClass
from torusfield.conformal import (
    ConformalStructure,
    ResolutionWarning,
    frame_connection,
    section_residual_pair,
)
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
    spectral_derivative,
)

TWO_PI = 2.0 * np.pi


def structure_from(lattice: LatticeSpec, fn) -> ConformalStructure:
    return ConformalStructure.from_exponent(ScalarField.from_function(lattice, fn))


def random_structure(lattice: LatticeSpec, seed: int, amplitude: float = 0.3) -> ConformalStructure:
    rng = np.random.default_rng(seed)
    return ConformalStructure.from_exponent(
        bandlimited_field(lattice, rng, band=3, amplitude=amplitude)
    )


def random_angle(lattice: LatticeSpec, seed: int, m: int = 1, n: int = 0) -> AngleField:
    rng = np.random.default_rng(seed)
    return AngleField(HomotopyClass(m, n), bandlimited_field(lattice, rng, band=3, amplitude=0.3))


### Curvature

def test_flat_metric_has_zero_curvature():
    lattice = LatticeSpec.unit_square(32)
    kg = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0)).kg
    assert kg.max_abs() == 0.0


def test_constant_exponent_has_zero_curvature():
    lattice = LatticeSpec.unit_square(32)
    kg = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.8)).kg
    assert kg.max_abs() == 0.0


def test_total_curvature_vanishes():
    lattice = LatticeSpec.unit_square(64)
    cs = structure_from(lattice, lambda x, y: 0.3 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
    assert abs(cs.integrate(cs.kg)) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_total_curvature_vanishes_random_family(seed):
    cs = random_structure(LatticeSpec.unit_square(64), seed)
    assert abs(cs.integrate(cs.kg)) <= 1e-8


def det3(rows):
    """Elementwise determinant of a 3x3 matrix of arrays."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def curvature_from_metric_components(E, F, G, h1, h2):
    """Metric-curvature determinant formula with 4th-order finite differences.

    Independent oracle: consumes only the metric component arrays on a
    periodic Cartesian grid.
    """

    def dx(A):
        return (
            -np.roll(A, -2, 0) + 8 * np.roll(A, -1, 0) - 8 * np.roll(A, 1, 0) + np.roll(A, 2, 0)
        ) / (12 * h1)

    def dy(A):
        return (
            -np.roll(A, -2, 1) + 8 * np.roll(A, -1, 1) - 8 * np.roll(A, 1, 1) + np.roll(A, 2, 1)
        ) / (12 * h2)

    Ex, Ey = dx(E), dy(E)
    Gx, Gy = dx(G), dy(G)
    Fx, Fy = dx(F), dy(F)
    Eyy, Gxx, Fxy = dy(Ey), dx(Gx), dy(Fx)
    m1 = det3(
        (
            (-0.5 * Eyy + Fxy - 0.5 * Gxx, 0.5 * Ex, Fx - 0.5 * Ey),
            (Fy - 0.5 * Gx, E, F),
            (0.5 * Gy, F, G),
        )
    )
    m2 = det3(
        (
            (np.zeros_like(E), 0.5 * Ey, 0.5 * Gx),
            (0.5 * Ey, E, F),
            (0.5 * Gx, F, G),
        )
    )
    return (m1 - m2) / (E * G - F * F) ** 2


def test_curvature_matches_metric_determinant_oracle():
    lattice = LatticeSpec.unit_square(256)
    u_fn = lambda x, y: 0.3 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
    u = ScalarField.from_function(lattice, u_fn)
    kg = ConformalStructure.from_exponent(u).kg

    conformal = np.exp(-2.0 * u.values)  # metric components E = G, F = 0
    zeros = np.zeros_like(conformal)
    oracle = curvature_from_metric_components(
        conformal, zeros, conformal, 1.0 / 256, 1.0 / 256
    )
    assert np.max(np.abs(kg.values - oracle)) <= 1e-5


### Curved operators

def test_curved_operators_reduce_to_flat_at_zero_exponent():
    lattice = LatticeSpec.unit_square(32)
    cs = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))
    rng = np.random.default_rng(9)
    f = bandlimited_field(lattice, rng)
    X = VectorFieldFlat(bandlimited_field(lattice, rng), bandlimited_field(lattice, rng))
    np.testing.assert_array_equal(cs.gradient(f).comp1.values, flat_gradient(f).comp1.values)
    np.testing.assert_array_equal(cs.divergence(X).values, flat_divergence(X).values)
    # laplacian composes two transforms, so only roundoff-level agreement
    assert (cs.laplacian(f) - flat_laplacian(f)).max_abs() <= 1e-11


def test_curved_laplacian_is_self_adjoint_in_weighted_product():
    cs = random_structure(LatticeSpec.unit_square(64), 10)
    rng = np.random.default_rng(11)
    f = bandlimited_field(cs.lattice, rng)
    h = bandlimited_field(cs.lattice, rng)
    lhs = cs.integrate(cs.laplacian(f), h)
    rhs = cs.integrate(f, cs.laplacian(h))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) <= 1e-10


def test_curved_laplacian_equals_scaled_flat_laplacian():
    """Dimension-two identity lap_g = exp(2u) * flat_lap, as a cross-check of
    the composed (divergence-of-gradient) implementation."""
    cs = random_structure(LatticeSpec.unit_square(64), 12)
    rng = np.random.default_rng(13)
    f = bandlimited_field(cs.lattice, rng)
    composed = cs.laplacian(f).values
    direct = cs.e2u.values * flat_laplacian(f).values
    scale = max(1.0, np.max(np.abs(direct)))
    assert np.max(np.abs(composed - direct)) / scale <= 1e-10


def test_curved_operators_reject_lattice_mismatch():
    cs = random_structure(LatticeSpec.unit_square(32), 14)
    other = ScalarField.from_constant(LatticeSpec.unit_square(16), 1.0)
    with pytest.raises(ValueError, match="mismatch"):
        cs.gradient(other)


### Frame connection

def test_flat_frame_is_parallel():
    lattice = LatticeSpec.unit_square(32)
    cs = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))
    conn = frame_connection(cs)
    assert conn.a.max_abs() == 0.0
    assert conn.b.max_abs() == 0.0
    assert conn.Z.comp1.max_abs() == 0.0
    assert conn.Z.comp2.max_abs() == 0.0


def covariant_derivative(cs, Y, X):
    """nabla_Y X in the curved metric via the conformal change-of-connection
    formula, term by term (test oracle).

    flat directional derivative + u-gradient corrections:
    nabla_Y X = flatD_Y X - Y(u) X - X(u) Y + g(Y, X) grad_g u.
    """
    du = flat_gradient(cs.u)

    def directional(W, f_field):
        return W.comp1 * spectral_derivative(f_field, 1) + W.comp2 * spectral_derivative(f_field, 2)

    flat_dYX = VectorFieldFlat(directional(Y, X.comp1), directional(Y, X.comp2))
    Y_u = dot(Y, du)
    X_u = dot(X, du)
    gYX = cs.em2u * dot(Y, X)
    grad_u = cs.gradient(cs.u)
    return flat_dYX - Y_u * X - X_u * Y + gYX * grad_u


def test_frame_coefficients_match_covariant_derivative_oracle():
    cs = random_structure(LatticeSpec.unit_square(64), 15)
    conn = frame_connection(cs)
    eu = cs.eu
    S = VectorFieldFlat(eu, ScalarField.from_constant(cs.lattice, 0.0))
    W = VectorFieldFlat(ScalarField.from_constant(cs.lattice, 0.0), eu)

    nabla_S_S = covariant_derivative(cs, S, S)
    nabla_W_S = covariant_derivative(cs, W, S)
    a_oracle = cs.em2u * dot(nabla_S_S, W)
    b_oracle = cs.em2u * dot(nabla_W_S, W)
    assert (conn.a - a_oracle).max_abs() <= 1e-10
    assert (conn.b - b_oracle).max_abs() <= 1e-10

    # Z assembled from the coefficients in the frame agrees with the stored
    # flat components, and equals -J grad_g(u).
    z1 = conn.a * eu
    z2 = conn.b * eu
    assert (conn.Z.comp1 - z1).max_abs() <= 1e-12
    assert (conn.Z.comp2 - z2).max_abs() <= 1e-12
    grad_u = cs.gradient(cs.u)
    assert (conn.Z.comp1 - grad_u.comp2).max_abs() <= 1e-12
    assert (conn.Z.comp2 + grad_u.comp1).max_abs() <= 1e-12


def test_exponent_of_one_variable_gives_striped_coefficients():
    lattice = LatticeSpec.unit_square(64)
    cs = structure_from(lattice, lambda x, y: 0.25 * np.sin(TWO_PI * x))
    conn = frame_connection(cs)
    # a = exp(u) d2(u) vanishes; b varies along the first axis only.
    assert conn.a.max_abs() <= 1e-12
    spread = conn.b.values - conn.b.values[:, :1]
    assert np.max(np.abs(spread)) <= 1e-12


def test_frame_divergence_identity():
    """div_g(Z) computed by the volume-weighted divergence agrees with the
    frame assembly S(a) + W(b); both vanish for conformal frames."""
    cs = random_structure(LatticeSpec.unit_square(64), 16)
    conn = frame_connection(cs)
    lhs = cs.divergence(conn.Z)
    rhs = cs.eu * (spectral_derivative(conn.a, 1) + spectral_derivative(conn.b, 2))
    assert (lhs - rhs).max_abs() <= 1e-10
    assert lhs.max_abs() <= 1e-9


### Section residuals

def test_parallel_field_has_zero_residuals():
    lattice = LatticeSpec.unit_square(32)
    cs = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))
    theta = AngleField(HomotopyClass(1, -1), ScalarField.from_constant(lattice, 0.0))
    pair = section_residual_pair(cs, theta)
    for comp in (pair.flat.comp1, pair.flat.comp2, pair.curved.comp1, pair.curved.comp2):
        assert comp.max_abs() <= 1e-12


def test_flat_residual_tangential_component_is_angle_laplacian():
    lattice = LatticeSpec.unit_square(64)
    cs = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))
    eps = 0.3
    lam1, lam2 = lattice.fractional_coords
    theta = AngleField(
        HomotopyClass(1, 0), ScalarField(lattice, eps * np.sin(TWO_PI * lam2))
    )
    pair = section_residual_pair(cs, theta)
    total = theta.total_samples()
    JV = VectorFieldFlat.from_arrays(lattice, -np.sin(total), np.cos(total))
    tangential = dot(pair.flat, JV).values
    expected = eps * TWO_PI**2 * np.sin(TWO_PI * lam2)
    assert np.max(np.abs(tangential - expected)) <= 1e-10


def test_flat_residual_matches_componentwise_laplacian_oracle():
    """Independent route: spectral Laplacians of the sampled components of
    (cos theta, sin theta), projected numerically."""
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 17)
    theta = random_angle(lattice, 18)
    pair = section_residual_pair(cs, theta)

    total = theta.total_samples()
    cos_f = ScalarField(lattice, np.cos(total))
    sin_f = ScalarField(lattice, np.sin(total))
    lap_c = flat_laplacian(cos_f)
    lap_s = flat_laplacian(sin_f)
    radial = lap_c * cos_f + lap_s * sin_f
    oracle1 = lap_c - radial * cos_f
    oracle2 = lap_s - radial * sin_f
    assert (pair.flat.comp1 - oracle1).max_abs() <= 1e-9
    assert (pair.flat.comp2 - oracle2).max_abs() <= 1e-9


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_residual_conformal_proportionality(seed):
    """flat residual = exp(-3u) * curved residual, pointwise."""
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, seed)
    theta = random_angle(lattice, seed + 100, m=1, n=seed % 2)
    pair = section_residual_pair(cs, theta)
    em3u = np.exp(-3.0 * cs.u.values)
    for flat_c, curved_c in ((pair.flat.comp1, pair.curved.comp1), (pair.flat.comp2, pair.curved.comp2)):
        assert np.max(np.abs(flat_c.values - em3u * curved_c.values)) <= 1e-8


def test_curved_residual_tangential_identity():
    """The curved residual paired with the rotated unit field equals
    lap_g(theta) minus the frame divergence assembled as S(a) + W(b)."""
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 23)
    theta = random_angle(lattice, 24)
    pair = section_residual_pair(cs, theta)

    total = theta.total_samples()
    JV_hat = VectorFieldFlat.from_arrays(
        lattice, -cs.eu.values * np.sin(total), cs.eu.values * np.cos(total)
    )
    lhs = (cs.em2u * dot(pair.curved, JV_hat)).values

    conn = frame_connection(cs)
    lap_g_theta = -cs.divergence(cs.e2u * theta.total_gradient())
    frame_div = cs.eu * (spectral_derivative(conn.a, 1) + spectral_derivative(conn.b, 2))
    rhs = (lap_g_theta - frame_div).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_flat_pairing_equals_divergence_difference():
    """Two-route identity for the flat tangential component:
    <residual, JV> = V(div JV) - JV(div V), all spectrally."""
    lattice = LatticeSpec.unit_square(64)
    cs = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))
    theta = random_angle(lattice, 25, m=0, n=1)
    pair = section_residual_pair(cs, theta)

    total = theta.total_samples()
    V = VectorFieldFlat.from_arrays(lattice, np.cos(total), np.sin(total))
    JV = VectorFieldFlat.from_arrays(lattice, -np.sin(total), np.cos(total))

    def directional(W, f):
        return W.comp1 * spectral_derivative(f, 1) + W.comp2 * spectral_derivative(f, 2)

    rhs = directional(V, flat_divergence(JV)) - directional(JV, flat_divergence(V))
    lhs = dot(pair.flat, JV)
    assert (lhs - rhs).max_abs() <= 1e-8


### Resolution diagnostics

def test_unresolved_exponent_warns():
    lattice = LatticeSpec.unit_square(64)
    rough = ScalarField.from_function(lattice, lambda x, y: 0.1 * np.sin(TWO_PI * 30 * x))
    with pytest.warns(ResolutionWarning):
        ConformalStructure.from_exponent(rough)
    with pytest.warns(ResolutionWarning):
        ConformalStructure.from_exponent(rough).kg


def test_smooth_exponent_does_not_warn():
    lattice = LatticeSpec.unit_square(64)
    smooth = ScalarField.from_function(lattice, lambda x, y: 0.3 * np.sin(TWO_PI * x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ConformalStructure.from_exponent(smooth)
        ConformalStructure.from_exponent(smooth).kg


def test_free_function_and_structure_curvature_agree():
    lattice = LatticeSpec.unit_square(64)
    u = ScalarField.from_function(lattice, lambda x, y: 0.2 * np.cos(TWO_PI * y))
    cs = ConformalStructure.from_exponent(u)
    np.testing.assert_array_equal(cs.kg.values, ConformalStructure(u).kg.values)


def test_curved_area_weighting():
    lattice = LatticeSpec.unit_square(64)
    cs = structure_from(lattice, lambda x, y: 0.2 * np.sin(TWO_PI * x))
    # area = integral of exp(-2u); oracle by direct quadrature of samples
    expected = float(np.mean(np.exp(-2 * cs.u.values)))
    assert cs.area() == pytest.approx(expected, rel=1e-14)


def test_zero_exponent_needs_no_normalization():
    """A constant exponent is already handled exactly: curvature is the zero
    array, so downstream right-hand sides vanish identically."""
    lattice = LatticeSpec.unit_square(32)
    cs = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.7))
    assert cs.kg.max_abs() == 0.0
    assert cs.kg_sq.max_abs() == 0.0
