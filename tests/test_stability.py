"""Second variation: nonnegativity, closed forms, second-difference oracle."""

from __future__ import annotations

import re

import numpy as np
import pytest

from torusfield.angles import AngleField, HomotopyClass
from torusfield.conformal import ConformalStructure, _Kernel
from torusfield.lattice import LatticeSpec, ScalarField, bandlimited_field
from torusfield.solver import solve_homotopy_class
from torusfield.stability import (
    HessianSample,
    NotCriticalError,
    critical_residual,
    hessian_form,
    hessian_vs_energy_check,
)

TWO_PI = 2.0 * np.pi
FOURTH_POWER_OF_2PI = 1558.5454565440389  # (2*pi)**4


@pytest.fixture
def flat64() -> ConformalStructure:
    lattice = LatticeSpec.unit_square(64)
    return ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))


@pytest.fixture
def solved_instance():
    """A converged critical field on a gently curved torus."""
    lattice = LatticeSpec.unit_square(64)
    cs = ConformalStructure.from_exponent(
        ScalarField.from_function(lattice, lambda x, y: 0.2 * np.sin(TWO_PI * x))
    )
    theta, _ = solve_homotopy_class(cs, HomotopyClass(1, 0))
    return cs, theta


def test_constants_are_null_directions(flat64):
    beta = ScalarField.from_constant(flat64.lattice, 5.0)
    assert hessian_form(flat64, beta) == 0.0


def test_single_mode_closed_form(flat64):
    lam1, _ = flat64.lattice.fractional_coords
    beta = ScalarField(flat64.lattice, np.sin(TWO_PI * lam1))
    assert hessian_form(flat64, beta) == pytest.approx(FOURTH_POWER_OF_2PI, rel=1e-12)


def test_form_is_nonnegative_for_random_directions():
    lattice = LatticeSpec.unit_square(64)
    rng = np.random.default_rng(1)
    cs = ConformalStructure.from_exponent(bandlimited_field(lattice, rng, band=3, amplitude=0.3))
    for _ in range(100):
        beta = bandlimited_field(lattice, rng, band=5)
        value = hessian_form(cs, beta)
        assert value >= -1e-14
        assert value > 0.0  # nonconstant directions are never null


def test_form_rejects_lattice_mismatch(flat64):
    beta = ScalarField.from_constant(LatticeSpec.unit_square(32), 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        hessian_form(flat64, beta)


def test_second_difference_matches_quadratic_form(solved_instance):
    cs, theta = solved_instance
    rng = np.random.default_rng(7)
    beta = bandlimited_field(cs.lattice, rng, band=3, amplitude=0.5)
    sample = hessian_vs_energy_check(cs, theta, beta, h=1e-3)
    assert isinstance(sample, HessianSample)
    assert sample.quadratic_value > 0.0
    assert sample.gap / sample.quadratic_value <= 1e-4


def test_halving_h_quarters_the_gap(solved_instance):
    cs, theta = solved_instance
    rng = np.random.default_rng(8)
    beta = bandlimited_field(cs.lattice, rng, band=3, amplitude=0.5)
    wide = hessian_vs_energy_check(cs, theta, beta, h=2e-3)
    narrow = hessian_vs_energy_check(cs, theta, beta, h=1e-3)
    assert 3.5 <= wide.gap / narrow.gap <= 4.5


def test_second_variation_is_taken_on_the_solvers_kernel(monkeypatch):
    # a transport term 1 % off: the solve and the criticality gate read the
    # same kernel, so the solved field passes the gate, but that kernel is no
    # longer the energy's Hessian, and the gap stops quartering with h
    def transport_off(self, spectrum):
        out = self.bilaplacian_spectrum(spectrum)
        for d in (self.d1, self.d2):
            out -= 0.99 * d * np.fft.rfft2(self.kg_sq * np.fft.irfft2(d * spectrum))
        return out

    monkeypatch.setattr(_Kernel, "apply_spectrum", transport_off)
    lattice = LatticeSpec.unit_square(16)
    cs = ConformalStructure.from_exponent(ScalarField.from_function(
        lattice, lambda x, y: 0.2 * np.sin(TWO_PI * x) + 0.1 * np.cos(TWO_PI * y)
    ))
    theta, _ = solve_homotopy_class(cs, HomotopyClass(1, 0))
    beta = bandlimited_field(lattice, np.random.default_rng(8), band=3, amplitude=0.5)
    wide = hessian_vs_energy_check(cs, theta, beta, h=2e-3)
    narrow = hessian_vs_energy_check(cs, theta, beta, h=1e-3)
    assert not 3.5 <= wide.gap / narrow.gap <= 4.5


def test_zero_direction_gives_zero_sample(solved_instance):
    cs, theta = solved_instance
    beta = ScalarField.from_constant(cs.lattice, 0.0)
    sample = hessian_vs_energy_check(cs, theta, beta)
    assert sample.quadratic_value == 0.0
    assert sample.second_difference == 0.0
    assert sample.gap == 0.0


def test_noncritical_base_point_is_refused(solved_instance):
    cs, _ = solved_instance
    rng = np.random.default_rng(9)
    wobble = bandlimited_field(cs.lattice, rng, band=3, amplitude=0.4)
    not_critical = AngleField(HomotopyClass(1, 0), wobble)
    beta = bandlimited_field(cs.lattice, rng, band=3)
    with pytest.raises(NotCriticalError):
        hessian_vs_energy_check(cs, not_critical, beta)


def test_a_refusal_states_the_bound_its_residual_exceeds(solved_instance):
    cs, _ = solved_instance
    wobble = bandlimited_field(cs.lattice, np.random.default_rng(9), band=3, amplitude=0.4)
    with pytest.raises(NotCriticalError) as refusal:
        critical_residual(cs, AngleField(HomotopyClass(1, 0), wobble))
    numbers = re.search(
        r"residual (\S+) above bound (\S+): 1e-06 of scale (\S+) plus ten times roundoff (\S+)\)",
        str(refusal.value),
    )
    residual, bound, scale, roundoff = (float(number) for number in numbers.groups())
    assert bound < residual
    assert bound == pytest.approx(1e-6 * scale + 10.0 * roundoff, rel=1e-3)


def test_fine_grid_solve_is_a_valid_base_point():
    # a converged solve moved along beta until its e^{2u}-weighted residual
    # sits halfway into the roundoff allowance above 1e-6 of the source scale:
    # the residual is affine in the move, so the step follows from P beta,
    # and the premise holds whatever roundoff the solve itself leaves
    lattice = LatticeSpec.unit_square(256)
    cs = ConformalStructure.from_exponent(ScalarField.from_function(
        lattice, lambda x, y: 0.2 * np.sin(TWO_PI * x) + 0.1 * np.cos(TWO_PI * y)
    ))
    theta, _ = solve_homotopy_class(cs, HomotopyClass(1, 0))
    kernel = cs.kernel
    source = kernel.source(theta.homotopy)
    _, scale = kernel.criticality(kernel.apply(theta.periodic.values), source, weighted=True)
    threshold = 1e-6 * max(1.0, scale)

    beta = bandlimited_field(lattice, np.random.default_rng(11), band=3)
    push = float(np.max(np.abs(cs.e2u.values * kernel.apply(beta.values))))
    base = theta.shifted(beta * ((threshold + 5.0 * kernel.roundoff(theta.periodic.max_abs())) / push))
    residual, _ = kernel.criticality(kernel.apply(base.periodic.values), source, weighted=True)
    assert threshold < residual < threshold + 10.0 * kernel.roundoff(base.periodic.max_abs())
    sample = hessian_vs_energy_check(cs, base, beta)
    assert sample.gap <= 1e-4 * sample.quadratic_value
    # the roundoff allowance is a small fraction of the scale: a field one
    # band-limited wobble away from the solve is still refused
    with pytest.raises(NotCriticalError):
        hessian_vs_energy_check(cs, theta.shifted(beta * 1e-3), beta)


def test_flat_parallel_field_is_a_valid_base_point(flat64):
    theta = AngleField(HomotopyClass(2, 1), ScalarField.from_constant(flat64.lattice, 0.0))
    rng = np.random.default_rng(10)
    beta = bandlimited_field(flat64.lattice, rng, band=4)
    sample = hessian_vs_energy_check(flat64, theta, beta, h=1e-3)
    assert sample.quadratic_value > 0.0
    assert sample.gap / sample.quadratic_value <= 1e-4
