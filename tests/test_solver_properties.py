"""Property test of the solves across winding classes: superposition.

The operator of the critical-point equation does not depend on the class,
and the source is affine in the winding numbers, so the periodic parts of
the solutions satisfy

    alpha(m, n) = alpha(0, 0) + m (alpha(1, 0) - alpha(0, 0)) + n (alpha(0, 1) - alpha(0, 0)).

Checked over random oblique lattices, even grids of 8 to 24 points per
side, band-limited exponents of amplitude at most 0.5 and classes in
{-2..2}^2, against a bound derived from the solve tolerance.  Each class is
a direct PCG solve of its own source: ``solve_homotopy_class`` builds every
class but the three basis ones from this identity, so it cannot test it; its
field must instead lie within the same bound of the direct solve.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from torusfield.angles import HomotopyClass, _constant_gradient
from torusfield.conformal import ConformalStructure, ResolutionWarning
from torusfield.energy import right_hand_side
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    _derivative_multiplier,
    _laplacian_multiplier,
    bandlimited_field,
    flat_gradient,
    rotate_J,
)
from torusfield.solver import (
    SolveOptions,
    _iteration_budget,
    _pcg,
    _project,
    solve_homotopy_class,
)

EPS = np.finfo(float).eps


@st.composite
def structures(draw) -> ConformalStructure:
    spread = st.floats(-0.4, 0.4)
    length = st.floats(0.5, 2.0)
    d1 = (draw(length), draw(spread))
    d2 = (draw(spread), draw(length))
    n1, n2 = (2 * draw(st.integers(4, 12)) for _ in range(2))
    lattice = LatticeSpec(d1, d2, n1, n2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the amplitude is bounded away from 0: hypothesis favours the ends of a
    # range and tiny floats, and from 0.0 it drew amplitudes below 1e-12, that
    # is flat metrics, in 19 of the 100 examples of this property; the flat case
    # is an explicit example
    u = bandlimited_field(lattice, rng, band=draw(st.integers(1, 3)), amplitude=draw(st.floats(0.05, 0.5)))
    with warnings.catch_warnings():
        # coarse grids flag exponents that are resolved only to ~1e-6
        warnings.simplefilter("ignore")
        return ConformalStructure.from_exponent(u)


def flat() -> ConformalStructure:
    """The flat metric, ``u = 0``."""
    lattice = LatticeSpec((1.0, 0.1), (0.3, 1.2), 12, 10)
    return ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))


def _error_bound(cs: ConformalStructure, cls: HomotopyClass, tolerance: float) -> float:
    """Bound on the 2-norm distance from the solve of ``cls`` to the exact
    solution of the exact source, times the smallest eigenvalue of P.

    PCG stops once ``|b - P alpha| <= tolerance |b|``; the assembly of
    ``b = flat_div(k_g^2 v)`` adds up to ~``eps kmax |k_g^2 v|`` of roundoff.
    """
    lattice = cs.lattice
    b = right_hand_side(cs, cls, "flat_weighted").values
    Y0 = _constant_gradient(cls, lattice)
    v = -rotate_J(flat_gradient(cs.u))
    flux = np.hypot(cs.kg_sq.values * (Y0[0] + v.comp1.values), cs.kg_sq.values * (Y0[1] + v.comp2.values))
    kmax = max(float(np.max(np.abs(_derivative_multiplier(lattice, d)))) for d in (1, 2))
    return tolerance * np.linalg.norm(b - np.mean(b)) + 100.0 * EPS * kmax * np.linalg.norm(flux)


def _direct_solve(cs: ConformalStructure, cls: HomotopyClass, tolerance: float) -> np.ndarray:
    kernel = cs.kernel
    source = right_hand_side(cs, cls, "flat_weighted").values
    x, _, _ = _pcg(kernel, kernel.precondition_spectrum, source, tolerance, _iteration_budget(cs.lattice))
    return _project(x)


@given(structures(), st.integers(-2, 2), st.integers(-2, 2))
@example(flat(), 1, -1)
def test_every_class_is_the_affine_combination_of_three(cs, m, n):
    tolerance = SolveOptions().tolerance
    classes = [HomotopyClass(0, 0), HomotopyClass(1, 0), HomotopyClass(0, 1), HomotopyClass(m, n)]
    weights = [1 - m - n, m, n, 1]
    alphas = [_direct_solve(cs, cls, tolerance) for cls in classes]
    combination = weights[0] * alphas[0] + weights[1] * alphas[1] + weights[2] * alphas[2]
    gap = float(np.max(np.abs(alphas[3] - combination)))
    with warnings.catch_warnings():
        # the report's energy flags angles resolved only to ~1e-6 on coarse grids
        warnings.simplefilter("ignore", ResolutionWarning)
        solved = solve_homotopy_class(cs, classes[3])[0].periodic.values

    # P is symmetric positive definite on the mean-zero fields off the
    # Nyquist lines, where every solve lives, with smallest eigenvalue at
    # least min(e^{2u}) lap_min^2; the max-norm is at most the 2-norm
    lap = _laplacian_multiplier(cs.lattice)
    smallest = float(np.min(cs.e2u.values)) * float(np.min(lap[lap > 0.0])) ** 2
    bound = sum(abs(w) * _error_bound(cs, cls, tolerance) for w, cls in zip(weights, classes)) / smallest
    bound += 10.0 * EPS * sum(abs(w) * float(np.max(np.abs(a))) for w, a in zip(weights, alphas))
    assert gap <= bound
    assert float(np.max(np.abs(solved - alphas[3]))) <= bound
