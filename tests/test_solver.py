"""Solver: operator properties, solves per winding class, rigidity, descent.

The linear solve is cross-checked against closed-form flat cases, against
an energy-descent minimizer that never forms the operator equation, and
across its two assemblies of the same PDE.  The minimizer and the
first-variation check are the reference routes of ``oracles.py``.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from torusfield import angles, energy
from torusfield.angles import AngleField, HomotopyClass, angle_to_unit_field, winding_class
from torusfield.conformal import ConformalStructure, ResolutionWarning
from torusfield.energy import bienergy, el_residual, right_hand_side
from torusfield.io import RunConfig, realize, report_document
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    bandlimited_field,
    flat_laplacian,
    integrate_inner,
)
from torusfield.solver import (
    ConvergenceError,
    SolveOptions,
    _BASIS,
    _STAGNATION_WINDOW,
    _Kernel,
    _iteration_budget,
    _pcg,
    _project,
    _source_spectrum,
    apply_operator_P,
    section_rigidity_check,
    solve_homotopy_class,
)
from torusfield.stability import hessian_vs_energy_check

from oracles import descent_oracle, directional_derivative_check

TWO_PI = 2.0 * np.pi
FOURTH_POWER_OF_2PI = 1558.5454565440389  # (2*pi)**4


def structure_from(lattice: LatticeSpec, fn) -> ConformalStructure:
    return ConformalStructure.from_exponent(ScalarField.from_function(lattice, fn))


def random_structure(lattice: LatticeSpec, seed: int) -> ConformalStructure:
    rng = np.random.default_rng(seed)
    return ConformalStructure.from_exponent(bandlimited_field(lattice, rng, band=3, amplitude=0.3))


@pytest.fixture
def flat64() -> ConformalStructure:
    lattice = LatticeSpec.unit_square(64)
    return ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))


@pytest.fixture
def wavy64() -> ConformalStructure:
    return structure_from(LatticeSpec.unit_square(64), lambda x, y: 0.2 * np.sin(TWO_PI * x))


### Options validation

def test_options_validate_ranges():
    with pytest.raises(ValueError, match="tolerance"):
        SolveOptions(tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        SolveOptions(tolerance=1.5)
    with pytest.raises(ValueError, match="formulation"):
        SolveOptions(formulation="weak")


### Operator properties

def test_operator_kills_constants(wavy64):
    const = ScalarField.from_constant(wavy64.lattice, 3.7)
    assert apply_operator_P(wavy64, const, "flat_weighted").max_abs() <= 1e-12
    assert apply_operator_P(wavy64, const, "curved").max_abs() <= 1e-10


def test_operator_is_biharmonic_on_flat_square(flat64):
    lam1, _ = flat64.lattice.fractional_coords
    h = ScalarField(flat64.lattice, np.sin(TWO_PI * lam1))
    for formulation in ("curved", "flat_weighted"):
        out = apply_operator_P(flat64, h, formulation)
        expected = FOURTH_POWER_OF_2PI * h.values
        # noise floor: spectral roundoff amplified by |k|^4 at the highest
        # resolved mode, ~(pi*n)^4 * eps ~ 2e-7 at n=64
        assert np.max(np.abs(out.values - expected)) <= 1e-9 * FOURTH_POWER_OF_2PI


@pytest.mark.parametrize("seed", range(10))
def test_operator_symmetry(seed):
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, seed)
    rng = np.random.default_rng(seed + 1000)
    h1 = bandlimited_field(lattice, rng, band=5)
    h2 = bandlimited_field(lattice, rng, band=5)

    flat_lhs = integrate_inner(apply_operator_P(cs, h1, "flat_weighted"), h2)
    flat_rhs = integrate_inner(h1, apply_operator_P(cs, h2, "flat_weighted"))
    assert abs(flat_lhs - flat_rhs) <= 1e-9 * max(abs(flat_lhs), abs(flat_rhs))

    curved_lhs = cs.integrate(apply_operator_P(cs, h1, "curved"), h2)
    curved_rhs = cs.integrate(h1, apply_operator_P(cs, h2, "curved"))
    assert abs(curved_lhs - curved_rhs) <= 1e-9 * max(abs(curved_lhs), abs(curved_rhs))


def test_operator_positive_semidefinite_with_constant_kernel():
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 77)
    rng = np.random.default_rng(78)
    for _ in range(50):
        h = bandlimited_field(lattice, rng, band=5)
        quad = integrate_inner(apply_operator_P(cs, h, "flat_weighted"), h)
        assert quad > 0.0
    const = ScalarField.from_constant(lattice, 1.3)
    quad = integrate_inner(apply_operator_P(cs, const, "flat_weighted"), const)
    assert abs(quad) <= 1e-10


def test_operator_formulations_differ_by_conformal_factor():
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 80)
    rng = np.random.default_rng(81)
    h = bandlimited_field(lattice, rng, band=4)
    curved = apply_operator_P(cs, h, "curved")
    flat = apply_operator_P(cs, h, "flat_weighted")
    scale = max(1.0, curved.max_abs())
    assert (curved - cs.e2u * flat).max_abs() <= 1e-8 * scale


def test_operator_rejects_unknown_formulation(flat64):
    h = ScalarField.from_constant(flat64.lattice, 0.0)
    with pytest.raises(ValueError, match="formulation"):
        apply_operator_P(flat64, h, "weak")


### Solving

def test_flat_metric_solves_to_linear_representative(flat64):
    theta, report = solve_homotopy_class(flat64, HomotopyClass(2, -1))
    assert theta.periodic.max_abs() == 0.0
    assert report.iterations == 0
    assert report.final_relative_residual == 0.0
    assert report.energy.bienergy == 0.0
    assert report.homotopy_class == HomotopyClass(2, -1)


def test_constant_exponent_is_treated_as_flat():
    lattice = LatticeSpec.unit_square(32)
    cs = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.4))
    theta, report = solve_homotopy_class(cs, HomotopyClass(1, 0))
    assert theta.periodic.max_abs() == 0.0
    assert report.iterations == 0


@pytest.mark.parametrize("lattice, grid", [("unit-square", "20x14"), ("1,0;0.5,1.5", "30x42")])
@pytest.mark.parametrize("u", ["0.4", "12"])
def test_constant_exponent_carries_no_energy_on_any_grid(lattice, grid, u):
    # off powers of two the rfft2 of a constant leaves roundoff off the
    # mean, which e^{2u} would amplify into curvature, energy and residual
    cs, cls, opts = realize(RunConfig(lattice=lattice, grid=grid, u=u, winding=(2, -1)))
    theta, report = solve_homotopy_class(cs, cls, opts)
    assert theta.periodic.max_abs() == 0.0
    assert report.iterations == 0
    assert report.energy.bienergy == 0.0
    assert report.el_residual_maxnorm == 0.0


def test_solve_converges_and_beats_linear_representative(wavy64):
    cls = HomotopyClass(1, 0)
    theta, report = solve_homotopy_class(wavy64, cls)
    assert report.final_relative_residual <= 1e-10
    assert report.iterations > 0
    assert report.wall_time >= 0.0
    linear = AngleField(cls, ScalarField.from_constant(wavy64.lattice, 0.0))
    assert report.energy.bienergy <= bienergy(wavy64, linear).bienergy
    assert theta.periodic.mean() == pytest.approx(0.0, abs=1e-14)


def test_solved_residual_is_small_in_scaled_maxnorm(wavy64):
    opts = SolveOptions(tolerance=1e-10, formulation="curved")
    _, report = solve_homotopy_class(wavy64, HomotopyClass(1, 0), opts)
    rhs_scale = right_hand_side(wavy64, HomotopyClass(1, 0), "curved").max_abs()
    assert report.el_residual_maxnorm <= 10.0 * opts.tolerance * rhs_scale


@pytest.mark.parametrize("cls", [HomotopyClass(1, 0), HomotopyClass(-1, 2)])
def test_formulations_agree_on_the_solved_field(cls):
    # one flat-weighted solve serves both formulations, and the independent
    # curved oracle must see that single field as critical to the same
    # scaled bound the curved residual meets in the test above
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 90)
    opts = SolveOptions(formulation="curved")
    curved, curved_report = solve_homotopy_class(cs, cls, opts)
    flat, flat_report = solve_homotopy_class(cs, cls, SolveOptions(formulation="flat_weighted"))
    assert np.array_equal(curved.periodic.values, flat.periodic.values)
    Vc = angle_to_unit_field(curved)
    Vf = angle_to_unit_field(flat)
    assert (Vc.comp1 - Vf.comp1).max_abs() <= 1e-6
    assert (Vc.comp2 - Vf.comp2).max_abs() <= 1e-6
    flat_residual = el_residual(cs, flat, "flat_weighted")
    for formulation, report, weighted in (
        ("curved", curved_report, cs.e2u * flat_residual),
        ("flat_weighted", flat_report, flat_residual),
    ):
        assert report.el_residual_maxnorm == weighted.max_abs()
        source_scale = right_hand_side(cs, cls, formulation).max_abs()
        residual = el_residual(cs, flat, formulation).max_abs()
        assert residual <= 10.0 * opts.tolerance * source_scale


def test_solutions_are_critical_points(wavy64):
    theta, _ = solve_homotopy_class(wavy64, HomotopyClass(1, 1))
    rng = np.random.default_rng(95)
    for _ in range(3):
        beta = bandlimited_field(wavy64.lattice, rng, band=3, amplitude=0.5)
        pair = directional_derivative_check(wavy64, theta, beta, h=1e-4)
        assert abs(pair.analytic) <= 1e-6
        assert abs(pair.numeric) <= 1e-6


def test_solved_fields_keep_their_winding_class():
    lattice = LatticeSpec.unit_square(64)
    cs = random_structure(lattice, 96)
    for cls in [HomotopyClass(0, 0), HomotopyClass(1, 0), HomotopyClass(-2, 1)]:
        theta, _ = solve_homotopy_class(cs, cls)
        assert winding_class(angle_to_unit_field(theta)) == cls


def _zero_mean(spectrum: np.ndarray) -> np.ndarray:
    """The identity preconditioner on the mean-zero half spectra of ``_pcg``."""
    out = spectrum.copy()
    out[0, 0] = 0.0
    return out


def test_unpreconditioned_solve_matches_preconditioned():
    lattice = LatticeSpec.unit_square(16)
    cs = structure_from(lattice, lambda x, y: 0.1 * np.sin(TWO_PI * x))
    cls = HomotopyClass(1, 0)
    fast, _ = solve_homotopy_class(cs, cls, SolveOptions(formulation="flat_weighted"))
    source = right_hand_side(cs, cls, "flat_weighted").values
    slow, history, _ = _pcg(
        _Kernel(cs), _zero_mean, source, SolveOptions().tolerance, _iteration_budget(lattice)
    )
    assert np.max(np.abs(fast.periodic.values - _project(slow))) <= 1e-8
    assert len(history) - 1 > 0


def test_nonconvergence_raises_with_history(wavy64):
    kernel = _Kernel(wavy64)
    source = right_hand_side(wavy64, HomotopyClass(1, 0), "flat_weighted").values
    with pytest.raises(ConvergenceError) as excinfo:
        _pcg(kernel, kernel.precondition_spectrum, source, 1e-10, 2)
    history = excinfo.value.residual_history
    assert len(history) == 3
    assert history[0] == 1.0


@pytest.mark.parametrize("grid, u", [("16", "50*sin(2pi*x)"), ("64", "170*sin(2pi*x)")])
def test_non_finite_residual_stops_the_solve_at_once(grid, u):
    # at 16^2 the source is finite (|b| ~ 1e96) and iteration 1's residual is
    # NaN; at 64^2 the source's norm overflows, so the start's residual is
    with np.errstate(all="ignore"):
        cs, cls, opts = realize(RunConfig(grid=grid, u=u, winding=(1, 0)))
        with pytest.raises(ConvergenceError, match="not finite at iteration") as excinfo:
            solve_homotopy_class(cs, cls, opts)
    assert len(excinfo.value.residual_history) <= 2


def test_tolerance_below_roundoff_stagnates():
    cs, cls, _ = realize(RunConfig(grid="16", u="0.3*sin(2pi*x)", winding=(1, 0)))
    source = right_hand_side(cs, cls, "flat_weighted").values
    budget = _iteration_budget(cs.lattice)
    with pytest.raises(ConvergenceError, match="stagnated at best relative residual") as excinfo:
        _pcg(_Kernel(cs), _zero_mean, source, 1e-30, budget)
    history = np.array(excinfo.value.residual_history)
    # stopped within two windows of its best, long before the budget
    assert history.min() <= 1e-15
    assert len(history) - 1 - int(np.argmin(history)) <= 2 * _STAGNATION_WINDOW


#: a single-eigenvalue exponent of one variable: the trivial class's source
#: vanishes identically, the other classes' sources do not
ZERO_SOURCE_U = "0.3*cos(2pi*x)"


@pytest.mark.parametrize("grid, u", [("8", ZERO_SOURCE_U), ("128", ZERO_SOURCE_U)])
def test_vanishing_source_returns_the_representative(grid, u):
    # on these grids the trivial class's source assembles to exactly zero,
    # on which PCG returns zero without iterating
    cs, cls, _ = realize(RunConfig(grid=grid, u=u, winding=(0, 0)))
    theta, report = solve_homotopy_class(cs, cls)
    assert report.iterations == 0
    assert theta.periodic.max_abs() == 0.0


@pytest.mark.parametrize("shear", [2.2250738585e-313, 1.1327630954127737e-202])
def test_a_source_of_roundoff_whose_norm_underflows_returns_zero(shear):
    # an exponent of lambda1 alone gives the trivial class a source that is
    # zero but for the roundoff of the shear, under 1e-200, so its squared
    # norm underflows: that is a zero source, not an underflowed one
    lattice = LatticeSpec((1.0, 0.0), (shear, 1.0), 8, 8)
    lam1, _ = lattice.fractional_coords
    u = 0.5 * np.sin(TWO_PI * lam1) + 0.5 * np.cos(TWO_PI * lam1)
    cs = ConformalStructure.from_exponent(ScalarField(lattice, u))
    source = cs.kernel.source(HomotopyClass(0, 0))
    assert 0.0 < np.max(np.abs(source)) <= cs.kernel.source_roundoff()
    assert _source_spectrum(cs.kernel, source)[1] == 0.0
    theta, report = solve_homotopy_class(cs, HomotopyClass(0, 0))
    assert report.iterations == 0 and report.final_relative_residual == 0.0
    assert theta.periodic.max_abs() == 0.0


def _direct_pcg(cs: ConformalStructure, cls: HomotopyClass, tolerance: float) -> np.ndarray:
    source = right_hand_side(cs, cls, "flat_weighted").values
    kernel = cs.kernel
    x, _, _ = _pcg(kernel, kernel.precondition_spectrum, source, tolerance, _iteration_budget(cs.lattice))
    return _project(x)


@pytest.mark.parametrize(
    "grid, u",
    [
        ("48x40", ZERO_SOURCE_U),
        ("64", "0.2*sin(2pi*x)+0.1*cos(2pi*y)"),
        ("256", "0.2*sin(2pi*x)+0.1*cos(2pi*y)"),
    ],
)
def test_resolved_vanishing_source_is_solved_to_roundoff(grid, u):
    # single-eigenvalue exponents: the trivial class's source vanishes
    # analytically and its assembly holds only roundoff, which the one PCG
    # path solves to an angle at roundoff (the report's energy raises no
    # ResolutionWarning on it)
    cs, cls, opts = realize(RunConfig(grid=grid, u=u, winding=(0, 0)))
    theta, report = solve_homotopy_class(cs, cls, opts)
    assert report.final_relative_residual <= opts.tolerance
    alpha = theta.periodic
    assert alpha.max_abs() <= np.finfo(float).eps * np.log2(alpha.values.size)


@pytest.mark.parametrize(
    "grid, u",
    [
        ("24", "0.4*sin(2pi*x)+0.2*cos(2pi*y)"),
        ("24", "0.6*sin(2pi*x)+0.6*cos(2pi*y)"),
        ("32", "1.2*sin(2pi*x)+0.6*cos(2pi*y)"),
        ("128", "0.3*sin(2pi*(3*x+4*y))+0.3*cos(2pi*(5*y))"),
    ],
)
def test_aliased_vanishing_source_takes_the_one_solve_path(grid, u):
    # the same vanishing source, lifted by aliasing to 1e-9..1e-6 of its
    # inputs: the solve is PCG on the assembled source like any other, and
    # its under-resolved angle (up to 2e-8) warns, at the solve's caller
    cs, cls, opts = realize(RunConfig(grid=grid, u=u, winding=(0, 0)))
    with pytest.warns(ResolutionWarning) as warned:
        theta, report = solve_homotopy_class(cs, cls, opts)
    assert {w.filename for w in warned} == {__file__}
    assert report.final_relative_residual <= opts.tolerance
    assert np.array_equal(theta.periodic.values, _direct_pcg(cs, cls, opts.tolerance))


@pytest.mark.parametrize(
    "grid, u",
    [
        ("64", "0.3*cos(2pi*x)+1e-06*sin(2pi*(x+y))"),
        ("256", "0.3*cos(2pi*x)+1e-05*sin(2pi*(x+y))"),
        ("512", "0.3*cos(2pi*x)+0.0001*sin(2pi*(x+2*y))"),
    ],
)
def test_small_trivial_class_source_is_not_zeroed(grid, u):
    # a weak second mode gives the trivial class a small real source (5e-5,
    # 5e-4 and 4e-2 of the flux): it is solved, not taken for roundoff
    cs, cls, opts = realize(RunConfig(grid=grid, u=u, winding=(0, 0)))
    theta, report = solve_homotopy_class(cs, cls, opts)
    assert report.iterations >= 1
    alpha = theta.periodic.values
    reference = _direct_pcg(cs, cls, 1e-12)
    assert np.max(np.abs(alpha - reference)) <= 1e-10 * np.max(np.abs(alpha))


def test_solutions_are_affine_in_the_class_at_a_fine_grid():
    # the source is affine in (m, n) and the operator does not depend on it;
    # direct solves of each class's own source, since the solver builds
    # (1, 1) from the other three
    cs, _, opts = realize(RunConfig(grid="256", u="0.3*cos(2pi*x)+1e-05*sin(2pi*(x+y))"))
    alpha = {
        (m, n): _direct_pcg(cs, HomotopyClass(m, n), opts.tolerance)
        for m, n in [(0, 0), (1, 0), (0, 1), (1, 1)]
    }
    gap = np.max(np.abs(alpha[1, 1] - alpha[1, 0] - alpha[0, 1] + alpha[0, 0]))
    assert gap <= 1e-10 * np.max(np.abs(alpha[1, 0]))


@pytest.mark.parametrize("grid", ["8", "48x40", "128"])
@pytest.mark.filterwarnings("ignore:angle field is spectrally under-resolved")
def test_nontrivial_class_on_a_zero_source_structure_is_solved(grid):
    # the same structures as the trivial class above, whose source vanishes:
    # class (1, 0)'s does not (8^2 under-resolves the field, which warns)
    cs, cls, opts = realize(RunConfig(grid=grid, u=ZERO_SOURCE_U, winding=(1, 0)))
    theta, report = solve_homotopy_class(cs, cls, opts)
    assert report.iterations >= 1
    assert report.final_relative_residual <= opts.tolerance
    assert theta.periodic.max_abs() > 0.0


@pytest.mark.parametrize("amplitude", [1e-6, 1e-9])
def test_weak_exponent_is_solved_not_taken_for_a_vanishing_source(amplitude):
    # class (1, 0)'s source scales like a^2 and the operator tends to the
    # flat bilaplacian as the amplitude a -> 0, so alpha / a^2 has a limit
    # that a solve at a / 1000 reproduces to O(a)
    def scaled(a: float) -> np.ndarray:
        u = f"{a!r}*sin(2pi*x)+{a!r}*cos(2pi*(x+y))"
        cs, cls, opts = realize(RunConfig(grid="32", u=u, winding=(1, 0)))
        theta, report = solve_homotopy_class(cs, cls, opts)
        assert report.iterations >= 1
        assert report.final_relative_residual <= opts.tolerance
        return theta.periodic.values / a**2

    limit = scaled(amplitude / 1000.0)
    assert np.max(np.abs(scaled(amplitude) - limit)) <= 1000.0 * amplitude * np.max(np.abs(limit))


### Every class from three basis solves

STANDARD_U = "0.2*sin(2pi*x)+0.1*cos(2pi*y)"
ALL_CLASSES = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(grid="64", u=STANDARD_U),
        RunConfig(grid="64", lattice="1,0;0.5,1.5", u="0.4*sin(2pi*x)+0.2*cos(2pi*y)"),
    ],
    ids=["standard", "strong-oblique"],
)
def test_every_class_matches_its_direct_solve(config):
    # the basis classes are their own PCG solve, bit for bit; every other
    # class is a combination of them, within 1e-10 of the direct solve
    cs, _, opts = realize(config)
    for m, n in ALL_CLASSES:
        cls = HomotopyClass(m, n)
        theta, report = solve_homotopy_class(cs, cls, opts)
        assert report.final_relative_residual <= opts.tolerance
        direct = _direct_pcg(cs, cls, opts.tolerance)
        if cls in _BASIS:
            assert np.array_equal(theta.periodic.values, direct)
        else:
            assert np.max(np.abs(theta.periodic.values - direct)) <= 1e-10


def test_basis_classes_report_their_own_solve():
    cs, _, opts = realize(RunConfig(grid="32", u=STANDARD_U))
    kernel = cs.kernel
    for cls in _BASIS:
        theta, report = solve_homotopy_class(cs, cls, opts)
        source = right_hand_side(cs, cls, "flat_weighted").values
        x, history, _ = _pcg(
            kernel, kernel.precondition_spectrum, source, opts.tolerance, _iteration_budget(cs.lattice)
        )
        assert np.array_equal(theta.periodic.values, _project(x))
        assert report.residual_history == tuple(history)
        assert report.final_relative_residual == history[-1]


def test_results_do_not_depend_on_the_order_of_the_classes():
    # two fresh copies of one structure, the classes in two orders: whatever
    # is cached when a class is asked for, it gets the same field and report
    config = RunConfig(grid="32", u=STANDARD_U)
    orders = [ALL_CLASSES, [(0, 1), (1, 0)] + [k for k in ALL_CLASSES[::-1] if k not in [(0, 1), (1, 0)]]]
    runs = []
    for order in orders:
        cs, _, opts = realize(config)
        runs.append({klass: solve_homotopy_class(cs, HomotopyClass(*klass), opts) for klass in order})
    for klass in ALL_CLASSES:
        (theta_a, report_a), (theta_b, report_b) = runs[0][klass], runs[1][klass]
        assert np.array_equal(theta_a.periodic.values, theta_b.periodic.values)
        echo = replace(config, winding=klass)
        assert report_document(echo, report_a) == report_document(echo, report_b)
        assert report_a.residual_history == report_b.residual_history
        assert len(report_a.residual_history) == report_a.iterations + 1


def test_classes_in_either_order_reuse_the_work_arrays_without_a_trace():
    # each call lends its ops a fresh set of work arrays, which may reuse the
    # memory an earlier call's set left behind: a class gets the same bits in
    # either order
    config = RunConfig(lattice="1,0;0.5,1.5", grid="48x32", u="0.4*sin(2pi*x)+0.2*cos(2pi*y)")
    classes = [HomotopyClass(1, 1), HomotopyClass(-2, 2), HomotopyClass(1, 0)]
    runs = []
    for order in (classes, classes[::-1]):
        cs, _, opts = realize(config)
        runs.append({klass: solve_homotopy_class(cs, klass, opts) for klass in order})
    for klass in classes:
        (theta_a, report_a), (theta_b, report_b) = runs[0][klass], runs[1][klass]
        assert np.array_equal(theta_a.periodic.values, theta_b.periodic.values)
        assert report_a._replace(wall_time=0.0) == report_b._replace(wall_time=0.0)


@pytest.fixture(scope="module")
def standard256() -> ConformalStructure:
    return realize(RunConfig(grid="256", u=STANDARD_U))[0]


def test_kernel_ops_on_work_arrays_allocate_only_what_they_return(standard256):
    # traced at 256^2, where a grid-sized array is 0.5 MB; an inverse runs its
    # first pass in place, so it allocates only the real field it returns (the
    # preconditioner and the bilaplacian keep theirs for their second half), and
    # a real multiplier casts to complex through NumPy's buffer
    kernel = standard256.kernel
    spectrum = np.fft.rfft2(np.random.default_rng(0).standard_normal(standard256.lattice.shape))
    fields = kernel.derivatives(spectrum)
    half, real = spectrum.nbytes, fields[0].nbytes
    ops = [
        (kernel.derivatives, (spectrum,), 3 * real),
        (kernel.finish, fields, half),
        (kernel.precondition_spectrum, (spectrum,), half + real),
        (kernel.bilaplacian_spectrum, (spectrum,), half + real),
        (kernel.inner, (spectrum, spectrum), 0),
    ]
    allowance = 16 * np.getbufsize() + 16 * 1024  # the cast buffer and Python objects
    with kernel.working():
        tracemalloc.start()
        try:
            for op, args, returned in ops:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                op(*args)
                assert tracemalloc.get_traced_memory()[1] - before <= returned + allowance, op.__name__
        finally:
            tracemalloc.stop()


def test_the_flat_source_allocates_only_its_result_and_its_field(standard256):
    # the flux is formed on the kernel's work arrays: what is left is the
    # irfft2 result and the ScalarField's copy of it, 0.5 MB each at 256^2
    real = np.empty(standard256.lattice.shape).nbytes
    allowance = 16 * np.getbufsize() + 16 * 1024  # as for the kernel ops above
    right_hand_side(standard256, HomotopyClass(1, 1), "flat_weighted")  # J grad u, cached
    with standard256.kernel.working():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            right_hand_side(standard256, HomotopyClass(1, 1), "flat_weighted")
            assert tracemalloc.get_traced_memory()[1] - before <= 2 * real + allowance
        finally:
            tracemalloc.stop()


def test_a_solve_releases_its_work_arrays(monkeypatch, standard256):
    kernel = standard256.kernel
    lent = []
    finish = kernel.finish

    def spy(*fields):
        lent.extend(weakref.ref(array) for array in kernel.work)
        return finish(*fields)

    monkeypatch.setattr(kernel, "finish", spy)
    solve_homotopy_class(standard256, HomotopyClass(1, 1))
    gc.collect()
    assert lent and kernel.work is None
    assert all(ref() is None for ref in lent)

def test_the_basis_dies_with_its_structure():
    cs, cls, opts = realize(RunConfig(grid="16", u=STANDARD_U, winding=(1, 1)))
    solve_homotopy_class(cs, cls, opts)
    assert set(cs.kernel.bases[opts.tolerance]) == set(_BASIS)
    probe = weakref.ref(cs)
    del cs
    gc.collect()
    assert probe() is None


def test_a_combination_that_misses_the_tolerance_is_polished():
    # forced: basis solves made at 1e-6 are filed under 1e-10, so the
    # combination's residual is far above the tolerance, and PCG continues
    # from the combination to it
    cs = random_structure(LatticeSpec.unit_square(64), 5)
    loose = SolveOptions(tolerance=1e-6)
    for cls in _BASIS:
        solve_homotopy_class(cs, cls, loose)
    cs.kernel.bases[1e-10] = dict(cs.kernel.bases[loose.tolerance])
    basis_iterations = sum(len(history) - 1 for _, _, history in cs.kernel.bases[1e-10].values())
    cls = HomotopyClass(2, 1)
    theta, report = solve_homotopy_class(cs, cls, SolveOptions(tolerance=1e-10))
    assert report.iterations > basis_iterations
    assert report.final_relative_residual <= 1e-10
    assert report.residual_history[-1] == report.final_relative_residual
    assert len(report.residual_history) == report.iterations + 1
    reference = _direct_pcg(cs, cls, 1e-10)
    assert np.max(np.abs(theta.periodic.values - reference)) <= 1e-10


### Conditioning and in-memory diagnostics

def test_large_exponent_converges_within_budget():
    # the standard exponent times six: e^{2u} spans a factor of ~1e3
    cs, cls, _ = realize(RunConfig(grid="64", u="1.2*sin(2pi*x)+0.6*cos(2pi*y)", winding=(1, 0)))
    _, report = solve_homotopy_class(cs, cls)
    assert report.final_relative_residual <= 1e-10
    assert report.iterations <= 300


def test_strong_oblique_case_converges_quickly():
    cs, cls, _ = realize(
        RunConfig(grid="64", lattice="1,0;0.5,1.5", u="0.4*sin(2pi*x)+0.2*cos(2pi*y)", winding=(1, 0))
    )
    _, report = solve_homotopy_class(cs, cls)
    assert report.final_relative_residual <= 1e-10
    assert report.iterations <= 64


@pytest.mark.parametrize("formulation", ["curved", "flat_weighted"])
def test_report_carries_history_and_relative_residual(wavy64, formulation):
    cls = HomotopyClass(1, 0)
    theta, report = solve_homotopy_class(wavy64, cls, SolveOptions(formulation=formulation))
    history = report.residual_history
    assert len(history) == report.iterations + 1
    assert history[0] == 1.0
    assert history[-1] == report.final_relative_residual
    # the report weights the flat residual and source by e^{2u} for "curved"
    residual = el_residual(wavy64, theta, "flat_weighted")
    source = right_hand_side(wavy64, cls, "flat_weighted")
    if formulation == "curved":
        residual, source = wavy64.e2u * residual, wavy64.e2u * source
    assert report.el_residual_maxnorm == residual.max_abs()
    assert report.el_residual_relative == report.el_residual_maxnorm / source.max_abs()
    assert report.el_residual_relative <= 10.0 * 1e-10
    # and the independent assembly of the same formulation agrees
    oracle = el_residual(wavy64, theta, formulation).max_abs()
    assert oracle <= 10.0 * 1e-10 * right_hand_side(wavy64, cls, formulation).max_abs()


@pytest.mark.parametrize("formulation", ["curved", "flat_weighted"])
@pytest.mark.parametrize("amplitude", [1e-6, 1e-9])
def test_weak_exponent_reports_a_small_relative_residual(formulation, amplitude):
    # the curved assembly's roundoff in the identically vanishing
    # lap_g div_g Z is far above a source of size a^2; the flat one is not
    u = f"{amplitude!r}*sin(2pi*x)+{amplitude!r}*cos(2pi*(x+y))"
    cs, cls, opts = realize(RunConfig(grid="32", u=u, winding=(1, 0), formulation=formulation))
    _, report = solve_homotopy_class(cs, cls, opts)
    assert report.iterations >= 1
    assert report.el_residual_relative <= 10.0 * opts.tolerance


def test_solve_and_stability_gate_need_no_curved_calculus(monkeypatch):
    cs, cls, opts = realize(RunConfig(grid="32", u="0.2*sin(2pi*x)+0.1*cos(2pi*y)", winding=(1, 0)))

    def curved(*args):
        raise AssertionError("curved calculus on the production path")

    for name in ("gradient", "divergence", "laplacian"):
        monkeypatch.setattr(ConformalStructure, name, curved)
    theta, report = solve_homotopy_class(cs, cls, opts)
    assert report.iterations >= 1
    assert report.el_residual_relative <= 10.0 * opts.tolerance
    beta = bandlimited_field(cs.lattice, np.random.default_rng(3), band=3, amplitude=0.5)
    sample = hessian_vs_energy_check(cs, theta, beta)
    assert sample.gap <= 1e-4 * sample.quadratic_value


def test_kernel_is_built_once_per_structure(monkeypatch):
    # P and M depend on the exponent alone: every class, the flat residual,
    # the flat operator, the stability gate, the descent oracle and the
    # rigidity check share them
    built = []
    original = _Kernel.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(_Kernel, "__init__", counted)
    cs, _, _ = realize(RunConfig(grid="32", u="0.2*sin(2pi*x)+0.1*cos(2pi*y)"))
    for m in range(-2, 3):
        for n in range(-2, 3):
            theta, _ = solve_homotopy_class(cs, HomotopyClass(m, n))
    el_residual(cs, theta, "flat_weighted")
    apply_operator_P(cs, theta.periodic, "flat_weighted")
    beta = bandlimited_field(cs.lattice, np.random.default_rng(3), band=3, amplitude=0.5)
    hessian_vs_energy_check(cs, theta, beta)
    descent_oracle(cs, HomotopyClass(1, 0), steps=3)
    section_rigidity_check(cs)
    assert len(built) == 1


def test_derivatives_never_sample_the_representative(monkeypatch, wavy64):
    # a class enters a derivative through its constant gradient Y0 alone
    def sampled(*args):
        raise AssertionError("sampled linear representative built")

    for module in (angles, energy):
        monkeypatch.setattr(module, "linear_representative", sampled, raising=False)
    cls = HomotopyClass(2, -1)
    theta, report = solve_homotopy_class(wavy64, cls)
    assert report.energy == bienergy(wavy64, theta)
    for formulation in ("flat_weighted", "curved"):
        assert right_hand_side(wavy64, cls, formulation).max_abs() > 0.0


def test_early_returns_report_a_trivial_history(flat64):
    _, report = solve_homotopy_class(flat64, HomotopyClass(1, 0))
    assert report.residual_history == (0.0,)
    assert report.el_residual_relative == 0.0


### Rigidity of the vertical problem

def test_rigidity_recovers_flat_reference_eigenvalue(flat64):
    cert = section_rigidity_check(flat64)
    assert cert.smallest_rayleigh == pytest.approx(FOURTH_POWER_OF_2PI, rel=1e-6)
    assert cert.verdict


def test_rigidity_holds_for_curved_metric():
    cs = structure_from(LatticeSpec.unit_square(64), lambda x, y: 0.3 * np.cos(TWO_PI * y))
    cert = section_rigidity_check(cs)
    assert cert.smallest_rayleigh > 0.0
    assert cert.verdict


def test_rigidity_operator_annihilates_constants(wavy64):
    const = ScalarField.from_constant(wavy64.lattice, 2.0)
    lap = flat_laplacian(const)
    numerator = integrate_inner(lap, lap, weight=wavy64.e2u)
    assert numerator == 0.0


### Descent oracle

def test_descent_on_flat_metric_is_immediate(flat64):
    result = descent_oracle(flat64, HomotopyClass(1, 0), steps=10)
    assert result.energy_trace == [0.0]
    assert not result.stalled
    assert result.angle.periodic.max_abs() == 0.0


def test_descent_matches_linear_solver():
    cs = structure_from(
        LatticeSpec.unit_square(64),
        lambda x, y: 0.2 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y),
    )
    cls = HomotopyClass(0, 1)
    solved, report = solve_homotopy_class(cs, cls)
    result = descent_oracle(cs, cls, steps=500)
    assert not result.stalled
    final = result.energy_trace[-1]
    assert final == pytest.approx(report.energy.bienergy, rel=1e-6)
    assert (result.angle.periodic - solved.periodic).max_abs() <= 1e-5
    diffs = np.diff(result.energy_trace)
    assert np.all(diffs <= 0.0)


def test_descent_applies_P_once_per_step(monkeypatch, wavy64):
    # the gradient follows each step by 2 step P d, reusing the P d of the
    # step's curvature, so no apply re-forms it from alpha
    applies = []
    original = _Kernel.apply_spectrum

    def counted(self, spectrum):
        applies.append(1)
        return original(self, spectrum)

    monkeypatch.setattr(_Kernel, "apply_spectrum", counted)
    result = descent_oracle(wavy64, HomotopyClass(1, 0), steps=50)
    assert not result.stalled
    assert len(applies) == len(result.energy_trace) - 1 > 0

