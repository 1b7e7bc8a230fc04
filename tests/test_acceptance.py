"""End-to-end acceptance: one test per shipping criterion, tolerances pinned.

Each test prints a single verdict line so a plain ``pytest -s`` run reads as
a checklist.  The criteria exercise the public surface — solver,
energy, stability, classification, and the identity checks — at the working
resolution (64x64) used throughout, and hold criteria 3 and 4 against the
reference routes of ``oracles.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from torusfield.angles import AngleField, HomotopyClass, angle_to_unit_field, winding_class
from torusfield.conformal import ConformalStructure, section_residual_pair
from torusfield.energy import bienergy
from torusfield.io import parse_exponent
from torusfield.lattice import LatticeSpec, ScalarField, bandlimited_field, flat_laplacian
from torusfield.liegroups import classify, compare_known, hyperbolic, sol3, su2
from torusfield.solver import section_rigidity_check, solve_homotopy_class
from torusfield.stability import hessian_form, hessian_vs_energy_check

from oracles import descent_oracle, directional_derivative_check

FOURTH_POWER_OF_2PI = 1558.5454565440389  # smallest flat Rayleigh quotient, (2*pi)**4
STANDARD_EXPONENT = "0.2*sin(2pi*x)+0.1*cos(2pi*y)"
ALL_CLASSES = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]


def conclude(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def standard64() -> ConformalStructure:
    lattice = LatticeSpec.unit_square(64)
    return ConformalStructure.from_exponent(parse_exponent(STANDARD_EXPONENT, lattice))


@pytest.fixture(scope="module")
def solutions(standard64):
    """Every class in {-2..2}^2 solved on the standard structure, with times."""
    solved = {}
    for m, n in ALL_CLASSES:
        started = time.perf_counter()
        theta, report = solve_homotopy_class(standard64, HomotopyClass(m, n))
        solved[(m, n)] = (theta, report, time.perf_counter() - started)
    return solved


def test_criterion_1_rigidity_of_vertical_critical_fields():
    lattice = LatticeSpec.unit_square(64)
    started = time.perf_counter()
    smallest = np.inf
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cs = ConformalStructure.from_exponent(
            bandlimited_field(lattice, rng, band=3, amplitude=0.3)
        )
        certificate = section_rigidity_check(cs, seed=seed)
        assert certificate.verdict
        smallest = min(smallest, certificate.smallest_rayleigh)
    elapsed = time.perf_counter() - started
    ok = smallest >= 1e-6 * FOURTH_POWER_OF_2PI and elapsed <= 60.0
    conclude(
        1, "vertical rigidity", ok,
        f"smallest mean-zero Rayleigh quotient {smallest:.6g} "
        f"(needs >= {1e-6 * FOURTH_POWER_OF_2PI:.3g}) in {elapsed:.1f}s",
    )


def test_criterion_2_solvability_in_every_winding_class(solutions):
    worst_residual = 0.0
    worst_time = 0.0
    windings_exact = True
    for (m, n), (theta, report, elapsed) in solutions.items():
        worst_residual = max(worst_residual, report.final_relative_residual)
        worst_time = max(worst_time, elapsed)
        recovered = winding_class(angle_to_unit_field(theta))
        windings_exact &= (recovered.m, recovered.n) == (m, n)
    ok = worst_residual <= 1e-10 and windings_exact and worst_time <= 5.0
    conclude(
        2, "one solution per class", ok,
        f"25 classes solved, worst relative residual {worst_residual:.2e}, "
        f"windings exact: {windings_exact}, slowest class {worst_time:.2f}s",
    )


def test_criterion_3_solutions_are_critical_points(standard64, solutions):
    rng = np.random.default_rng(2024)
    worst_value = 0.0
    worst_gap = 0.0
    for theta, report, _ in solutions.values():
        scale = max(1.0, abs(report.energy.bienergy))
        for _ in range(10):
            beta = bandlimited_field(standard64.lattice, rng, band=3, amplitude=0.5)
            pair = directional_derivative_check(standard64, theta, beta, h=1e-4)
            worst_value = max(worst_value, abs(pair.analytic), abs(pair.numeric))
            worst_gap = max(worst_gap, abs(pair.analytic - pair.numeric) / scale)
    ok = worst_value <= 1e-6 and worst_gap <= 1e-6
    conclude(
        3, "first variation vanishes", ok,
        f"largest directional derivative {worst_value:.2e} (analytic and h=1e-4 "
        f"central difference), route disagreement {worst_gap:.2e} relative",
    )


def test_criterion_4_descent_oracle_agrees_with_linear_solver():
    worst_energy = 0.0
    worst_field = 0.0
    for seed, (m, n) in [(11, (1, 0)), (12, (0, 1)), (13, (1, -1))]:
        lattice = LatticeSpec.unit_square(48)
        rng = np.random.default_rng(seed)
        cs = ConformalStructure.from_exponent(
            bandlimited_field(lattice, rng, band=3, amplitude=0.25)
        )
        solved, report = solve_homotopy_class(cs, HomotopyClass(m, n))
        result = descent_oracle(cs, HomotopyClass(m, n), steps=500)
        assert not result.stalled
        worst_energy = max(
            worst_energy,
            abs(result.energy_trace[-1] - report.energy.bienergy)
            / abs(report.energy.bienergy),
        )
        Vd = angle_to_unit_field(result.angle)
        Vs = angle_to_unit_field(solved)
        worst_field = max(
            worst_field,
            (Vd.comp1 - Vs.comp1).max_abs(),
            (Vd.comp2 - Vs.comp2).max_abs(),
        )
    ok = worst_energy <= 1e-6 and worst_field <= 1e-5
    conclude(
        4, "descent oracle equivalence", ok,
        f"3 random instances: energy gap {worst_energy:.2e} relative "
        f"(<= 1e-6), field gap {worst_field:.2e} max-norm (<= 1e-5)",
    )


def test_criterion_5_second_variation_is_nonnegative(standard64, solutions):
    rng = np.random.default_rng(77)
    smallest = np.inf
    for _ in range(100):
        beta = bandlimited_field(standard64.lattice, rng, band=5, amplitude=1.0)
        smallest = min(smallest, hessian_form(standard64, beta))
    nonnegative = smallest >= 0.0

    ratios = []
    for m, n in [(1, 0), (0, 1), (2, -1)]:
        theta, _, _ = solutions[(m, n)]
        beta = bandlimited_field(standard64.lattice, rng, band=3, amplitude=0.5)
        wide = hessian_vs_energy_check(standard64, theta, beta, h=1e-3)
        narrow = hessian_vs_energy_check(standard64, theta, beta, h=5e-4)
        ratios.append(wide.gap / narrow.gap)
    quadratic = all(3.5 <= r <= 4.5 for r in ratios)
    ok = nonnegative and quadratic
    conclude(
        5, "stability of critical fields", ok,
        f"hessian form >= 0 on 100 directions (smallest {smallest:.4g}), "
        f"h-halving ratios {[f'{r:.2f}' for r in ratios]} all in [3.5, 4.5]",
    )


def test_criterion_6_conformal_identities():
    lattice = LatticeSpec.unit_square(64)
    worst_collapse = 0.0
    worst_formula = 0.0
    worst_total_curvature = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        cs = ConformalStructure.from_exponent(
            bandlimited_field(lattice, rng, band=3, amplitude=0.3)
        )
        homotopy = HomotopyClass(int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        theta = AngleField(homotopy, bandlimited_field(lattice, rng, band=4, amplitude=0.4))
        pair = section_residual_pair(cs, theta)

        em3u = ScalarField(lattice, np.exp(-3.0 * cs.u.values))
        predicted = em3u * pair.curved
        worst_collapse = max(
            worst_collapse,
            (pair.flat.comp1 - predicted.comp1).max_abs(),
            (pair.flat.comp2 - predicted.comp2).max_abs(),
        )

        total = theta.total_samples()
        lap_values = flat_laplacian(theta.periodic).values
        worst_formula = max(
            worst_formula,
            float(np.max(np.abs(pair.flat.comp1.values + np.sin(total) * lap_values))),
            float(np.max(np.abs(pair.flat.comp2.values - np.cos(total) * lap_values))),
        )
        worst_total_curvature = max(worst_total_curvature, abs(cs.integrate(cs.kg)))
    ok = worst_collapse <= 1e-8 and worst_formula <= 1e-8 and worst_total_curvature <= 1e-8
    conclude(
        6, "conformal identities", ok,
        f"exponent-collapse gap {worst_collapse:.2e}, tangential-formula gap "
        f"{worst_formula:.2e}, total curvature {worst_total_curvature:.2e} "
        f"(all <= 1e-8, 5 random pairs at 64x64)",
    )


### Criterion 7 helpers: distance from a point to a classified component


def _component_distance(component, V: np.ndarray) -> float:
    if component.kind == "full_sphere":
        return 0.0
    if component.kind in ("point", "cluster"):
        return float(np.min(np.linalg.norm(component.witnesses - V, axis=1)))
    rest = np.sqrt(max(0.0, 1.0 - component.value * component.value))
    others = np.delete(V, component.axis)
    return float(np.hypot(V[component.axis] - component.value, np.linalg.norm(others) - rest))


def _directed_set_gap(from_set, to_set) -> float:
    """Largest distance from a witness of one critical set to the other set."""
    gap = 0.0
    for witness in from_set.witnesses:
        gap = max(gap, min(_component_distance(c, witness) for c in to_set.components))
    return gap


def test_criterion_7_model_group_classifications():
    started = time.perf_counter()
    cases = [
        (su2(1.0, 1.0, 1.0), "biharmonic_section", 3000),
        (su2(2.0, 2.0, 1.0), "biharmonic_section", 4000),
        (su2(2.0, 1.0, 1.0), "biharmonic_section", 4000),
        (su2(2.0, 1.5, 1.0), "biharmonic_section", 4000),
        (sol3(), "biharmonic_section", 4000),
        (hyperbolic(3, 1.0), "biharmonic_vector_field", 8000),
        (hyperbolic(4, 1.0), "biharmonic_vector_field", 8000),
        (hyperbolic(3, 2.0), "biharmonic_vector_field", 4000),
    ]
    all_passed = True
    for model, problem, resolution in cases:
        report = compare_known(model, problem, resolution=resolution, seed=0)
        assert report.passed, (model.name, problem, report)
        all_passed &= report.passed

    # the two notions coincide on the triaxial sphere family ...
    generic = su2(2.0, 1.5, 1.0)
    sections = classify(generic, "biharmonic_section", resolution=4000, seed=0)
    fields = classify(generic, "biharmonic_vector_field", resolution=4000, seed=0)
    equivalence_gap = max(
        _directed_set_gap(sections, fields), _directed_set_gap(fields, sections)
    )

    # ... and split apart on hyperbolic space
    model = hyperbolic(4, 1.0)
    sections_h = classify(model, "biharmonic_section", resolution=8000, seed=0)
    fields_h = classify(model, "biharmonic_vector_field", resolution=8000, seed=0)
    split = max(
        _directed_set_gap(sections_h, fields_h), _directed_set_gap(fields_h, sections_h)
    )
    elapsed = time.perf_counter() - started

    ok = all_passed and equivalence_gap <= 1e-6 and split >= 1e-2 and elapsed <= 120.0
    conclude(
        7, "model-group regression", ok,
        f"8 closed-form comparisons passed, section/field sets coincide on the "
        f"triaxial model (gap {equivalence_gap:.1e} <= 1e-6) and differ on "
        f"hyperbolic 4-space (gap {split:.2f}), in {elapsed:.0f}s",
    )


def test_criterion_8_flat_metric_makes_linear_fields_free():
    lattice = LatticeSpec.unit_square(64)
    flat = ConformalStructure.from_exponent(ScalarField.from_constant(lattice, 0.0))
    worst = 0.0
    for m, n in ALL_CLASSES:
        theta = AngleField(
            HomotopyClass(m, n), ScalarField.from_constant(lattice, 0.0)
        )
        worst = max(worst, abs(bienergy(flat, theta).bienergy))
    ok = worst <= 1e-12
    conclude(
        8, "flat degeneracy", ok,
        f"energy of every linear representative <= {worst:.2e} (needs <= 1e-12)",
    )
