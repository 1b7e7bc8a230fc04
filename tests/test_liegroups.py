"""Frame-algebra, critical systems, and solution-set classification on the
three model geometries."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from torusfield import liegroups
from torusfield.liegroups import (
    _CONVERGED_REL,
    _NEWTON_ITERATIONS,
    CriticalComponent,
    LeftInvariantModel,
    _cluster_indices,
    _cubic_map,
    _latitude_candidates,
    _latitude_family,
    _local_structure,
    _merge_fragment,
    _refine,
    _rough_laplacian,
    _shape_term,
    _sphere_samples,
    classify,
    compare_known,
    critical_system_residual,
    hyperbolic,
    sol3,
    su2,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw one uniformly random point of the unit sphere."""
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def all_models() -> list[LeftInvariantModel]:
    return [
        su2(1.0, 1.0, 1.0),
        su2(2.0, 2.0, 1.0),
        su2(2.0, 1.5, 1.0),
        sol3(),
        hyperbolic(3, 1.0),
        hyperbolic(4, 1.0),
        hyperbolic(3, 2.0),
        hyperbolic(2, 1.0),
    ]


### Factories and connection tables


def test_su2_rejects_unordered_or_nonpositive_scales():
    with pytest.raises(ValueError):
        su2(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        su2(2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        su2(2.0, -1.0, -2.0)


def test_hyperbolic_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hyperbolic(1, 1.0)
    with pytest.raises(ValueError):
        hyperbolic(3, 0.0)
    with pytest.raises(ValueError):
        hyperbolic(3, -2.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_models_reject_nonfinite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        su2(bad, 1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        su2(2.0, 1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        hyperbolic(3, bad)


def test_a_connection_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match=r"connection must have shape \(3, 3, 3\)"):
        LeftInvariantModel("su2", 3, (1.0, 1.0, 1.0), np.zeros((3, 3, 2)))


def test_su2_connection_table():
    model = su2(2.0, 1.5, 1.0)
    # half-sum of the scales is 2.25, so the three torsion coefficients are
    # 0.25, 0.75, 1.25
    expected = np.zeros((3, 3, 3))
    expected[1, 0, 2] = -0.75
    expected[2, 0, 1] = 1.25
    expected[0, 1, 2] = 0.25
    expected[2, 1, 0] = -1.25
    expected[0, 2, 1] = -0.25
    expected[1, 2, 0] = 0.75
    np.testing.assert_array_equal(model.connection, expected)


def test_sol3_connection_table():
    model = sol3()
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 2] = -1.0
    expected[0, 2, 0] = 1.0
    expected[1, 1, 2] = 1.0
    expected[1, 2, 1] = -1.0
    np.testing.assert_array_equal(model.connection, expected)


def test_hyperbolic_connection_table():
    model = hyperbolic(4, 2.0)
    expected = np.zeros((4, 4, 4))
    for i in (1, 2, 3):
        expected[i, i, 0] = 2.0
        expected[i, 0, i] = -2.0
    np.testing.assert_array_equal(model.connection, expected)


### Structural invariants of the derived tensors


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}{m.params}")
def test_connection_is_metric_compatible(model: LeftInvariantModel):
    """Covariant derivatives of an orthonormal frame are skew in the last
    two slots."""
    skew = model.connection + model.connection.transpose(0, 2, 1)
    assert np.max(np.abs(skew)) == 0.0


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}{m.params}")
def test_brackets_satisfy_jacobi(model: LeftInvariantModel):
    cb = model.brackets
    cyclic = (
        np.einsum("jkm,iml->ijkl", cb, cb)
        + np.einsum("kim,jml->ijkl", cb, cb)
        + np.einsum("ijm,kml->ijkl", cb, cb)
    )
    assert np.max(np.abs(cyclic)) <= 1e-13


def test_su2_brackets_recover_scales():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lams = np.sort(rng.uniform(0.5, 3.0, size=3))[::-1]
        model = su2(*lams)
        assert model.brackets[1, 2, 0] == pytest.approx(lams[0], abs=1e-14)
        assert model.brackets[2, 0, 1] == pytest.approx(lams[1], abs=1e-14)
        assert model.brackets[0, 1, 2] == pytest.approx(lams[2], abs=1e-14)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}{m.params}")
def test_curvature_symmetries(model: LeftInvariantModel):
    R = model.curvature
    assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) <= 1e-13
    assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) <= 1e-13
    first_bianchi = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
    assert np.max(np.abs(first_bianchi)) <= 1e-13


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}{m.params}")
def test_second_bianchi_identity(model: LeftInvariantModel):
    nR = model.curvature_gradient
    cyclic = nR + nR.transpose(1, 2, 0, 3, 4) + nR.transpose(2, 0, 1, 3, 4)
    assert np.max(np.abs(cyclic)) <= 1e-12


@pytest.mark.parametrize("n,c", [(3, 1.0), (4, 1.0), (3, 2.0), (5, 0.7)])
def test_hyperbolic_has_constant_curvature(n: int, c: float):
    model = hyperbolic(n, c)
    eye = np.eye(n)
    expected = -c * c * (
        np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    assert np.max(np.abs(model.curvature - expected)) <= 1e-13
    assert model.curvature[0, 1, 1, 0] == pytest.approx(-c * c, abs=1e-14)


@pytest.mark.parametrize(
    "model",
    [hyperbolic(3, 1.0), hyperbolic(4, 2.0), su2(1.0, 1.0, 1.0)],
    ids=["h3", "h4", "round-su2"],
)
def test_curvature_is_parallel_on_symmetric_models(model: LeftInvariantModel):
    assert np.max(np.abs(model.curvature_gradient)) <= 1e-13


### Rough Laplacian closed forms


def test_su2_frame_is_laplacian_eigenbasis():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lams = np.sort(rng.uniform(0.3, 4.0, size=3))[::-1]
        model = su2(*lams)
        mu = 0.5 * lams.sum() - lams
        for i in range(3):
            DeltaV = _rough_laplacian(model, np.eye(3)[i])
            eigen = mu[(i + 1) % 3] ** 2 + mu[(i + 2) % 3] ** 2
            np.testing.assert_allclose(DeltaV, eigen * np.eye(3)[i], atol=1e-13)


def test_su2_equal_scales_eigenvalue_is_half():
    DeltaV = _rough_laplacian(su2(1.0, 1.0, 1.0), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(DeltaV, [0.5, 0.0, 0.0])


def test_sol3_laplacian_closed_form():
    model = sol3()
    rng = np.random.default_rng(4)
    for _ in range(5):
        V = unit_vector(rng, 3)
        DeltaV = _rough_laplacian(model, V)
        np.testing.assert_allclose(DeltaV, [V[0], V[1], 2 * V[2]], atol=1e-14)
        assert float(DeltaV @ V) == pytest.approx(1.0 + V[2] ** 2, abs=1e-14)
        np.testing.assert_allclose(
            _rough_laplacian(model, DeltaV), [V[0], V[1], 4 * V[2]], atol=1e-14
        )


@pytest.mark.parametrize("n,c", [(3, 1.0), (4, 1.0), (4, 2.0), (5, 0.7)])
def test_hyperbolic_laplacian_closed_form(n: int, c: float):
    model = hyperbolic(n, c)
    pole = np.eye(n)[0]
    np.testing.assert_allclose(
        _rough_laplacian(model, pole), c * c * (n - 1) * pole, atol=1e-13
    )
    for i in range(1, n):
        DeltaV = _rough_laplacian(model, np.eye(n)[i])
        np.testing.assert_allclose(DeltaV, c * c * np.eye(n)[i], atol=1e-13)
    rng = np.random.default_rng(7)
    V = unit_vector(rng, n)
    assert float(_rough_laplacian(model, V) @ V) == pytest.approx(
        c * c * (1.0 + (n - 2) * V[0] ** 2), abs=1e-13
    )


@pytest.mark.parametrize("n,c", [(3, 1.0), (4, 1.0), (4, 2.0)])
def test_hyperbolic_curvature_term_closed_form(n: int, c: float):
    model = hyperbolic(n, c)
    pole = np.eye(n)[0]
    np.testing.assert_allclose(
        _shape_term(model, pole), -(c**3) * (n - 1) * pole, atol=1e-13
    )
    rng = np.random.default_rng(9)
    for _ in range(5):
        V = unit_vector(rng, n)
        tangent = V.copy()
        tangent[0] = 0.0
        expected = -(c**3) * (
            ((n - 2) * V[0] ** 2 + 1.0) * pole + (n - 2) * V[0] * tangent
        )
        np.testing.assert_allclose(_shape_term(model, V), expected, atol=1e-13)


def test_model_laplacian_rejects_bad_input():
    model = sol3()
    with pytest.raises(ValueError):
        critical_system_residual(model, np.array([1.0, 1.0, 1.0]), "biharmonic_section")
    with pytest.raises(ValueError):
        critical_system_residual(model, np.array([1.0, 0.0]), "biharmonic_section")


### Critical-system residuals


def test_projected_residual_is_orthogonal_to_the_field():
    rng = np.random.default_rng(21)
    for model in (su2(2.0, 1.5, 1.0), sol3(), hyperbolic(4, 1.0)):
        for problem in (
            "harmonic_section",
            "biharmonic_section",
            "biharmonic_vector_field",
        ):
            V = unit_vector(rng, model.dim)
            residual = critical_system_residual(model, V, problem)
            assert abs(float(residual @ V)) <= 1e-12


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_equator_solves_the_full_problem_with_known_constant(c: float):
    """On the half-space model the equatorial fields satisfy the full
    system with collinearity constant -c^4 + 2c^6."""
    model = hyperbolic(4, c)
    equator = np.array([0.0, 1.0, 0.0, 0.0])
    lam = -(c**4) + 2.0 * c**6
    residual = _cubic_map(model, "biharmonic_vector_field").expression(equator) - lam * equator
    assert np.max(np.abs(residual)) <= 1e-12


def test_harmonic_fields_also_solve_the_section_problem():
    cases = [
        (su2(2.0, 2.0, 1.0), np.array([np.cos(0.3), np.sin(0.3), 0.0])),
        (sol3(), np.array([0.0, 0.0, 1.0])),
        (sol3(), np.array([0.0, 0.0, -1.0])),
        (hyperbolic(4, 1.0), np.array([0.0, 0.6, 0.0, 0.8])),
    ]
    for model, V in cases:
        harmonic = critical_system_residual(model, V, "harmonic_section")
        section = critical_system_residual(model, V, "biharmonic_section")
        assert np.max(np.abs(harmonic)) <= 1e-12
        assert np.max(np.abs(section)) <= 1e-12


def test_known_nonharmonic_solutions():
    circle_point = np.array([0.3, np.sqrt(0.5 - 0.09), INV_SQRT2])
    residual = critical_system_residual(sol3(), circle_point, "biharmonic_section")
    assert np.max(np.abs(residual)) <= 1e-12
    # away from the solution set the same map is far from zero
    off = unit_vector(np.random.default_rng(2), 3)
    assert np.linalg.norm(
        critical_system_residual(sol3(), off, "biharmonic_section")
    ) > 1e-3

    diagonal = np.array([INV_SQRT2, INV_SQRT2, 0.0])
    model = su2(2.0, 1.5, 1.0)
    for problem in ("biharmonic_section", "biharmonic_vector_field"):
        assert np.max(np.abs(critical_system_residual(model, diagonal, problem))) <= 1e-12


def test_su2_sections_and_vector_fields_have_the_same_solutions():
    """The curvature corrections change nothing on the compact model: both
    problems vanish on the same points."""
    model = su2(2.0, 2.0, 1.0)
    rng = np.random.default_rng(31)
    on_circle = np.array([0.4 * INV_SQRT2, 0, INV_SQRT2])
    on_circle[1] = np.sqrt(1.0 - on_circle[0] ** 2 - 0.5)
    for problem in ("biharmonic_section", "biharmonic_vector_field"):
        assert np.max(np.abs(critical_system_residual(model, on_circle, problem))) <= 1e-12
    generic = unit_vector(rng, 3)
    for problem in ("biharmonic_section", "biharmonic_vector_field"):
        assert np.linalg.norm(critical_system_residual(model, generic, problem)) > 1e-3


def test_hyperbolic_sections_and_vector_fields_differ():
    """The two mixed-latitude families sit at different heights, so neither
    solution solves the other problem."""
    model = hyperbolic(4, 1.0)
    section_latitude = np.array([INV_SQRT2, 0.5, 0.5, 0.0])
    vf_latitude = np.array([np.sqrt(3.0) / 2.0, 0.3, np.sqrt(0.25 - 0.09), 0.0])
    assert np.max(np.abs(
        critical_system_residual(model, section_latitude, "biharmonic_section")
    )) <= 1e-12
    assert np.linalg.norm(
        critical_system_residual(model, section_latitude, "biharmonic_vector_field")
    ) > 0.1
    assert np.max(np.abs(
        critical_system_residual(model, vf_latitude, "biharmonic_vector_field")
    )) <= 1e-12
    assert np.linalg.norm(
        critical_system_residual(model, vf_latitude, "biharmonic_section")
    ) > 0.1


def test_dimension_two_half_space_is_entirely_critical():
    model = hyperbolic(2, 1.3)
    rng = np.random.default_rng(17)
    for _ in range(5):
        V = unit_vector(rng, 2)
        for problem in (
            "harmonic_section",
            "biharmonic_section",
            "biharmonic_vector_field",
        ):
            assert np.max(np.abs(critical_system_residual(model, V, problem))) <= 1e-13


### Solution-set classification


def witness_residuals(model, critical_set, problem):
    values = []
    for component in critical_set.components:
        for witness in component.witnesses:
            values.append(
                np.linalg.norm(critical_system_residual(model, witness, problem))
            )
    return np.array(values)


def test_classify_detects_the_full_sphere():
    result = classify(su2(1.0, 1.0, 1.0), "biharmonic_section", resolution=2000)
    assert result.kind == "full_sphere"
    assert len(result.components) == 1
    assert result.components[0].dim == 2
    assert not result.ambiguous


def test_classify_two_equal_scales():
    model = su2(2.0, 2.0, 1.0)
    result = classify(model, "biharmonic_section", resolution=3000)
    assert result.kind == "mixed"
    assert not result.ambiguous
    points = [c for c in result.components if c.kind == "point"]
    circles = [c for c in result.components if c.kind == "circle"]
    assert len(points) == 2 and len(circles) == 3
    pole_values = sorted(c.witnesses[0][2] for c in points)
    np.testing.assert_allclose(pole_values, [-1.0, 1.0], atol=1e-9)
    assert all(c.axis == 2 for c in circles)
    np.testing.assert_allclose(
        sorted(c.value for c in circles), [-INV_SQRT2, 0.0, INV_SQRT2], atol=1e-9
    )
    for c in circles:
        assert c.radius == pytest.approx(np.sqrt(1 - c.value**2), abs=1e-9)
        assert c.dim == 1
    # every witness is unit and actually solves the system
    witnesses = result.witnesses
    np.testing.assert_allclose(np.linalg.norm(witnesses, axis=1), 1.0, atol=1e-12)
    assert witness_residuals(model, result, "biharmonic_section").max() <= 1e-8


def test_classify_distinct_scales_finds_eighteen_points():
    model = su2(2.0, 1.5, 1.0)
    result = classify(model, "biharmonic_section", resolution=3000)
    assert result.kind == "isolated_points"
    assert len(result.components) == 18
    expected = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            v = np.zeros(3)
            v[axis] = sign
            expected.append(v)
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(3)
                    v[i], v[j] = si, sj
                    expected.append(v / np.sqrt(2.0))
    for component in result.components:
        gaps = [np.linalg.norm(component.witnesses[0] - e) for e in expected]
        assert min(gaps) <= 1e-8


def test_classify_hyperbolic_vector_fields():
    model = hyperbolic(4, 1.0)
    result = classify(model, "biharmonic_vector_field", resolution=8000)
    assert result.kind == "mixed"
    assert not result.ambiguous
    points = [c for c in result.components if c.kind == "point"]
    spheres = [c for c in result.components if c.kind == "hypersphere"]
    assert len(points) == 2 and len(spheres) == 3
    np.testing.assert_allclose(
        sorted(abs(c.witnesses[0][0]) for c in points), [1.0, 1.0], atol=1e-9
    )
    assert all(c.axis == 0 for c in spheres)
    np.testing.assert_allclose(
        sorted(c.value for c in spheres),
        [-np.sqrt(3.0) / 2.0, 0.0, np.sqrt(3.0) / 2.0],
        atol=1e-9,
    )
    assert all(c.dim == 2 for c in spheres)


def test_classify_counts_its_work():
    result = classify(su2(2.0, 2.0, 1.0), "biharmonic_section", resolution=2000)
    assert result.samples == len(_sphere_samples(3, 2000, np.random.default_rng(0)))
    assert 0 < result.converged <= result.samples
    assert result.clusters >= len(result.components)
    assert 0 < result.sweeps <= _NEWTON_ITERATIONS
    sphere = classify(su2(1.0, 1.0, 1.0), "biharmonic_section", resolution=2000)
    assert (sphere.clusters, sphere.sweeps) == (1, 0)
    assert sphere.converged == sphere.samples


@pytest.mark.parametrize(
    "build, problem, resolution, counts",
    [
        (lambda: su2(1.0, 1.0, 1.0), "biharmonic_section", 3000, (3064, 3064, 1, 0, 0)),
        (lambda: su2(2.0, 2.0, 1.0), "biharmonic_section", 4000, (4064, 4064, 5, 6, 13421)),
        (lambda: su2(2.0, 1.0, 1.0), "biharmonic_section", 4000, (4064, 4064, 5, 6, 13197)),
        (lambda: su2(2.0, 1.5, 1.0), "biharmonic_section", 4000, (4064, 4064, 18, 9, 19216)),
        (sol3, "biharmonic_section", 4000, (4064, 4064, 5, 6, 13221)),
        (lambda: hyperbolic(3, 1.0), "biharmonic_vector_field", 8000, (8064, 8064, 3, 12, 42452)),
        (lambda: hyperbolic(4, 1.0), "biharmonic_vector_field", 8000, (8064, 8064, 503, 6, 29849)),
        (lambda: hyperbolic(3, 2.0), "biharmonic_vector_field", 4000, (4064, 4064, 3, 10, 15357)),
    ],
    ids=["su2(1,1,1)", "su2(2,2,1)", "su2(2,1,1)", "su2(2,1.5,1)", "sol3",
         "hyperbolic(3,1)", "hyperbolic(4,1)", "hyperbolic(3,2)"],
)
def test_criterion_7_cases_count_their_work(build, problem, resolution, counts):
    # the eight comparisons of acceptance criterion 7; steps is the batch size
    # summed over the sweeps.  The counts do not depend on the machine, so a
    # change to the sweep's arithmetic that moves one has moved its path
    result = classify(build(), problem, resolution=resolution)
    assert (result.samples, result.converged, result.clusters, result.sweeps, result.steps) == counts


@pytest.mark.parametrize("pole", [1.0, -1.0])
def test_refine_lands_on_a_triple_root_in_two_sweeps(pole):
    # the poles +-e_0 of hyperbolic 3-space are triple roots of the vector-field
    # system, where a Gauss-Newton step shrinks by 2/3 per sweep (ten sweeps
    # from 1e-2 away); the second step, scaled by the multiplicity 3, lands
    cubic = _cubic_map(hyperbolic(3, 1.0), "biharmonic_vector_field")
    threshold = _CONVERGED_REL * cubic.scaled_residual(_sphere_samples(3, 8000, np.random.default_rng(0)))[1]
    offsets = np.random.default_rng(0).standard_normal((16, 3))
    offsets[:, 0] = 0.0
    points = pole * np.eye(3)[0] + 1e-2 * offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
    refined, sweeps, steps = _refine(cubic, points / np.linalg.norm(points, axis=1, keepdims=True), threshold)
    assert (sweeps, steps) == (2, 32)
    assert np.all(np.linalg.norm(cubic.residual(refined), axis=1) <= threshold)
    np.testing.assert_allclose(refined, np.tile(pole * np.eye(3)[0], (16, 1)), atol=1e-6)


def test_classification_peak_allocation_stays_below_eight_mib():
    # the step system is filled in place and released before the step update,
    # which holds the traced peak of the sweep below the bound
    tracemalloc.start()
    try:
        classify(hyperbolic(4, 1.0), "biharmonic_vector_field", resolution=8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("dim", range(3, 13))
def test_resolution_bounds_the_samples_in_every_dimension(dim):
    # the points per angle are the largest count whose grid fits the
    # resolution, at least 2, so the grid holds at most the resolution
    # wherever 2 points per angle fit; 64 seeded points ride along
    for resolution in (1000, 8000, 20000):
        samples = _sphere_samples(dim, resolution, np.random.default_rng(0))
        if 2 ** (dim - 1) <= resolution:
            assert len(samples) <= resolution + 64
        else:
            assert len(samples) == 2 ** (dim - 1) + 64


def test_an_exact_power_keeps_its_root():
    # 8000 ** (1/3) is 19.999... in floating point
    assert len(_sphere_samples(4, 8000, np.random.default_rng(0))) == 20**3 + 64
    assert len(_sphere_samples(5, 14641, np.random.default_rng(0))) == 11**4 + 64


@pytest.mark.parametrize("pole_first", [False, True])
def test_pole_collapsed_axis_yields_to_the_next_tangent_orthogonal_one(pole_first):
    # a one-member cluster at a point of the equator {V_0 = 0} of hyperbolic
    # 4-space: axes 0 and 1 are both orthogonal to the tangent directions,
    # and along axis 1 the family would collapse to a pole
    cubic = _cubic_map(hyperbolic(4, 1.0), "biharmonic_vector_field")
    member = np.array([0.0, 1.0, 0.0, 0.0])
    (local_dim,), (null_basis,) = _local_structure(cubic, member[None, :])
    assert local_dim == 2
    np.testing.assert_array_equal(np.linalg.norm(null_basis, axis=1)[:2], 0.0)
    if pole_first:
        # roundoff in the null basis ranks the pole axis first
        null_basis = null_basis.copy()
        null_basis[0, 0] = 1e-12
    rng = np.random.default_rng(0)
    samples = _sphere_samples(4, 1000, rng)
    threshold = _CONVERGED_REL * (1.0 + np.max(np.linalg.norm(cubic.expression(samples), axis=1)))
    (candidates,) = _latitude_candidates(member[None, :], np.array([0]), member[None, :], null_basis[None])
    axis, value, radius, holds = _latitude_family(cubic, member[None, :], candidates, threshold, rng)
    assert (axis, value, radius, holds) == (0, 0.0, 1.0, True)


def test_point_witnesses_are_the_members_nearest_their_cluster_centroids():
    # the reference loop: each cluster's normalized mean, then its nearest member;
    # the batched pass sums in another order, so equals may differ at roundoff
    model, problem = su2(2.0, 1.5, 1.0), "biharmonic_section"
    cubic = _cubic_map(model, problem)
    samples = _sphere_samples(3, 4000, np.random.default_rng(0))
    threshold = _CONVERGED_REL * cubic.scaled_residual(samples)[1]
    refined = _refine(cubic, samples, threshold)[0]
    solutions = refined[np.linalg.norm(cubic.residual(refined), axis=1) <= threshold]
    witnesses = np.concatenate([c.witnesses for c in classify(model, problem, resolution=4000).components])
    checked = 0
    for indices in _cluster_indices(solutions):
        members = solutions[indices]
        centroid = members.mean(axis=0) / np.linalg.norm(members.mean(axis=0))
        distances = np.linalg.norm(members - centroid, axis=1)
        for witness in witnesses:
            if np.any(np.all(members == witness, axis=1)):
                assert np.linalg.norm(witness - centroid) <= distances.min() + 1e-12
                checked += 1
    # the six poles adopt their exact axis vectors, the twelve others are members
    assert checked == 12


def test_clusters_chain_through_adjacent_cells_in_index_order():
    # cells have side 0.05: point 2 reaches point 0 only through point 3,
    # point 4 touches point 1 diagonally, point 5 is alone
    points = np.array([
        [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.1, 0.0, 1.0],
        [0.05, 0.0, 1.0], [1.0, 0.05, 0.05], [0.0, 1.0, 0.0],
    ])
    clusters = [c.tolist() for c in _cluster_indices(points)]
    assert clusters == [[0, 2, 3], [1, 4], [5]]


def test_classify_is_deterministic():
    first = classify(su2(2.0, 2.0, 1.0), "biharmonic_section", resolution=2000, seed=5)
    second = classify(su2(2.0, 2.0, 1.0), "biharmonic_section", resolution=2000, seed=5)
    assert first.kind == second.kind
    assert len(first.components) == len(second.components)
    assert np.array_equal(first.witnesses, second.witnesses)


def test_classify_reports_an_empty_set_when_nothing_is_critical():
    # a two-dimensional toy frame, not a metric connection, whose rough
    # Laplacian is V -> V A with A = [[1, -1], [1, 0]]: A has no real
    # eigenvector, so no unit V has a rough Laplacian parallel to V
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 1], gamma[0, 1, 0], gamma[0, 1, 1] = -1.0, 1.0, -1.0
    model = LeftInvariantModel("toy", 2, (), gamma)
    np.testing.assert_array_equal(_rough_laplacian(model, np.eye(2)), [[1.0, -1.0], [1.0, 0.0]])
    found = classify(model, "harmonic_section", resolution=200)
    assert (found.kind, found.components, found.ambiguous) == ("empty", (), False)
    assert found.samples > 0 and found.converged == 0
    assert found.witnesses.shape == (0, 0)


@pytest.mark.parametrize(
    "model", [su2(2e100, 1.5e100, 1e100), hyperbolic(3, 1e80)], ids=lambda m: f"{m.name}{m.params}"
)
def test_a_model_whose_tensors_overflow_is_refused(model):
    # finite parameters whose fourth-order products overflow: the classifier
    # refuses the model instead of classifying NaNs as an empty set
    pole = np.eye(model.dim)[0]
    calls = (
        lambda: critical_system_residual(model, pole, "biharmonic_section"),
        lambda: classify(model, "biharmonic_section", resolution=200),
    )
    for call in calls:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow a float"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda problem: classify(sol3(), problem),
        lambda problem: compare_known(sol3(), problem),
        lambda problem: critical_system_residual(sol3(), np.array([0.0, 0.0, 1.0]), problem),
    ],
    ids=["classify", "compare_known", "critical_system_residual"],
)
def test_classify_rejects_unknown_problem(call):
    # one lookup in the problem table, in _cubic_map, refuses the name for all three
    with pytest.raises(ValueError, match="unknown problem"):
        call("nonsense")


@pytest.mark.parametrize(
    "model, problem",
    [
        (su2(2.0, 1.5, 1.0), "biharmonic_section"),
        (hyperbolic(4, 1.0), "biharmonic_vector_field"),
    ],
)
@pytest.mark.parametrize("resolution", [0, -5])
def test_nonpositive_resolution_is_rejected(model, problem, resolution):
    # three-sphere samples have no real per-axis count for a negative
    # resolution, and a zero one would classify on the seeded extras alone
    for search in (classify, compare_known):
        with pytest.raises(ValueError, match="resolution"):
            search(model, problem, resolution=resolution)


### Regression against the known solution sets


@pytest.mark.parametrize(
    "model,problem",
    [
        (su2(1.0, 1.0, 1.0), "biharmonic_section"),
        (su2(2.0, 2.0, 1.0), "biharmonic_section"),
        (su2(2.0, 2.0, 1.0), "harmonic_section"),
        (sol3(), "biharmonic_section"),
        (sol3(), "harmonic_section"),
        (hyperbolic(3, 2.0), "biharmonic_vector_field"),
        (hyperbolic(3, 1.0), "biharmonic_section"),
        (hyperbolic(2, 1.0), "biharmonic_section"),
    ],
    ids=lambda x: str(x) if isinstance(x, str) else f"{x.name}{x.params}",
)
def test_compare_known_passes(model, problem):
    report = compare_known(model, problem, resolution=4000)
    assert report.passed, (report.missing, report.extra)
    assert report.matched and not report.missing and not report.extra


def test_compare_known_confirms_su2_equivalence():
    section = compare_known(su2(2.0, 2.0, 1.0), "biharmonic_section", resolution=4000)
    fields = compare_known(
        su2(2.0, 2.0, 1.0), "biharmonic_vector_field", resolution=4000
    )
    assert section.passed and fields.passed
    assert sorted(section.matched) == sorted(fields.matched)


def test_compare_known_refuses_unclassified_problem():
    with pytest.raises(ValueError):
        compare_known(sol3(), "biharmonic_vector_field")


def test_compare_known_refuses_a_model_without_a_reference():
    model = LeftInvariantModel("toy", 3, (), sol3().connection.copy())
    with pytest.raises(ValueError, match="no reference classification for model 'toy'"):
        compare_known(model, "biharmonic_section")


### The merge rule: fragments of one component join as they are found


def _fragment(kind, witness, axis=None, value=None, dim=0):
    radius = None if value is None else float(np.sqrt(1.0 - value * value))
    return CriticalComponent(kind, np.atleast_2d(witness).astype(float), axis, value, radius, dim)


def _merged(fragments):
    components: list[CriticalComponent] = []
    ambiguous = False
    for fragment in fragments:
        ambiguous |= _merge_fragment(components, fragment)
    return components, ambiguous


def test_fragments_within_tolerance_merge_at_the_last_fragments_position():
    north = np.array([0.0, 0.0, 1.0])
    east = np.array([1.0, 0.0, 0.0])
    nudge = np.array([5e-5, 0.0, 0.0])
    fragments = [
        _fragment("point", north),
        _fragment("circle", [0.0, 1.0, 0.0], axis=2, value=0.0, dim=1),
        _fragment("point", east),
        _fragment("point", north + nudge, dim=1),
        _fragment("circle", [0.0, -1.0, 5e-5], axis=2, value=5e-5, dim=2),
    ]
    components, ambiguous = _merged(fragments)
    assert not ambiguous
    assert [c.kind for c in components] == ["point", "point", "circle"]
    east_point, north_point, circle = components
    np.testing.assert_array_equal(east_point.witnesses, [east])
    np.testing.assert_array_equal(north_point.witnesses, [north, north + nudge])
    assert north_point.dim == 1
    np.testing.assert_array_equal(circle.witnesses, [[0.0, 1.0, 0.0], [0.0, -1.0, 5e-5]])
    assert (circle.axis, circle.value, circle.dim) == (2, 0.0, 2)


def test_families_on_one_axis_5e_4_apart_stay_separate_and_are_ambiguous():
    first = _fragment("circle", [0.0, 1.0, 0.0], axis=2, value=0.0, dim=1)
    second = _fragment("circle", [0.0, 1.0, 5e-4], axis=2, value=5e-4, dim=1)
    components, ambiguous = _merged([first, second])
    assert components == [first, second] and ambiguous
    # the same values on another axis are another family, far from this one
    other = _fragment("circle", [1.0, 0.0, 0.0], axis=1, value=5e-4, dim=1)
    components, ambiguous = _merged([first, other])
    assert components == [first, other] and not ambiguous


def test_points_0_05_apart_stay_separate_and_are_ambiguous():
    first = _fragment("point", [0.0, 0.0, 1.0])
    second = _fragment("point", [0.05, 0.0, np.sqrt(1.0 - 0.05**2)])
    components, ambiguous = _merged([first, second])
    assert components == [first, second] and ambiguous
    far = _fragment("point", [1.0, 0.0, 0.0])
    components, ambiguous = _merged([first, far])
    assert components == [first, far] and not ambiguous


def test_cluster_fragments_never_merge():
    first = _fragment("cluster", [0.0, 0.0, 1.0], dim=1)
    second = _fragment("cluster", [0.0, 0.0, 1.0], dim=1)
    components, ambiguous = _merged([first, second])
    assert components == [first, second] and not ambiguous


def test_classify_samples_each_latitude_once(monkeypatch):
    # hyperbolic 4-space splits its three hyperspheres into hundreds of
    # fragments; only the first fragment of each samples its latitude
    sampled = []
    sample = liegroups._Predicate.sample

    def recorded(self, rng, count, dim):
        sampled.append((self.axis, round(self.value, 6)))
        return sample(self, rng, count, dim)

    monkeypatch.setattr(liegroups._Predicate, "sample", recorded)
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
    counts = {}
    for model, problem, resolution in cases:
        sampled.clear()
        clusters = classify(model, problem, resolution=resolution).clusters
        assert len(set(sampled)) == len(sampled)
        counts[model.name, model.dim, model.params] = (clusters, len(sampled))
    assert counts["hyperbolic", 4, (1.0,)] == (503, 3)
    assert sum(sampled for _, sampled in counts.values()) == 14
