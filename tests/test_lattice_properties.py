"""Property tests of the lattice calculus and the identities built on it.

The flat derivatives run on the ``rfft2`` half spectrum; each must equal
the full complex spectrum's derivative with the same Nyquist rule, built
here independently from ``lattice.frequencies`` and ``lattice.wavevector``,
and the Laplacian must equal minus the divergence of the gradient on white noise.
Gauss-Bonnet and the winding round trip hold for every lattice, grid,
exponent and class, and the kernel's Parseval product and Hermitian
projection, on which PCG runs, for every lattice and grid; a
solve's report equals ``bienergy`` and the flat ``el_residual`` bit for bit,
and the solve on work arrays the plain-expression reference of ``oracles``;
the energy's two quadratic identities along ``theta +- beta`` tie it to the
kernel and the source at roundoff for every class, base and direction;
an exponent of the first lattice coordinate alone gives a field constant
along the second generator; and scaling the generators by L while adding
ln L to the exponent, the homothety the conformal factor undoes, leaves the
field and its energies as they are.  All are checked over random oblique lattices
and even grids of 8 to 32 points per side; bounds are roundoff scaled by the
largest symbol involved, or a multiple of the solve tolerance; only the
homothety's are measured constants.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torusfield.angles import (
    AngleField,
    HomotopyClass,
    _constant_gradient,
    angle_to_unit_field,
    winding_class,
)
from torusfield.conformal import ConformalStructure, ResolutionWarning
from torusfield.energy import bienergy, el_residual, right_hand_side
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    _laplacian_multiplier,
    bandlimited_field,
    flat_divergence,
    flat_gradient,
    flat_laplacian,
    resolution_fraction,
    rotate_J,
)
from torusfield.solver import (
    SolveOptions,
    _Kernel,
    _report,
    section_rigidity_check,
    solve_homotopy_class,
)
from torusfield.stability import variation_check

from oracles import plain_solve

EPS = np.finfo(float).eps
TWO_PI = 2.0 * np.pi

#: bounds of the homothety property, each at most 10x the worst value measured
#: over its draws: the field gap relative to max(1, max|alpha|), the energies'
#: relative gap, and the multiple of eps |ln L| / ptp(u) that the roundoff of the
#: shift adds to the latter
HOMOTHETY_FIELD_GAP = 3e-10
HOMOTHETY_ENERGY_GAP = 1e-10
HOMOTHETY_SHIFT_FACTOR = 300.0

#: amplitudes of the drawn exponents, bounded away from 0: hypothesis favours
#: the ends of a range and tiny floats, and from 0.0 it drew amplitudes below
#: 1e-12, that is flat metrics, in 25 to 41 of each property's 100 examples;
#: each property takes its flat case from one explicit example on FLAT instead
AMPLITUDES = st.floats(0.05, 0.5)
SIGNED_AMPLITUDES = st.builds(lambda size, sign: sign * size, AMPLITUDES, st.sampled_from([1.0, -1.0]))
FLAT = LatticeSpec((1.0, 0.1), (0.3, 1.2), 12, 10)

#: direction of every first derivative under test; None is the Laplacian
OPERATORS = [1, 2, None]


@st.composite
def lattices(draw) -> LatticeSpec:
    spread = st.floats(-0.4, 0.4)
    length = st.floats(0.5, 2.0)
    d1 = (draw(length), draw(spread))
    d2 = (draw(spread), draw(length))
    n1, n2 = (2 * draw(st.integers(4, 16)) for _ in range(2))
    return LatticeSpec(d1, d2, n1, n2)


def _structure(lattice: LatticeSpec, rng: np.random.Generator, band: int, amplitude: float):
    u = bandlimited_field(lattice, rng, band=band, amplitude=amplitude)
    with warnings.catch_warnings():
        # coarse grids flag exponents that are resolved only to ~1e-6
        warnings.simplefilter("ignore")
        return ConformalStructure.from_exponent(u)


def _full_spectrum_multiplier(lattice: LatticeSpec, direction: int | None) -> np.ndarray:
    """``i k_direction`` on the whole ``fft2`` spectrum; with
    ``direction=None``, the geometer Laplacian ``|k|^2``.  Both vanish on the
    Nyquist lines, the Laplacian as a sum of squared masked first derivatives.
    """
    P, Q = lattice.frequencies
    nyquist = (P == -lattice.n1 // 2) | (Q == -lattice.n2 // 2)
    k = lattice.wavevector(P, Q)
    symbol = np.sum(k**2, axis=-1) if direction is None else 1j * k[..., direction - 1]
    return np.where(nyquist, 0.0, symbol)


@given(lattices(), st.sampled_from(OPERATORS), st.integers(0, 2**32 - 1))
def test_half_spectrum_derivatives_equal_the_full_spectrum(lattice, direction, seed):
    f = ScalarField(lattice, np.random.default_rng(seed).standard_normal(lattice.shape))
    mult = _full_spectrum_multiplier(lattice, direction)
    reference = np.fft.ifft2(mult * np.fft.fft2(f.values)).real
    if direction is None:
        got = flat_laplacian(f).values
    else:
        got = getattr(flat_gradient(f), f"comp{direction}").values
    gap = np.max(np.abs(got - reference))
    assert gap <= 10.0 * EPS * np.max(np.abs(mult)) * f.max_abs()


@given(lattices(), st.integers(0, 2**32 - 1))
def test_laplacian_composes_the_first_derivatives_on_white_noise(lattice, seed):
    # white noise fills the Nyquist lines, where the one rule zeroes the
    # Laplacian and the divergence of the gradient alike
    rng = np.random.default_rng(seed)
    f = ScalarField(lattice, rng.standard_normal(lattice.shape))
    lap = _laplacian_multiplier(lattice)
    gap = (flat_laplacian(f) + flat_divergence(flat_gradient(f))).max_abs()
    assert gap <= 10.0 * EPS * np.max(lap) * f.max_abs()
    assert _structure(lattice, rng, 2, 0.3).kernel.lap is lap


@given(lattices(), st.integers(1, 3), AMPLITUDES, st.integers(0, 2**32 - 1))
@example(FLAT, 1, 0.0, 0)
def test_total_curvature_vanishes_on_random_structures(lattice, band, amplitude, seed):
    # Gauss-Bonnet on a torus: kg e^{-2u} = -flat_lap u, whose multiplier
    # is zero on the mean, so only the roundoff of the transforms is left
    cs = _structure(lattice, np.random.default_rng(seed), band, amplitude)
    scale = lattice.area * cs.kg.max_abs() * cs.em2u.max_abs()
    assert abs(cs.integrate(cs.kg)) <= 10.0 * EPS * scale


@given(
    lattices(),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(1, 3),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_winding_class_survives_the_unit_field(lattice, m, n, band, amplitude, seed):
    # a grid step moves the linear part by at most 2pi*2/8 = pi/2 and, by
    # Bernstein's inequality, alpha by at most 2pi*band*amplitude/8 < pi/2,
    # so every increment stays below pi and the winding is certified
    alpha = bandlimited_field(lattice, np.random.default_rng(seed), band=band, amplitude=amplitude)
    cls = HomotopyClass(m, n)
    assert winding_class(angle_to_unit_field(AngleField(cls, alpha))) == cls


@given(lattices(), st.integers(-5, 5), st.integers(-5, 5))
def test_constant_gradient_is_the_representative_gradient(lattice, m, n):
    cls = HomotopyClass(m, n)
    y0 = np.array(_constant_gradient(cls, lattice))
    # the dual relations <Y0, d1> = 2 pi m and <Y0, d2> = 2 pi n, to the
    # roundoff of inverting the generator matrix
    bound = 8.0 * EPS * np.linalg.cond(np.array([lattice.d1, lattice.d2])) * TWO_PI * (abs(m) + abs(n))
    assert abs(float(y0 @ np.array(lattice.d1)) - TWO_PI * m) <= bound
    assert abs(float(y0 @ np.array(lattice.d2)) - TWO_PI * n) <= bound


_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)


def _passes(forward: int, inverse: int) -> dict[str, int]:
    """The 1-D passes of the kernel's 2-D transforms: ``rfft`` then ``fft``
    forward, ``ifft`` then ``irfft`` inverse."""
    return {"rfft": forward, "fft": forward, "ifft": inverse, "irfft": inverse}


def _count_transforms(monkeypatch, call) -> dict[str, int]:
    counts = dict.fromkeys(_TRANSFORMS, 0)
    for name in _TRANSFORMS:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    call()
    monkeypatch.undo()
    return {name: count for name, count in counts.items() if count}


@pytest.mark.parametrize(
    "layer, expected",
    [
        # the lattice's free functions run at set-up and in the oracles, and
        # keep NumPy's 2-D transforms; the kernel's run as two 1-D passes each
        ("flat_laplacian", {"rfft2": 1, "irfft2": 1}),
        ("kernel_apply", _passes(4, 4)),
        # M on a half spectrum
        ("kernel_precondition", _passes(1, 1)),
        # the flat residual is the kernel plus the flat source; the report's
        # criticality is handed P alpha, so it transforms nothing
        ("el_residual", _passes(6, 5)),
        ("criticality", {}),
        # with J grad u kept on the structure, the source is one divergence
        # summed before one inverse transform, and the energy one forward
        # transform of alpha, read by the resolution check and by the kernel's
        # derivatives (flat_lap alpha, grad alpha)
        ("right_hand_side", _passes(2, 1)),
        ("bienergy", _passes(1, 3)),
        ("flat_gradient", {"rfft2": 1, "irfft2": 2}),
        ("resolution_fraction", {"rfft2": 1}),
        # P's leading-order term alone, as the rigidity check applies it
        ("kernel_bilaplacian", _passes(1, 1)),
        # a solve's report: one derivative pass of alpha gives the energy and,
        # finished, P alpha for the criticality residual
        ("report", _passes(4, 4)),
        # the flat source and the report's derivative pass as the kernel's own ops
        ("kernel_source", _passes(2, 1)),
        ("kernel_evaluate", _passes(4, 4)),
    ],
)
@pytest.mark.filterwarnings("ignore::torusfield.conformal.ResolutionWarning")
def test_transform_counts_are_pinned(monkeypatch, layer, expected):
    lattice = LatticeSpec((1.0, 0.0), (0.5, 1.5), 16, 12)
    cs = _structure(lattice, np.random.default_rng(0), 2, 0.3)
    kernel = _Kernel(cs)
    h = np.random.default_rng(1).standard_normal(lattice.shape)
    spectrum = np.fft.rfft2(h)
    theta = AngleField(HomotopyClass(1, -1), ScalarField(lattice, h))
    source = right_hand_side(cs, theta.homotopy, "flat_weighted").values
    applied = kernel.apply(h)
    calls = {
        "flat_laplacian": lambda: flat_laplacian(cs.u),
        "kernel_apply": lambda: kernel.apply(h),
        "kernel_precondition": lambda: kernel.precondition_spectrum(spectrum),
        "kernel_bilaplacian": lambda: kernel.bilaplacian_spectrum(spectrum),
        "el_residual": lambda: el_residual(cs, theta, "flat_weighted"),
        "criticality": lambda: kernel.criticality(applied, source, weighted=True),
        "right_hand_side": lambda: right_hand_side(cs, theta.homotopy, "flat_weighted"),
        "kernel_source": lambda: kernel.source(theta.homotopy),
        "kernel_evaluate": lambda: kernel.evaluate(h),
        "bienergy": lambda: bienergy(cs, theta),
        "report": lambda: _report(cs, theta, SolveOptions(), source, [1.0], 0.0),
        "flat_gradient": lambda: flat_gradient(cs.u),
        "resolution_fraction": lambda: resolution_fraction(cs.u),
    }
    assert _count_transforms(monkeypatch, calls[layer]) == expected


@pytest.mark.filterwarnings("ignore::torusfield.conformal.ResolutionWarning")
def test_solve_makes_eight_transforms_per_iteration(monkeypatch):
    # P and M on the half spectrum (3 + 3 and 1 + 1) per iteration, less
    # the last M; around them the source (2 + 1), the transforms of b and
    # of the solution, the first M, and the report (4 + 4: one derivative
    # pass of alpha for the energy and P alpha)
    lattice = LatticeSpec((1.0, 0.0), (0.5, 1.5), 16, 12)
    cs = _structure(lattice, np.random.default_rng(0), 2, 0.3)
    # the first solve also derives what the structure keeps (kg, J grad u);
    # basis class (1, 0) is not solved yet
    solve_homotopy_class(cs, HomotopyClass(0, 1))
    solved = []
    counts = _count_transforms(
        monkeypatch, lambda: solved.append(solve_homotopy_class(cs, HomotopyClass(1, 0)))
    )
    iterations = solved[0][1].iterations
    assert iterations > 0
    assert counts == _passes(4 * iterations + 7, 4 * iterations + 6)
    assert sum(counts.values()) == 2 * (8 * iterations + 13)


@pytest.mark.filterwarnings("ignore::torusfield.conformal.ResolutionWarning")
def test_class_from_a_cached_basis_runs_no_iteration(monkeypatch):
    # (2, -1) is 2 alpha(1, 0) - alpha(0, 1), both solved: its source (2 + 1),
    # the transform of b for its norm, and the report (4 + 4)
    lattice = LatticeSpec((1.0, 0.0), (0.5, 1.5), 16, 12)
    cs = _structure(lattice, np.random.default_rng(0), 2, 0.3)
    basis = [solve_homotopy_class(cs, HomotopyClass(*klass))[1] for klass in [(1, 0), (0, 1)]]
    solved = []
    counts = _count_transforms(
        monkeypatch, lambda: solved.append(solve_homotopy_class(cs, HomotopyClass(2, -1)))
    )
    assert counts == _passes(7, 5)
    assert solved[0][1].iterations == sum(report.iterations for report in basis) > 0


@pytest.mark.filterwarnings("ignore::torusfield.conformal.ResolutionWarning")
def test_rigidity_check_makes_four_transforms_per_step(monkeypatch):
    # M on the half spectrum (1 + 1) per step, after the one forward transform
    # of the random start, and one bilaplacian (1 + 1) for the quotient
    lattice = LatticeSpec((1.0, 0.0), (0.5, 1.5), 16, 12)
    cs = _structure(lattice, np.random.default_rng(0), 2, 0.3)
    cs.kernel  # built once per structure, outside the count
    steps = []
    original = _Kernel.precondition_spectrum

    def counted(self, spectrum):
        steps.append(1)
        return original(self, spectrum)

    monkeypatch.setattr(_Kernel, "precondition_spectrum", counted)
    counts = _count_transforms(monkeypatch, lambda: section_rigidity_check(cs))
    assert len(steps) > 0
    assert counts == _passes(len(steps) + 2, len(steps) + 1)


def _full_spectrum_resolution_fraction(f: ScalarField) -> tuple[float, float]:
    """Share of the non-mean ``fft2`` energy with ``|p| >= n1/3`` or
    ``|q| >= n2/3``, and that non-mean energy."""
    P, Q = f.lattice.frequencies
    energy = np.abs(np.fft.fft2(f.values)) ** 2
    energy[0, 0] = 0.0
    top = (np.abs(P) >= f.lattice.n1 / 3.0) | (np.abs(Q) >= f.lattice.n2 / 3.0)
    total = float(np.sum(energy))
    return float(np.sum(energy[top])) / total, total


@given(
    lattices(),
    st.integers(0, 8),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_half_spectrum_layers_equal_their_full_derivations(lattice, decades, mean, seed):
    # a smooth field plus white noise, which fills the Nyquist lines, from
    # 1e-8 of the smooth part up to its size
    assume(lattice.n1 != lattice.n2)
    rng = np.random.default_rng(seed)
    smooth = bandlimited_field(lattice, rng, band=3).values
    f = ScalarField(lattice, smooth + mean + 10.0**-decades * rng.standard_normal(lattice.shape))

    # a ratio of energy sums whose coefficients are off by the transforms'
    # roundoff, ulp times the whole energy (Parseval, mean included)
    reference, energy = _full_spectrum_resolution_fraction(f)
    ulp = EPS * np.log2(lattice.n1 * lattice.n2)
    everything = lattice.n1 * lattice.n2 * float(np.sum(f.values**2))
    bound = (ulp * np.sqrt(reference * energy * everything) + ulp**2 * everything) / energy
    assert abs(resolution_fraction(f) - reference) <= 2.0 * bound

    cs = ConformalStructure(f)
    cached, direct = cs.jgrad_u, rotate_J(flat_gradient(f))
    np.testing.assert_array_equal(cached.comp1.values, direct.comp1.values)
    np.testing.assert_array_equal(cached.comp2.values, direct.comp2.values)


#: n x 4 grids, on which NumPy's 2-D wrappers cost the most beside the passes
THIN_LATTICES = st.builds(
    lambda lattice, n1: LatticeSpec(lattice.d1, lattice.d2, n1, 4), lattices(), st.integers(2, 256).map(lambda h: 2 * h)
)


@given(st.one_of(lattices(), THIN_LATTICES), st.integers(0, 2**32 - 1))
def test_kernel_transforms_are_numpys_2d_transforms_byte_for_byte(lattice, seed):
    rng = np.random.default_rng(seed)
    kernel = _Kernel(_structure(lattice, rng, 2, 0.3))
    x = rng.standard_normal(lattice.shape)
    # any half spectrum, its edge columns far from conjugate pairs
    spectrum = rng.standard_normal(kernel.lap.shape) + 1j * rng.standard_normal(kernel.lap.shape)
    pairs = [
        (kernel.forward(x), np.fft.rfft2(x)),
        (kernel.inverse(spectrum.copy()), np.fft.irfft2(spectrum)),
    ]
    for got, want in pairs:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    work = np.empty_like(spectrum)
    assert kernel.forward(x, out=work) is work
    assert work.tobytes() == pairs[0][1].tobytes()


@given(lattices(), st.integers(0, 2**32 - 1))
def test_parseval_product_of_half_spectra_is_the_flat_sum_product(lattice, seed):
    rng = np.random.default_rng(seed)
    kernel = _Kernel(_structure(lattice, rng, 2, 0.3))
    x, y = rng.standard_normal((2, *lattice.shape))
    gap = abs(kernel.inner(np.fft.rfft2(x), np.fft.rfft2(y)) - float(np.sum(x * y)))
    ulp = EPS * np.log2(lattice.n1 * lattice.n2)
    assert gap <= 2.0 * ulp * np.linalg.norm(x) * np.linalg.norm(y)


@given(lattices(), st.integers(0, 2**32 - 1))
def test_hermitian_projection_keeps_what_irfft2_sees(lattice, seed):
    # any half spectrum, its edge columns far from conjugate pairs
    rng = np.random.default_rng(seed)
    kernel = _Kernel(_structure(lattice, rng, 2, 0.3))
    shape = (lattice.n1, lattice.n2 // 2 + 1)
    spectrum = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    once = kernel.hermitian(spectrum.copy())
    np.testing.assert_array_equal(kernel.hermitian(once.copy()), once)
    edges = once[:, [0, -1]]
    np.testing.assert_array_equal(edges[-np.arange(lattice.n1) % lattice.n1], edges.conj())
    points = lattice.n1 * lattice.n2
    gap = np.max(np.abs(np.fft.irfft2(once) - np.fft.irfft2(spectrum)))
    assert gap <= 2.0 * EPS * np.log2(points) * np.linalg.norm(spectrum) / np.sqrt(points)


@given(lattices(), st.integers(1, 3), AMPLITUDES, st.integers(0, 2**32 - 1))
@example(FLAT, 1, 0.0, 0)
def test_spectral_kernel_is_symmetric_in_the_parseval_product(lattice, band, amplitude, seed):
    rng = np.random.default_rng(seed)
    cs = _structure(lattice, rng, band, amplitude)
    kernel = _Kernel(cs)
    x, y = rng.standard_normal((2, *lattice.shape))
    f, g = np.fft.rfft2(x), np.fft.rfft2(y)
    gap = abs(kernel.inner(kernel.apply_spectrum(f), g) - kernel.inner(f, kernel.apply_spectrum(g)))
    lap_max = float(np.max(kernel.lap))
    symbol = float(np.max(cs.e2u.values)) * lap_max**2 + float(np.max(cs.kg_sq.values)) * lap_max
    assert gap <= 10.0 * EPS * symbol * np.linalg.norm(x) * np.linalg.norm(y)


@given(
    lattices(),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(1, 16),
    st.floats(0.0, 2.0),
    st.sampled_from(["curved", "flat_weighted"]),
    st.integers(0, 2**32 - 1),
)
def test_report_energy_and_residual_are_the_public_routines_bit_for_bit(
    lattice, m, n, band, amplitude, formulation, seed
):
    # the report takes one derivative pass of alpha for both; wide bands
    # under-resolve the angle, and the energy's warning still names its caller
    rng = np.random.default_rng(seed)
    cs = _structure(lattice, rng, 2, 0.3)
    theta = AngleField(HomotopyClass(m, n), bandlimited_field(lattice, rng, band=band, amplitude=amplitude))
    source = right_hand_side(cs, theta.homotopy, "flat_weighted").values
    with warnings.catch_warnings(record=True) as from_report:
        warnings.simplefilter("always")
        report = _report(cs, theta, SolveOptions(formulation=formulation), source, [1.0], 0.0)
    with warnings.catch_warnings(record=True) as from_energy:
        warnings.simplefilter("always")
        energy = bienergy(cs, theta)
    assert [w.category for w in from_report] == [w.category for w in from_energy]
    assert all(w.category is ResolutionWarning and w.filename == __file__ for w in from_energy)
    for name in energy._fields:
        assert getattr(report.energy, name) == getattr(energy, name)
    weight = cs.e2u.values if formulation == "curved" else 1.0
    residual = weight * el_residual(cs, theta, "flat_weighted").values
    assert report.el_residual_maxnorm == float(np.max(np.abs(residual)))


@given(
    lattices(),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(1, 3),
    AMPLITUDES,
    st.sampled_from(["curved", "flat_weighted"]),
    st.integers(0, 2**32 - 1),
)
@example(FLAT, 1, -1, 1, 0.0, "curved", 0)
def test_solve_on_work_arrays_is_the_plain_reference_bit_for_bit(
    lattice, m, n, band, amplitude, formulation, seed
):
    # every step of the solve writes into the call's work arrays; the same
    # operations on fresh arrays, in the same order, give the same bits
    cs = _structure(lattice, np.random.default_rng(seed), band, amplitude)
    homotopy = HomotopyClass(m, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        theta, report = solve_homotopy_class(cs, homotopy, SolveOptions(formulation=formulation))
    plain = plain_solve(cs, homotopy, formulation=formulation)
    assert np.array_equal(theta.periodic.values, plain.alpha)
    assert report.residual_history == tuple(plain.residual_history)
    assert report.energy == plain.energy
    assert report.el_residual_maxnorm == plain.el_residual_maxnorm


@settings(max_examples=40)
@given(
    lattices(),
    SIGNED_AMPLITUDES,
    SIGNED_AMPLITUDES,
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(-2, 2),
    st.integers(-2, 2),
)
@example(FLAT, 0.0, 0.0, 1, 1, 1, -1)
def test_one_variable_exponent_gives_a_field_constant_along_the_second_generator(
    lattice, a, b, k, l, m, n
):
    # u = a sin(2 pi k lambda1) + b cos(2 pi l lambda1) makes the source and P
    # functions of lambda1 alone, so the exact field is one too.  A power-of-two
    # transform along lambda2 leaves the other q modes exactly zero; other
    # lengths seed them with roundoff, which PCG carries to within its tolerance
    lam1, _ = lattice.fractional_coords
    u = a * np.sin(TWO_PI * k * lam1) + b * np.cos(TWO_PI * l * lam1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        cs = ConformalStructure.from_exponent(ScalarField(lattice, u))
        theta, _ = solve_homotopy_class(cs, HomotopyClass(m, n))
    alpha = theta.periodic.values
    spread = float(np.max(np.ptp(alpha, axis=1)))
    if lattice.n2 & (lattice.n2 - 1) == 0:
        assert spread == 0.0
    else:
        assert spread <= 100.0 * SolveOptions().tolerance * float(np.max(np.abs(alpha)))


@settings(max_examples=40)
@given(
    lattices(),
    st.integers(1, 3),
    st.floats(0.05, 0.5),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.sampled_from([1e-3, 0.1, 10.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
# exponents weaker than 0.05 come in through this one: the roundoff of the
# shift moves its energies by up to 1e-3, which the bound's shift term allows
@example(LatticeSpec((1.0, 0.1), (0.3, 1.2), 26, 26), 3, 1e-11, 0, 0, 0.1, 0)
def test_the_solve_is_invariant_under_the_homothety_the_conformal_factor_undoes(
    lattice, band, amplitude, m, n, scale, seed
):
    # scaling both generators by L scales the flat metric by L^2, and adding
    # ln L to u divides e^{-2u} by L^2: the metric is the same, so the field in
    # fractional coordinates and the energies are the same, up to the solve's
    # tolerance (the iteration counts may differ).  On a grid of 2^-40, |u| <= 0.5
    # takes ln L without rounding, but the transforms of u + ln L leave roundoff
    # eps |ln L| beside u's variation, a share of the energies that grows as the
    # exponent weakens and is all there is on a constant one
    u = bandlimited_field(lattice, np.random.default_rng(seed), band=band, amplitude=amplitude).values
    u = np.round(u * 2.0**40) / 2.0**40
    scaled = LatticeSpec(tuple(scale * c for c in lattice.d1), tuple(scale * c for c in lattice.d2), *lattice.shape)
    solves = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        for exponent in (ScalarField(lattice, u), ScalarField(scaled, u + np.log(scale))):
            solves.append(solve_homotopy_class(ConformalStructure.from_exponent(exponent), HomotopyClass(m, n)))
    (theta, report), (theta_scaled, report_scaled) = solves
    alpha, alpha_scaled = theta.periodic.values, theta_scaled.periodic.values
    field_gap = float(np.max(np.abs(alpha - alpha_scaled))) / max(1.0, float(np.max(np.abs(alpha))))
    energy_gap = max(
        abs(a - b) / max(abs(a), np.finfo(float).tiny) for a, b in zip(report.energy, report_scaled.energy)
    )
    shift_roundoff = EPS * abs(np.log(scale)) / max(float(np.ptp(u)), np.finfo(float).tiny)
    assert field_gap <= HOMOTHETY_FIELD_GAP
    assert energy_gap <= HOMOTHETY_ENERGY_GAP + HOMOTHETY_SHIFT_FACTOR * shift_roundoff


def _variations(lattice: LatticeSpec, rng: np.random.Generator, band: int, amplitude: float,
                homotopy: HomotopyClass, size: float, step: float):
    """:func:`variation_check` at a random base of ``homotopy`` and along a random direction."""
    cs = _structure(lattice, rng, band, amplitude)
    theta = AngleField(homotopy, bandlimited_field(lattice, rng, band=4, amplitude=size))
    beta = bandlimited_field(lattice, rng, band=3, amplitude=step)
    residual = el_residual(cs, theta, "flat_weighted")
    return variation_check(cs, theta, bienergy(cs, theta).bienergy, beta, residual)


@pytest.mark.filterwarnings("ignore::torusfield.conformal.ResolutionWarning")
@given(
    lattices(),
    st.integers(1, 3),
    AMPLITUDES,
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.floats(0.0, 2.0),
    st.floats(0.0, 5.0),
    st.integers(0, 2**32 - 1),
)
@example(FLAT, 1, 0.0, 1, -1, 1.0, 1.0, 0)
def test_energy_variations_match_the_kernel_and_the_source(lattice, band, amplitude, m, n, size, step, seed):
    # the energy is quadratic in alpha, so both identities hold at any base
    # and with no step: a correct kernel and source read a few eps
    rng = np.random.default_rng(seed)
    # ok: the quadratic is nonnegative and both gaps are within 1e3 eps S
    _, _, ok, note = _variations(lattice, rng, band, amplitude, HomotopyClass(m, n), size, step)
    assert ok, note


@pytest.mark.filterwarnings("ignore::torusfield.conformal.ResolutionWarning")
@pytest.mark.parametrize(
    "lattice",
    [LatticeSpec.unit_square(8), LatticeSpec((1.0, 0.0), (0.5, 1.5), 16, 12), LatticeSpec.unit_square(64)],
)
def test_energy_variations_fail_a_transport_term_one_percent_off(monkeypatch, lattice):
    # the property above is not vacuous: a kernel whose transport term is
    # scaled by 0.99 stays symmetric and positive but is not the Hessian
    def transport_off(self, spectrum):
        out = self.bilaplacian_spectrum(spectrum)
        for d in (self.d1, self.d2):
            out -= 0.99 * d * np.fft.rfft2(self.kg_sq * np.fft.irfft2(d * spectrum))
        return out

    monkeypatch.setattr(_Kernel, "apply_spectrum", transport_off)
    _, _, ok, note = _variations(lattice, np.random.default_rng(3), 2, 0.3, HomotopyClass(1, -1), 1.0, 1.0)
    assert not ok, note
