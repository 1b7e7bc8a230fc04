"""Property tests of the lattice calculus and the identities built on it.

The flat derivatives run on the ``rfft2`` half spectrum; each must equal
the full complex spectrum's derivative with the same alias and Nyquist
rules, built here independently from ``lattice.frequencies`` and
``lattice.wavevector``.  Gauss-Bonnet and the winding round trip hold for
every lattice, grid, exponent and class.  All are checked over random
oblique lattices and even grids of 8 to 32 points per side; bounds are
roundoff scaled by the largest symbol involved, never fixed constants.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusfield.angles import AngleField, HomotopyClass, angle_to_unit_field, winding_class
from torusfield.conformal import ConformalStructure
from torusfield.energy import el_residual
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    bandlimited_field,
    flat_laplacian,
    spectral_derivative,
)
from torusfield.solver import _Kernel, _criticality, right_hand_side

EPS = np.finfo(float).eps


#: (direction, order) of every derivative under test; direction None is the Laplacian
OPERATORS = [(d, order) for d in (1, 2) for order in (1, 2, 3, 4)] + [(None, 2)]


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


def _full_spectrum_multiplier(lattice: LatticeSpec, direction: int | None, order: int) -> np.ndarray:
    """``(i k_direction)^order`` on the whole ``fft2`` spectrum; with
    ``direction=None``, the geometer Laplacian ``|k|^2``.

    Odd orders and the Laplacian (a sum of squared masked first
    derivatives) vanish on the Nyquist lines; even orders average over the
    alias representatives ``p = +-n1/2`` and ``q = +-n2/2``.
    """
    P, Q = lattice.frequencies
    nyquist = (P == -lattice.n1 // 2) | (Q == -lattice.n2 // 2)
    if direction is None:
        return np.where(nyquist, 0.0, np.sum(lattice.wavevector(P, Q) ** 2, axis=-1))
    if order % 2 == 1:
        symbol = (1j * lattice.wavevector(P, Q)[..., direction - 1]) ** order
        return np.where(nyquist, 0.0, symbol)
    aliases_p = (P, np.where(P == -lattice.n1 // 2, -P, P))
    aliases_q = (Q, np.where(Q == -lattice.n2 // 2, -Q, Q))
    symbols = [
        (1j * lattice.wavevector(p, q)[..., direction - 1]) ** order
        for p in aliases_p
        for q in aliases_q
    ]
    return np.mean(symbols, axis=0)


@given(lattices(), st.sampled_from(OPERATORS), st.integers(0, 2**32 - 1))
def test_half_spectrum_derivatives_equal_the_full_spectrum(lattice, operator, seed):
    direction, order = operator
    f = ScalarField(lattice, np.random.default_rng(seed).standard_normal(lattice.shape))
    mult = _full_spectrum_multiplier(lattice, direction, order)
    reference = np.fft.ifft2(mult * np.fft.fft2(f.values)).real
    if direction is None:
        got = flat_laplacian(f).values
    else:
        got = spectral_derivative(f, direction, order).values
    gap = np.max(np.abs(got - reference))
    assert gap <= 10.0 * EPS * np.max(np.abs(mult)) * f.max_abs()


@given(lattices(), st.integers(1, 3), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
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


_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)


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
        ("flat_laplacian", {"rfft2": 1, "irfft2": 1}),
        ("kernel_apply", {"rfft2": 4, "irfft2": 4}),
        ("kernel_precondition", {"rfft2": 2, "irfft2": 2}),
        # the flat residual is the kernel plus the flat source, and the
        # report's criticality reuses both: no second assembly of P
        ("el_residual", {"rfft2": 8, "irfft2": 8}),
        ("criticality", {"rfft2": 4, "irfft2": 4}),
    ],
)
def test_transform_counts_are_pinned(monkeypatch, layer, expected):
    lattice = LatticeSpec((1.0, 0.0), (0.5, 1.5), 16, 12)
    cs = _structure(lattice, np.random.default_rng(0), 2, 0.3)
    kernel = _Kernel(cs)
    h = np.random.default_rng(1).standard_normal(lattice.shape)
    theta = AngleField(HomotopyClass(1, -1), ScalarField(lattice, h))
    source = right_hand_side(cs, theta.homotopy, "flat_weighted")
    calls = {
        "flat_laplacian": lambda: flat_laplacian(cs.u),
        "kernel_apply": lambda: kernel.apply(h),
        "kernel_precondition": lambda: kernel.precondition(h),
        "el_residual": lambda: el_residual(cs, theta, "flat_weighted"),
        "criticality": lambda: _criticality(kernel, theta, source, "curved"),
    }
    assert _count_transforms(monkeypatch, calls[layer]) == expected
