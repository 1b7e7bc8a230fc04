"""Property tests of the spectral kernel, its preconditioner, and the
rigidity estimate built on them.

Each identity holds for every lattice, grid, exponent and field, so each is
checked over random oblique lattices, even grids of 8 to 32 points per side
(16 where a dense matrix of the operator is the oracle), band-limited
exponents of amplitude at most 0.5, and random fields.  Bounds are roundoff
scaled by the largest symbol involved, never fixed constants.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusfield.conformal import ConformalStructure
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    _laplacian_multiplier,
    bandlimited_field,
    flat_laplacian,
)
from torusfield.solver import _Kernel, apply_operator_P, section_rigidity_check

EPS = np.finfo(float).eps


class Case:
    """One random draw: a structure, its kernel, and a generator for fields."""

    def __init__(self, d1, d2, n1, n2, band, amplitude, seed):
        self.lattice = LatticeSpec(d1, d2, n1, n2)
        self.rng = np.random.default_rng(seed)
        u = bandlimited_field(self.lattice, self.rng, band=band, amplitude=amplitude)
        with warnings.catch_warnings():
            # coarse grids flag exponents that are resolved only to ~1e-6
            warnings.simplefilter("ignore")
            self.cs = ConformalStructure.from_exponent(u)
        self.kernel = _Kernel(self.cs)
        lap = _laplacian_multiplier(self.lattice)
        self.lap_max = float(np.max(lap))
        self.lap_min = float(np.min(lap[lap != 0.0]))
        # largest symbol of the operator P, and of the preconditioner M
        self.symbol = (
            float(np.max(self.cs.e2u.values)) * self.lap_max**2
            + float(np.max(self.cs.kg_sq.values)) * self.lap_max
        )
        self.inverse_symbol = float(np.max(self.cs.em2u.values)) / self.lap_min**2

    def field(self) -> np.ndarray:
        return self.rng.standard_normal(self.lattice.shape)


def _rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values * values)))


@st.composite
def cases(draw, max_half_points: int = 16) -> Case:
    spread = st.floats(-0.4, 0.4)
    length = st.floats(0.5, 2.0)
    d1 = (draw(length), draw(spread))
    d2 = (draw(spread), draw(length))
    n1, n2 = (2 * draw(st.integers(4, max_half_points)) for _ in range(2))
    band = draw(st.integers(1, 3))
    # the amplitude is bounded away from 0: hypothesis favours the ends of a
    # range and tiny floats, and from 0.0 it drew amplitudes below 1e-12, that
    # is flat metrics, in 15 to 60 of the 100 (or 40) examples of these
    # properties; the flat case is an explicit example
    amplitude = draw(st.floats(0.05, 0.5))
    seed = draw(st.integers(0, 2**32 - 1))
    return Case(d1, d2, n1, n2, band, amplitude, seed)


def flat() -> Case:
    """A case on the flat metric, ``u = 0``, with a generator of its own."""
    return Case((1.0, 0.1), (0.3, 1.2), 12, 10, 1, 0.0, 0)


@given(cases())
@example(flat())
def test_kernel_is_the_curved_oracle_over_the_conformal_factor(case):
    h = case.field()
    kernel = case.kernel.apply(h)
    curved = apply_operator_P(case.cs, ScalarField(case.lattice, h), "curved").values
    gap = np.max(np.abs(kernel - case.cs.em2u.values * curved))
    assert gap <= 100.0 * EPS * case.symbol * np.max(np.abs(h))


@given(cases())
@example(flat())
def test_kernel_is_flat_symmetric(case):
    f, g = case.field(), case.field()
    gap = abs(np.sum(case.kernel.apply(f) * g) - np.sum(f * case.kernel.apply(g)))
    assert gap <= 10.0 * EPS * case.symbol * np.linalg.norm(f) * np.linalg.norm(g)


@given(cases())
@example(flat())
def test_preconditioner_is_flat_symmetric(case):
    f, g = case.field(), case.field()
    kernel = case.kernel
    F, G = np.fft.rfft2(f), np.fft.rfft2(g)
    gap = abs(
        kernel.inner(kernel.precondition_spectrum(F), G)
        - kernel.inner(F, kernel.precondition_spectrum(G))
    )
    assert gap <= 10.0 * EPS * case.inverse_symbol * np.linalg.norm(f) * np.linalg.norm(g)


@given(cases(), st.integers(1, 3))
@example(flat(), 2)
def test_preconditioner_inverts_the_weighted_bilaplacian(case, band):
    # h lies in the resolvable mean-zero subspace (no mean, no Nyquist
    # lines).  M (flat_lap e^{2u} flat_lap) h = h holds exactly but for the
    # part of y = e^{2u} flat_lap h on the Nyquist lines, which the masked
    # Laplacian cannot see: the error is flat_lap^+ e^{-2u} (kappa - N y)
    # with kappa a constant, which bounds its rms norm as below.
    cs, lattice = case.cs, case.lattice
    h = bandlimited_field(lattice, case.rng, band=band).values
    kernel = case.kernel
    applied = kernel.bilaplacian_spectrum(np.fft.rfft2(h))
    error = np.fft.irfft2(kernel.precondition_spectrum(applied)) - h

    y = cs.e2u.values * flat_laplacian(ScalarField(lattice, h)).values
    P, Q = lattice.frequencies
    nyquist = (P == -lattice.n1 // 2) | (Q == -lattice.n2 // 2)
    aliased_rms = np.sqrt(np.sum(np.abs(np.fft.fft2(y)[nyquist]) ** 2)) / y.size
    em2u = cs.em2u.values
    aliasing = np.max(em2u) / case.lap_min * (1.0 + np.max(em2u) / np.mean(em2u)) * aliased_rms
    condition = (case.lap_max / case.lap_min) ** 2 * np.max(cs.e2u.values) * np.max(em2u)

    assert _rms(error) <= aliasing + 100.0 * EPS * condition * _rms(h)


@settings(max_examples=40)
@given(cases(max_half_points=8), st.integers(0, 2**32 - 1))
@example(flat(), 0)
def test_rigidity_estimate_bounds_the_dense_minimum(case, seed):
    # the estimate is a Rayleigh quotient on the operator's range, so it can
    # never undercut the smallest nonzero eigenvalue of the dense matrix of
    # the same operator; how close it comes depends on the seed, so only the
    # bound and the verdict are asserted
    lattice = case.lattice
    bilaplacian = case.kernel.bilaplacian_spectrum
    columns = np.eye(lattice.n1 * lattice.n2).reshape(-1, *lattice.shape)
    dense = np.stack(
        [np.fft.irfft2(bilaplacian(np.fft.rfft2(column))).ravel() for column in columns], axis=1
    )
    eigenvalues = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    # the Laplacian annihilates the mean and the two Nyquist lines
    P, Q = lattice.frequencies
    annihilated = (P == -lattice.n1 // 2) | (Q == -lattice.n2 // 2) | ((P == 0) & (Q == 0))
    null = int(np.count_nonzero(annihilated))
    smallest = eigenvalues[null]
    roundoff = 100.0 * EPS * float(np.max(case.cs.e2u.values)) * case.lap_max**2
    assert np.max(np.abs(eigenvalues[:null])) <= roundoff < smallest

    # every mean-zero quotient is at least min(e^{2u}) lam1^2, the verdict's bound
    assert smallest >= float(np.min(case.cs.e2u.values)) * case.lap_min**2 - roundoff

    certificate = section_rigidity_check(case.cs, seed=seed)
    assert certificate.smallest_rayleigh >= smallest - roundoff
    assert certificate.verdict


@given(cases(), st.floats(-20.0, 20.0), st.integers(0, 3))
def test_rigidity_verdict_holds_on_every_constant_exponent(case, c, seed):
    # u = c is flat: every mean-zero quotient is e^{2c} |k|^4, so the estimate
    # is at least its bound e^{2c} lam1^2 up to roundoff, far inside the 1e-12
    # the verdict allows
    cs = ConformalStructure.from_exponent(ScalarField.from_constant(case.lattice, c))
    certificate = section_rigidity_check(cs, seed=seed)
    bound = float(np.min(cs.e2u.values)) * case.lap_min**2
    assert certificate.smallest_rayleigh >= (1.0 - 1e3 * EPS) * bound
    assert certificate.verdict
