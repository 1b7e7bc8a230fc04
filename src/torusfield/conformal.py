"""Conformally flat torus metrics: curvature, curved calculus, frames.

The torus metric is specified through one periodic function, the conformal
exponent ``u``: the metric of interest is

    ``g = exp(-2u) * (flat metric)``,

equivalently ``exp(2u) * g`` is flat.  Every smooth torus metric arises
this way after uniformization, so ``u`` is the complete input.

Conventions (each pinned by an oracle in the test suite, since the
curvature sign and conformal-factor placement are the classic foot-guns):

* Gaussian curvature: ``k_g = exp(2u) * (d1^2 + d2^2) u``, i.e.
  ``-exp(2u) * flat_laplacian(u)`` with the geometer Laplacian.  Its
  integral against the curved area element vanishes (the torus has zero
  Euler characteristic) — asserted as an invariant.
* Curved gradient: ``grad_g f = exp(2u) * flat_grad f`` (index raised
  with ``g``).
* Curved divergence: ``div_g X = exp(2u) * flat_div(exp(-2u) X)``
  (volume-weighted; makes ``-div_g`` the exact adjoint of ``grad_g``).
* Curved Laplacian: ``lap_g = -div_g grad_g``, built by composition; the
  two-dimensional identity ``lap_g f = exp(2u) * flat_lap f`` is a test,
  not the implementation.
* Norms and measure: ``|X|_g^2 = exp(-2u) * |X|^2`` pointwise for flat
  components, and the curved area element is ``exp(-2u) dxi``.

The canonical orthonormal frame is ``S = exp(u) * (first flat axis)``,
``W = J S``.  Its connection coefficients — the functions ``a, b`` with
``nabla_S S = a W`` and ``nabla_W S = b W`` — come out as
``a = exp(u) d2(u)``, ``b = -exp(u) d1(u)``, so the frame vector
``Z = a S + b W`` has flat components ``-exp(2u) J flat_grad(u)``,
i.e. ``Z = -J grad_g u``.  ``div_g Z`` vanishes identically (it is still
computed numerically wherever a formula calls for it).
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from torusfield.angles import AngleField, HomotopyClass, _constant_gradient
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    VectorFieldFlat,
    _derivative_multiplier,
    _laplacian_multiplier,
    dot,
    flat_divergence,
    flat_gradient,
    flat_laplacian,
    integrate_inner,
    resolution_fraction,
    rotate_J,
)

RESOLUTION_THRESHOLD = 1e-8


class ResolutionWarning(UserWarning):
    """The conformal exponent carries noticeable energy near the Nyquist modes."""


_PACKAGE = os.path.dirname(__file__)
_COMMANDS = os.path.join(_PACKAGE, "cli.py")


def _warn_if_unresolved(field: ScalarField, message: str, spectrum: NDArray | None = None) -> None:
    """Warn ``message.format(fraction=...)`` if more than ``RESOLUTION_THRESHOLD`` of the
    field's spectral energy lies in the top third of frequencies.  The warning names the
    first frame outside the package's library modules; a command in ``cli.py`` is a caller."""
    fraction = resolution_fraction(field, spectrum)
    if fraction > RESOLUTION_THRESHOLD:
        # warnings.warn(skip_file_prefixes=...) would find this frame, but needs Python 3.12
        frame = sys._getframe(1)
        while frame.f_back and (path := frame.f_code.co_filename) != _COMMANDS and os.path.dirname(path) == _PACKAGE:
            frame = frame.f_back
        scope = frame.f_globals
        registry = scope.setdefault("__warningregistry__", {})
        warnings.warn_explicit(message.format(fraction=fraction), ResolutionWarning, frame.f_code.co_filename,
                               frame.f_lineno, scope.get("__name__", "<string>"), registry)


@dataclass(frozen=True, eq=False)
class ConformalStructure:
    """A torus metric ``exp(-2u) * flat`` with its derived curved calculus.
    What depends on ``u`` alone is computed at first use and kept, so one
    structure serves the solves of every winding class: ``jgrad_u = J flat_grad(u)``
    is the one derivative of ``u`` that the energy, the source and the frame read,
    and ``kernel`` the one spectral ``P`` and ``M`` of every flat apply."""

    u: ScalarField

    @classmethod
    def from_exponent(cls, u: ScalarField) -> "ConformalStructure":
        _warn_if_unresolved(u, "conformal exponent has {fraction:.2e} of its spectral energy in the top third "
                               "of frequencies; derived curvatures may be inaccurate — refine the grid")
        return cls(u)

    @property
    def lattice(self) -> LatticeSpec:
        return self.u.lattice

    @cached_property
    def e2u(self) -> ScalarField:
        return ScalarField(self.lattice, np.exp(2.0 * self.u.values))

    @cached_property
    def em2u(self) -> ScalarField:
        return ScalarField(self.lattice, np.exp(-2.0 * self.u.values))

    @cached_property
    def eu(self) -> ScalarField:
        return ScalarField(self.lattice, np.exp(self.u.values))

    @cached_property
    def kg(self) -> ScalarField:
        # a constant exponent is flat, but off powers of two its rfft2 leaves
        # roundoff that e^{2u} amplifies into k_g (0.12 at u = 12 on 30x42)
        lap_u = flat_laplacian(self.u).values if np.ptp(self.u.values) else 0.0
        return ScalarField(self.lattice, -self.e2u.values * lap_u)

    @cached_property
    def kg_sq(self) -> ScalarField:
        return self.kg * self.kg

    @cached_property
    def jgrad_u(self) -> VectorFieldFlat:
        return rotate_J(flat_gradient(self.u))

    @cached_property
    def kernel(self) -> "_Kernel":
        return _Kernel(self)

    # -- curved calculus ----------------------------------------------------------

    def gradient(self, f: ScalarField) -> VectorFieldFlat:
        """``grad_g f`` in flat components: ``exp(2u) * flat gradient``."""
        self._check(f.lattice)
        return self.e2u * flat_gradient(f)

    def divergence(self, X: VectorFieldFlat) -> ScalarField:
        """Volume-weighted divergence ``exp(2u) flat_div(exp(-2u) X)``."""
        self._check(X.lattice)
        return self.e2u * flat_divergence(self.em2u * X)

    def laplacian(self, f: ScalarField) -> ScalarField:
        """Geometer Laplacian ``-div_g grad_g f`` (composition, not shortcut)."""
        return -self.divergence(self.gradient(f))

    def norm_sq(self, X: VectorFieldFlat) -> ScalarField:
        """Pointwise ``|X|_g^2`` of flat components."""
        self._check(X.lattice)
        return self.em2u * dot(X, X)

    def integrate(self, f: ScalarField, g: ScalarField | None = None) -> float:
        """Quadrature against the curved area element ``exp(-2u) dxi``."""
        return integrate_inner(f, g, weight=self.em2u)

    def area(self) -> float:
        """Curved area of the torus."""
        return integrate_inner(self.em2u)

    def _check(self, lattice: LatticeSpec) -> None:
        if lattice != self.lattice:
            raise ValueError("lattice mismatch")


class _Work(NamedTuple):
    """A real array of the grid's shape and two ``rfft2`` half spectra."""

    r0: NDArray
    h0: NDArray
    h1: NDArray


class _Kernel:
    """The flat critical-point equation ``P alpha = b`` of one structure: ``P``
    and the preconditioner ``M`` on ``rfft2`` half spectra, ``P`` on raw arrays
    through one transform each way, and the source ``b`` of a winding class.

    ``lap``, ``d1`` and ``d2`` are the lattice's masked half-spectrum
    multipliers as they are; ``inv_lap`` is the Laplacian's pseudo-inverse,
    zero on the mean and on the Nyquist lines where the Laplacian vanishes.
    ``apply_spectrum`` is ``finish`` (three forward transforms) of ``derivatives``
    (three inverse: ``lap h``, ``d1 h``, ``d2 h``, which the energy reads too);
    ``evaluate`` is that pass on a raw alpha, returning its half spectrum, the
    three derivatives and ``P alpha`` (4 + 4 transforms) for a solve's report;
    ``bilaplacian_spectrum``, the leading-order term, and ``precondition_spectrum``
    cost one of each.  ``source`` is ``flat_div(k_g^2 (Y0 - J grad u))`` (2 + 1).
    ``M`` is symmetric positive semidefinite in the flat product and inverts the
    bilaplacian on mean-zero fields resolved off the Nyquist lines.  ``inner`` is
    the flat product on half spectra (columns 0 and ``n2/2`` count once, the
    others twice); ``hermitian`` keeps of those two columns, in place, what
    ``irfft2`` reads: ``(c(k) + conj c(-k))/2``.

    ``forward`` and ``inverse`` are the two 1-D passes of NumPy's ``rfft2`` and
    ``irfft2``, bit for bit, without their n-d wrappers: ``forward`` writes its
    second pass over its first, into ``out`` if given, and ``inverse`` runs its
    first pass in place, so it overwrites its argument, which must be a
    spectrum its caller owns.  The ops write their intermediate steps into the
    ``_Work`` arrays of ``scratch``: those of the ``working`` block in progress,
    which lends one set to every op until it ends (a solve's is the call), else
    a fresh set per op.  So an op allocates only what it returns, and
    ``precondition_spectrum`` and ``bilaplacian_spectrum`` also the real field
    their inverse returns; ``inner`` allocates nothing.  The ops step through
    ``r0`` and ``h0``, so no argument of an op may be one of them; ``source``
    also through ``h1``, where ``evaluate`` leaves the spectrum it returns,
    which the next ``source`` overwrites.  A kernel is not re-entrant: two
    threads must not run the ops of one structure at once.

    ``bases`` holds the solver's basis solves, by tolerance and class, so they
    live as long as the structure; ``criticality`` and ``roundoff`` measure a
    field's critical-point residual and the floor below which it is noise, and
    ``source_roundoff`` the floor below which a source is noise.
    """

    def __init__(self, cs: ConformalStructure) -> None:
        lattice = cs.lattice
        self.lap = _laplacian_multiplier(lattice)
        self.d1 = _derivative_multiplier(lattice, 1)
        self.d2 = _derivative_multiplier(lattice, 2)
        self.inv_lap = np.divide(1.0, self.lap, out=np.zeros_like(self.lap), where=self.lap != 0.0)
        self.e2u = cs.e2u.values
        self.em2u = cs.em2u.values
        self.em2u_mean = float(np.mean(self.em2u))
        self.kg_sq = cs.kg_sq.values
        self.jgrad_u = (cs.jgrad_u.comp1.values, cs.jgrad_u.comp2.values)
        self.lattice = lattice
        column = np.arange(lattice.n2 + 2) // 2  # of each real and imaginary part
        self.weight = np.where(column % (lattice.n2 // 2), 2.0, 1.0) / (lattice.n1 * lattice.n2)
        self.mirror = np.ix_(-np.arange(lattice.n1) % lattice.n1, [0, -1])
        self.work: _Work | None = None
        self.bases: dict = {}

    def scratch(self) -> _Work:
        if self.work is not None:
            return self.work
        return _Work(np.empty(self.e2u.shape), np.empty(self.lap.shape, complex), np.empty(self.lap.shape, complex))

    @contextmanager
    def working(self):
        outer = self.work
        self.work = self.scratch()
        try:
            yield
        finally:
            self.work = outer

    def forward(self, values: NDArray, out: NDArray | None = None) -> NDArray:
        spectrum = np.fft.rfft(values, axis=1, out=out)
        return np.fft.fft(spectrum, axis=0, out=spectrum)

    def inverse(self, spectrum: NDArray) -> NDArray:
        return np.fft.irfft(np.fft.ifft(spectrum, axis=0, out=spectrum), n=self.lattice.n2, axis=1)

    def bilaplacian_spectrum(self, spectrum: NDArray) -> NDArray:
        work = self.scratch()
        s = self.inverse(np.multiply(self.lap, spectrum, out=work.h0))
        return self.lap * self.forward(np.multiply(self.e2u, s, out=s), out=work.h0)

    def derivatives(self, spectrum: NDArray) -> tuple[NDArray, NDArray, NDArray]:
        product = self.scratch().h0
        return tuple(
            self.inverse(np.multiply(m, spectrum, out=product)) for m in (self.lap, self.d1, self.d2)
        )

    def finish(self, lap_h: NDArray, d1_h: NDArray, d2_h: NDArray) -> NDArray:
        work = self.scratch()
        out = self.lap * self.forward(np.multiply(self.e2u, lap_h, out=work.r0), out=work.h0)
        for d, d_h in ((self.d1, d1_h), (self.d2, d2_h)):
            spectrum = self.forward(np.multiply(self.kg_sq, d_h, out=work.r0), out=work.h0)
            out -= np.multiply(d, spectrum, out=spectrum)
        return out

    def apply_spectrum(self, spectrum: NDArray) -> NDArray:
        return self.finish(*self.derivatives(spectrum))

    def precondition_spectrum(self, spectrum: NDArray) -> NDArray:
        work = self.scratch()
        s = self.inverse(np.multiply(self.inv_lap, spectrum, out=work.h0))
        # the constant left free by the inner inverse makes the outer
        # Laplacian's argument mean-zero, hence solvable
        c = -float(np.mean(np.multiply(self.em2u, s, out=work.r0))) / self.em2u_mean
        s += c
        return self.inv_lap * self.forward(np.multiply(self.em2u, s, out=s), out=work.h0)

    def evaluate(self, alpha: NDArray) -> tuple:
        spectrum = self.forward(alpha, out=self.scratch().h1)
        fields = self.derivatives(spectrum)
        return spectrum, fields, self.inverse(self.finish(*fields))

    def source(self, homotopy: HomotopyClass) -> NDArray:
        work = self.scratch()
        y = _constant_gradient(homotopy, self.lattice)
        spectra = []
        for y_i, j_i, d, out in zip(y, self.jgrad_u, (self.d1, self.d2), (work.h0, work.h1)):
            flux = np.multiply(np.subtract(y_i, j_i, out=work.r0), self.kg_sq, out=work.r0)
            spectra.append(np.multiply(d, self.forward(flux, out=out), out=out))
        return self.inverse(np.add(*spectra, out=work.h0))

    def apply(self, h: NDArray) -> NDArray:
        return self.inverse(self.apply_spectrum(self.forward(h)))

    def inner(self, x: NDArray, y: NDArray) -> float:
        product = self.scratch().h0.view(np.float64)
        np.multiply(x.view(np.float64), y.view(np.float64), out=product)
        return float(np.sum(np.multiply(self.weight, product, out=product)))

    def hermitian(self, spectrum: NDArray) -> NDArray:
        spectrum[:, [0, -1]] = 0.5 * (spectrum[:, [0, -1]] + spectrum[self.mirror].conj())
        return spectrum

    def criticality(self, applied: NDArray, source: NDArray, weighted: bool) -> tuple[float, float]:
        """Max-norms of ``applied - source``, with ``applied`` a field's ``P alpha``
        and ``source`` the flat b, and of ``source``, both weighted by e^{2u} if
        ``weighted`` (the curved equation is the flat one times it), else by 1."""
        weight = self.e2u if weighted else 1.0
        work = self.scratch().r0
        np.multiply(weight, np.subtract(applied, source, out=work), out=work)
        residual = float(np.max(np.abs(work, out=work)))
        np.multiply(weight, source, out=work)
        return residual, float(np.max(np.abs(work, out=work)))

    def roundoff(self, amplitude: float) -> float:
        """Roundoff floor of the e^{2u}-weighted flat assembly of ``P alpha`` at
        ``max|alpha| = amplitude``: ``eps (max(lap)^2 max e^{2u} + max(lap) max
        k_g^2) max e^{2u} amplitude``, which grows like n^4."""
        lap, e2u = float(np.max(self.lap)), float(np.max(self.e2u))
        floor = lap * (lap * e2u + float(np.max(self.kg_sq))) * e2u
        return floor * (np.finfo(float).eps * amplitude)

    def source_roundoff(self) -> float:
        """Roundoff floor of the flat source ``flat_div(k_g^2 (Y0 - J grad u))`` of
        a class whose ``|Y0|`` is at most the largest wavevector ``k``: ``eps max|k|
        max k_g^2 (max|k| + max|J grad u|)``."""
        k = float(np.sqrt(np.max(self.lap)))
        flux = float(np.max(self.kg_sq)) * (k + max(float(np.max(np.abs(c))) for c in self.jgrad_u))
        return np.finfo(float).eps * k * flux


@dataclass(frozen=True, eq=False)
class FrameConnection:
    """Connection data of the canonical frame: coefficients and ``Z = aS + bW``."""

    a: ScalarField
    b: ScalarField
    Z: VectorFieldFlat


def frame_connection(cs: ConformalStructure) -> FrameConnection:
    """Connection coefficients of the canonical frame ``S = exp(u)*axis1, W = JS``.

    Computed from the conformal change-of-connection formula applied to the
    frame: ``a = exp(u) d2(u)``, ``b = -exp(u) d1(u)``; the combined vector
    ``Z`` has flat components ``-exp(2u) * J flat_grad(u)`` and equals
    ``-J grad_g u``.
    """
    a = -(cs.eu * cs.jgrad_u.comp1)
    b = -(cs.eu * cs.jgrad_u.comp2)
    Z = -(cs.e2u * cs.jgrad_u)
    return FrameConnection(a, b, Z)


class ResidualPair(NamedTuple):
    flat: VectorFieldFlat
    curved: VectorFieldFlat


def section_residual_pair(cs: ConformalStructure, theta: AngleField) -> ResidualPair:
    """Tangential rough-Laplacian residuals of the unit field of ``theta``.

    The *flat* residual is for the flat-unit field ``(cos theta, sin theta)``
    in the flat metric: the vector Laplacian assembled from ``lap(theta)``
    and ``|grad theta|^2`` (the branch-free expansion of componentwise
    Laplacians of ``cos theta, sin theta``), minus its radial part —
    projected numerically, not by formula.

    The *curved* residual is the same quantity for the ``g``-unit field
    ``exp(u) * (cos theta, sin theta)`` in the curved metric, assembled from
    the curved Laplacian of the angle and the frame divergence ``div_g Z``.

    The two satisfy ``flat = exp(-3u) * curved`` pointwise — that identity
    is a property test, not an implementation shortcut.
    """
    cs._check(theta.lattice)
    total = theta.total_samples()
    cos_t, sin_t = np.cos(total), np.sin(total)
    lattice = cs.lattice

    # Flat side: vector Laplacian of (cos, sin) via the angle expansion.
    lap_theta = flat_laplacian(theta.periodic).values
    grad_total = theta.total_gradient()
    grad_sq = dot(grad_total, grad_total).values
    lap_V1 = -sin_t * lap_theta + cos_t * grad_sq
    lap_V2 = cos_t * lap_theta + sin_t * grad_sq
    radial = lap_V1 * cos_t + lap_V2 * sin_t
    flat_res = VectorFieldFlat.from_arrays(
        lattice, lap_V1 - radial * cos_t, lap_V2 - radial * sin_t
    )

    # Curved side: tangential part is (lap_g theta - div_g Z) times the
    # rotated curved-unit field, all operators the curved ones.
    curved_grad_theta = cs.e2u * grad_total
    lap_g_theta = -cs.divergence(curved_grad_theta)
    conn = frame_connection(cs)
    div_Z = cs.divergence(conn.Z)
    factor = (lap_g_theta - div_Z).values * cs.eu.values
    curved_res = VectorFieldFlat.from_arrays(
        lattice, factor * (-sin_t), factor * cos_t
    )
    return ResidualPair(flat_res, curved_res)
