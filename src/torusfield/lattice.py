"""Spectral calculus on a lattice torus.

A torus is realized as the quotient of the plane by a lattice
``Gamma = {m*d1 + n*d2}`` with linearly independent generators ``d1, d2``.
Smooth doubly periodic functions are sampled on the uniform grid

    ``xi[s, t] = (s/n1)*d1 + (t/n2)*d2,   0 <= s < n1, 0 <= t < n2``

and stored as ``(n1, n2)`` arrays indexed ``[s, t]``.  All derivatives are
derivatives of the trigonometric interpolant: a sample array is expanded in
the Fourier basis ``exp(i <k(p,q), xi>)`` with wavevectors drawn from the
dual lattice,

    ``k(p, q) = 2*pi*(p*delta1 + q*delta2)``,

where ``(delta1, delta2)`` is the dual basis of ``(d1, d2)`` (so that
``<delta_i, d_j> = kronecker(i, j)``), and differentiated exactly mode by
mode.  This gives machine-precision derivatives for band-limited fields and
super-algebraic convergence for analytic ones.

Sign conventions used throughout the package:

* ``flat_laplacian`` is the *geometer's* Laplacian ``-(d1^2 + d2^2)`` with
  nonnegative spectrum (``flat_laplacian(sin(2*pi*x)) = (2*pi)^2 sin``).
* The complex structure ``rotate_J`` acts by ``(x, y) |-> (-y, x)``.

Nyquist handling: the modes ``p = -n1/2`` and ``q = -n2/2`` carry ambiguous
sign information on an even grid.  There is one rule: the first-derivative
multiplier ``i*k`` is set to zero on the Nyquist lines (keeping real fields
real and making first derivatives exactly skew-adjoint), and every higher
derivative, the Laplacian included, composes it, so divergence-form and
Laplacian-form operators agree to round-off by construction.

Spectral layout: every flat derivative runs on the ``rfft2`` half spectrum,
the columns ``0 <= q <= n2/2``, and its multiplier is cached per lattice
already cut to that half.  This is exact: with the Nyquist rule above every
multiplier is Hermitian (``m(-k) = conj(m(k))``), so ``irfft2(m * rfft2(f))``
reproduces the full-spectrum ``ifft2(m * fft2(f)).real`` to round-off, with
half the transform work.  The solver's kernel takes the same multipliers as
they are, and ``resolution_fraction`` reads the same half spectrum.  Only
``bandlimited_field`` stays on the full complex spectrum, for the reason
given there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray


def _as_readonly(values: NDArray, shape: tuple[int, int]) -> NDArray:
    out = np.array(values, dtype=np.float64, copy=True, order="C")
    if out.shape != shape:
        raise ValueError(f"sample array has shape {out.shape}, expected {shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("invalid field: non-finite samples")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice generators and grid counts for one torus discretization.

    Attributes:
        d1: first generator of the lattice (2-vector, stored as a tuple).
        d2: second generator, linearly independent of ``d1``.
        n1: grid count along ``d1`` (even, >= 4).
        n2: grid count along ``d2`` (even, >= 4).
    """

    d1: tuple[float, float]
    d2: tuple[float, float]
    n1: int
    n2: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d1", (float(self.d1[0]), float(self.d1[1])))
        object.__setattr__(self, "d2", (float(self.d2[0]), float(self.d2[1])))
        if not all(np.isfinite(self.d1 + self.d2)):
            raise ValueError("lattice generators must be finite")
        det = self.d1[0] * self.d2[1] - self.d1[1] * self.d2[0]
        if det == 0.0:
            raise ValueError("lattice generators are linearly dependent")
        for n in (self.n1, self.n2):
            if n < 4 or n % 2 != 0:
                raise ValueError("grid counts must be even and at least 4")
        # |k| peaks at a mode-box corner (n1/2, +-n2/2); Python floats overflow quietly
        widest = math.pi / abs(det) * max(math.hypot(self.n1 * self.d2[1] - s * self.n2 * self.d1[1],
                                                     s * self.n2 * self.d1[0] - self.n1 * self.d2[0]) for s in (1, -1))
        if not math.isfinite(abs(det) + widest * widest):
            raise ValueError("lattice generators overflow a float: the area or a wavevector's |k|^2 is not finite")

    @classmethod
    def unit_square(cls, n1: int, n2: int | None = None) -> "LatticeSpec":
        return cls((1.0, 0.0), (0.0, 1.0), n1, n2 if n2 is not None else n1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @cached_property
    def area(self) -> float:
        """Area of the fundamental domain, ``|det(d1, d2)|``."""
        return abs(self.d1[0] * self.d2[1] - self.d1[1] * self.d2[0])

    @cached_property
    def dual_basis(self) -> NDArray:
        """Rows ``delta1, delta2`` with ``<delta_i, d_j> = kronecker(i, j)``."""
        basis = np.array([self.d1, self.d2], dtype=np.float64)
        return np.linalg.inv(basis).T

    @cached_property
    def frequencies(self) -> tuple[NDArray, NDArray]:
        """Integer mode numbers ``(P, Q)`` on the grid, fft layout."""
        p = np.rint(np.fft.fftfreq(self.n1, d=1.0 / self.n1)).astype(np.int64)
        q = np.rint(np.fft.fftfreq(self.n2, d=1.0 / self.n2)).astype(np.int64)
        return np.meshgrid(p, q, indexing="ij")

    @cached_property
    def fractional_coords(self) -> tuple[NDArray, NDArray]:
        """Lattice coordinates ``(lam1, lam2) = (s/n1, t/n2)`` on the grid."""
        lam1 = np.arange(self.n1, dtype=np.float64) / self.n1
        lam2 = np.arange(self.n2, dtype=np.float64) / self.n2
        return np.meshgrid(lam1, lam2, indexing="ij")

    @cached_property
    def cartesian_coords(self) -> tuple[NDArray, NDArray]:
        """Cartesian grid points ``xi = lam1*d1 + lam2*d2``."""
        lam1, lam2 = self.fractional_coords
        x = lam1 * self.d1[0] + lam2 * self.d2[0]
        y = lam1 * self.d1[1] + lam2 * self.d2[1]
        return x, y

    def wavevector(self, p, q) -> NDArray:
        """``2*pi*(p*delta1 + q*delta2)`` for integer mode numbers."""
        delta = self.dual_basis
        return 2.0 * np.pi * (np.multiply.outer(p, delta[0]) + np.multiply.outer(q, delta[1]))


@lru_cache(maxsize=128)
def _derivative_multiplier(lattice: LatticeSpec, direction: int) -> NDArray:
    """Fourier multiplier ``i*k`` of ``d/d x_direction`` on the ``rfft2`` half
    spectrum of the lattice grid, zero on the Nyquist lines.
    """
    P, Q = (freq[:, : lattice.n2 // 2 + 1] for freq in lattice.frequencies)
    mult = 1j * lattice.wavevector(P, Q)[..., direction - 1]
    mult[P == -lattice.n1 // 2] = 0.0
    mult[Q == -lattice.n2 // 2] = 0.0
    mult.flags.writeable = False
    return mult


@lru_cache(maxsize=128)
def _laplacian_multiplier(lattice: LatticeSpec) -> NDArray:
    """Multiplier of the geometer Laplacian ``-(d1 o d1 + d2 o d2)`` on the
    ``rfft2`` half spectrum.

    Built from the masked first-derivative multipliers so that the identity
    ``flat_laplacian(f) == -flat_divergence(flat_gradient(f))`` holds to
    round-off, not merely analytically.
    """
    m1 = _derivative_multiplier(lattice, 1)
    m2 = _derivative_multiplier(lattice, 2)
    mult = -(m1 * m1 + m2 * m2).real
    mult.flags.writeable = False
    return mult


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Samples of a smooth doubly periodic function on a lattice grid.

    ``values[s, t]`` is the function value at ``(s/n1)*d1 + (t/n2)*d2``.
    Instances are immutable; arithmetic returns new fields.
    """

    lattice: LatticeSpec
    values: NDArray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_readonly(self.values, self.lattice.shape))

    @classmethod
    def from_constant(cls, lattice: LatticeSpec, value: float) -> "ScalarField":
        return cls(lattice, np.full(lattice.shape, float(value)))

    @classmethod
    def from_function(cls, lattice: LatticeSpec, fn) -> "ScalarField":
        """Sample ``fn(x, y)`` (Cartesian coordinates) on the grid."""
        x, y = lattice.cartesian_coords
        return cls(lattice, np.asarray(fn(x, y), dtype=np.float64))

    def mean(self) -> float:
        return float(np.mean(self.values))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- small arithmetic surface -------------------------------------------------

    def _coerce(self, other) -> NDArray:
        if isinstance(other, ScalarField):
            if other.lattice != self.lattice:
                raise ValueError("lattice mismatch")
            return other.values
        if isinstance(other, numbers.Real):
            return np.float64(other)
        return NotImplemented

    def __add__(self, other):
        vals = self._coerce(other)
        return NotImplemented if vals is NotImplemented else ScalarField(self.lattice, self.values + vals)

    __radd__ = __add__

    def __sub__(self, other):
        vals = self._coerce(other)
        return NotImplemented if vals is NotImplemented else ScalarField(self.lattice, self.values - vals)

    def __rsub__(self, other):
        vals = self._coerce(other)
        return NotImplemented if vals is NotImplemented else ScalarField(self.lattice, vals - self.values)

    def __mul__(self, other):
        vals = self._coerce(other)
        return NotImplemented if vals is NotImplemented else ScalarField(self.lattice, self.values * vals)

    __rmul__ = __mul__

    def __truediv__(self, other):
        vals = self._coerce(other)
        return NotImplemented if vals is NotImplemented else ScalarField(self.lattice, self.values / vals)

    def __neg__(self):
        return ScalarField(self.lattice, -self.values)


@dataclass(frozen=True, eq=False)
class VectorFieldFlat:
    """Vector field in the fixed flat orthonormal frame of the plane."""

    comp1: ScalarField
    comp2: ScalarField

    def __post_init__(self) -> None:
        if self.comp1.lattice != self.comp2.lattice:
            raise ValueError("vector components live on different lattices")

    @property
    def lattice(self) -> LatticeSpec:
        return self.comp1.lattice

    @classmethod
    def from_arrays(cls, lattice: LatticeSpec, c1: NDArray, c2: NDArray) -> "VectorFieldFlat":
        return cls(ScalarField(lattice, c1), ScalarField(lattice, c2))

    def __add__(self, other: "VectorFieldFlat") -> "VectorFieldFlat":
        return VectorFieldFlat(self.comp1 + other.comp1, self.comp2 + other.comp2)

    def __sub__(self, other: "VectorFieldFlat") -> "VectorFieldFlat":
        return VectorFieldFlat(self.comp1 - other.comp1, self.comp2 - other.comp2)

    def __neg__(self) -> "VectorFieldFlat":
        return VectorFieldFlat(-self.comp1, -self.comp2)

    def __mul__(self, other) -> "VectorFieldFlat":
        return VectorFieldFlat(self.comp1 * other, self.comp2 * other)

    __rmul__ = __mul__


def flat_gradient(f: ScalarField) -> VectorFieldFlat:
    """Flat gradient ``(d1 f, d2 f)``, both from one forward transform."""
    spectrum = np.fft.rfft2(f.values)
    d1, d2 = (np.fft.irfft2(_derivative_multiplier(f.lattice, d) * spectrum) for d in (1, 2))
    return VectorFieldFlat.from_arrays(f.lattice, d1, d2)


def flat_divergence(X: VectorFieldFlat) -> ScalarField:
    """Flat divergence ``d1 X1 + d2 X2``, summed before one inverse transform."""
    m1, m2 = (_derivative_multiplier(X.lattice, d) for d in (1, 2))
    spectrum = m1 * np.fft.rfft2(X.comp1.values) + m2 * np.fft.rfft2(X.comp2.values)
    return ScalarField(X.lattice, np.fft.irfft2(spectrum))


def flat_laplacian(f: ScalarField) -> ScalarField:
    """Geometer Laplacian ``-(d1^2 + d2^2) f`` (nonnegative spectrum)."""
    mult = _laplacian_multiplier(f.lattice)
    return ScalarField(f.lattice, np.fft.irfft2(mult * np.fft.rfft2(f.values)))


def rotate_J(X: VectorFieldFlat) -> VectorFieldFlat:
    """Pointwise quarter-turn ``(x, y) |-> (-y, x)``; ``J o J = -id``."""
    return VectorFieldFlat(-X.comp2, X.comp1)


def dot(X: VectorFieldFlat, Y: VectorFieldFlat) -> ScalarField:
    """Pointwise flat inner product of two vector fields."""
    return X.comp1 * Y.comp1 + X.comp2 * Y.comp2


def integrate_inner(
    f: ScalarField,
    g: ScalarField | None = None,
    weight: ScalarField | None = None,
) -> float:
    """Quadrature of ``f*g*weight`` over the fundamental domain.

    The grid trapezoidal rule on a periodic domain,
    ``A/(n1*n2) * sum(f*g*w)``, which is exact for resolved trigonometric
    polynomials.  Absent factors are treated as 1.  Summation uses numpy's
    fixed pairwise order, so results are reproducible bit for bit.
    """
    factors = [factor for factor in (g, weight) if factor is not None]
    if any(factor.lattice != f.lattice for factor in factors):
        raise ValueError("lattice mismatch")
    return _quadrature(f.lattice, f.values, *(factor.values for factor in factors))


def _quadrature(lattice: LatticeSpec, *factors: NDArray, out: NDArray | None = None) -> float:
    """:func:`integrate_inner` of raw arrays, its products written to ``out`` if given."""
    prod = factors[0]
    for factor in factors[1:]:
        prod = np.multiply(prod, factor, out=out)
    scale = lattice.area / (lattice.n1 * lattice.n2)
    return float(scale * np.sum(prod))


def resolution_fraction(f: ScalarField, spectrum: NDArray | None = None) -> float:
    """Fraction of (non-mean) spectral energy in the top third of frequencies.

    A proxy for "is this field resolved on its grid": smooth well-sampled
    fields put essentially no energy near the Nyquist modes.  ``spectrum`` is
    ``rfft2(f.values)`` where the caller has it already.
    """
    n1, n2 = f.lattice.shape
    energy = np.abs(np.fft.rfft2(f.values) if spectrum is None else spectrum)
    np.square(energy, out=energy)
    # each interior column also stands for its conjugate mirror in the full spectrum
    energy[:, 1 : n2 // 2] *= 2.0
    mean_energy = energy[0, 0]
    energy[0, 0] = 0.0
    total = float(np.sum(energy))
    # an FFT's roundoff is about eps log2(n1 n2) of the spectrum's 2-norm, so
    # a constant's non-mean energy sits at that level of its mean coefficient
    if total <= (np.finfo(float).eps * np.log2(n1 * n2)) ** 2 * mean_energy:
        return 0.0
    return float(np.sum(energy[_top_third(f.lattice)]) / total)


@lru_cache(maxsize=128)
def _top_third(lattice: LatticeSpec) -> NDArray:
    """Mask of the half-spectrum modes in the top third of either frequency."""
    P, Q = (freq[:, : lattice.n2 // 2 + 1] for freq in lattice.frequencies)
    top = (np.abs(P) >= lattice.n1 / 3.0) | (np.abs(Q) >= lattice.n2 / 3.0)
    top.flags.writeable = False
    return top


def bandlimited_field(
    lattice: LatticeSpec,
    rng: np.random.Generator,
    band: int = 5,
    amplitude: float = 1.0,
) -> ScalarField:
    """Random smooth periodic field with modes confined to ``|p|,|q| <= band``.

    Coefficients decay like ``1/(1+p^2+q^2)`` so the field looks like a
    generic smooth function rather than white noise.  Deterministic for a
    seeded generator; used by the verification suites and the test corpus.
    """
    band = min(band, lattice.n1 // 2 - 1, lattice.n2 // 2 - 1)
    P, Q = lattice.frequencies
    keep = (np.abs(P) <= band) & (np.abs(Q) <= band)
    coeffs = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    coeffs *= keep / (1.0 + P.astype(float) ** 2 + Q.astype(float) ** 2)
    coeffs[0, 0] = 0.0
    # the full spectrum: coeffs are not Hermitian and the real part is kept,
    # so a half-spectrum draw would change every seeded field
    values = np.fft.ifft2(coeffs).real
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return ScalarField(lattice, values)
