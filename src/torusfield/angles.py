"""Angle functions with winding: unit fields on the torus by homotopy class.

A nowhere-zero unit vector field on the torus lifts to an angle function
``theta`` on the covering plane.  ``theta`` itself is not periodic: moving
once around either lattice generator changes it by an integer multiple of
``2*pi``, and the two integers ``(m, n)`` — the windings along ``d1`` and
``d2`` — are a complete homotopy invariant of the field.

Because the raw angle cannot live on the periodic grid without branch
cuts, it is stored in split form

    ``theta = theta_lin + alpha``

where ``theta_lin(xi) = 2*pi*(m*lam1(xi) + n*lam2(xi))`` is the *linear
representative* of the class (``lam_i`` the lattice coordinates) and
``alpha`` is genuinely periodic.  The linear part is harmonic with constant
gradient ``Y0 = 2*pi*(m*delta1 + n*delta2)``, so every differential
operator applied to ``theta`` reduces to the same operator on ``alpha``
plus an explicit ``Y0`` correction in first-order terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    VectorFieldFlat,
    flat_gradient,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class HomotopyClass:
    """Winding numbers ``(m, n)`` along the two lattice generators."""

    m: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True, eq=False)
class LinearRepresentative:
    """The harmonic angle ``2*pi*(m*lam1 + n*lam2)`` of a class.

    Attributes:
        gradient: the constant flat gradient ``Y0`` (2-vector).
        samples: the representative sampled on the fundamental-domain grid.
    """

    gradient: NDArray
    samples: ScalarField


def _constant_gradient(homotopy: HomotopyClass, lattice: LatticeSpec) -> tuple[float, float]:
    """``Y0 = 2*pi*(m*delta1 + n*delta2)``, the one way a class enters a derivative."""
    delta = lattice.dual_basis
    y1, y2 = TWO_PI * (homotopy.m * delta[0] + homotopy.n * delta[1])
    return float(y1), float(y2)


def linear_representative(homotopy: HomotopyClass, lattice: LatticeSpec) -> LinearRepresentative:
    """Harmonic representative of a homotopy class on a given lattice."""
    lam1, lam2 = lattice.fractional_coords
    values = TWO_PI * (homotopy.m * lam1 + homotopy.n * lam2)
    gradient = np.array(_constant_gradient(homotopy, lattice))
    gradient.flags.writeable = False
    return LinearRepresentative(gradient, ScalarField(lattice, values))


@dataclass(frozen=True, eq=False)
class AngleField:
    """Semiperiodic angle: homotopy class plus periodic part ``alpha``."""

    homotopy: HomotopyClass
    periodic: ScalarField

    @property
    def lattice(self) -> LatticeSpec:
        return self.periodic.lattice

    @classmethod
    def from_total(
        cls, lattice: LatticeSpec, total: NDArray, homotopy: HomotopyClass
    ) -> "AngleField":
        """Rebuild the split form from total-angle samples of a known class."""
        rep = linear_representative(homotopy, lattice)
        return cls(homotopy, ScalarField(lattice, np.asarray(total) - rep.samples.values))

    def total_samples(self) -> NDArray:
        """Total angle ``theta_lin + alpha`` on the grid (not periodic)."""
        rep = linear_representative(self.homotopy, self.lattice)
        return rep.samples.values + self.periodic.values

    def total_gradient(self) -> VectorFieldFlat:
        """Flat gradient of the total angle: ``Y0 + grad(alpha)``."""
        y1, y2 = _constant_gradient(self.homotopy, self.lattice)
        grad_alpha = flat_gradient(self.periodic)
        return VectorFieldFlat(grad_alpha.comp1 + y1, grad_alpha.comp2 + y2)

    def shifted(self, beta: ScalarField) -> "AngleField":
        """Same class, periodic part moved by ``beta`` (a class-preserving variation)."""
        return AngleField(self.homotopy, self.periodic + beta)


def angle_to_unit_field(theta: AngleField) -> VectorFieldFlat:
    """Pointwise unit field ``(cos theta, sin theta)`` in the flat frame."""
    total = theta.total_samples()
    return VectorFieldFlat.from_arrays(theta.lattice, np.cos(total), np.sin(total))


def _wrapped_increments(phi: NDArray, axis: int) -> NDArray:
    """Principal-branch angle increments to the next grid point along ``axis``."""
    step = np.roll(phi, -1, axis=axis) - phi
    return step - TWO_PI * np.round(step / TWO_PI)


def winding_class(V: VectorFieldFlat) -> HomotopyClass:
    """Recover the homotopy class of a nowhere-zero field from its samples.

    Accumulates principal-branch angle increments along each generator and
    divides by ``2*pi``.  Refuses loudly when the field vanishes on the grid
    or when any single increment reaches ``pi`` (the grid cannot certify the
    winding of such a field — refine it instead).
    """
    c1, c2 = V.comp1.values, V.comp2.values
    norms = np.hypot(c1, c2)
    if np.min(norms) <= 1e-12 * max(np.max(norms), 1e-300):
        s, t = np.unravel_index(np.argmin(norms), norms.shape)
        raise ValueError(f"field vanishes at grid point ({s}, {t}); winding undefined")
    phi = np.arctan2(c2, c1)

    windings = []
    for axis in range(2):
        steps = _wrapped_increments(phi, axis)
        worst = np.max(np.abs(steps))
        if worst >= np.pi * (1.0 - 1e-9):
            s, t = np.unravel_index(np.argmax(np.abs(steps)), steps.shape)
            raise ValueError(
                "under-resolved field: angle increment "
                f"{worst:.6f} rad at grid point ({s}, {t}) reaches pi; "
                "refine the grid to certify the winding"
            )
        loops = np.sum(steps, axis=axis) / TWO_PI
        rounded = np.rint(loops)
        if np.max(np.abs(loops - rounded)) > 1e-6:
            raise ValueError("inconsistent winding sums; field is not smoothly resolved")
        if np.max(rounded) != np.min(rounded):
            raise ValueError("winding differs between grid lines; field is not continuous on the grid")
        windings.append(int(rounded[0]))
    return HomotopyClass(windings[0], windings[1])
