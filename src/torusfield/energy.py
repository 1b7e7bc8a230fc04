"""Bending-type energy functionals for unit tangent fields on conformal tori.

For a unit field described by an angle function ``theta`` (a linear winding
part plus a periodic part), the functional evaluated here is

    G(theta) = ∫ (lap_g theta - div_g Z)^2 dA_g
             + ∫ k_g^2 * |grad_g theta + Z|_g^2 dA_g,

the "vertical" and "horizontal" pieces of the second-order energy of the
associated unit section.  On a conformally flat torus every curved factor
collapses against the volume weight, so the production evaluation uses the
equivalent flat quadratures

    vertical   = ∫ e^{2u} (flat_lap alpha)^2 dxi,
    horizontal = ∫ k_g^2 |grad theta_total - J grad u|^2 dxi,

which take one forward transform of alpha and the three inverse of the
kernel's ``derivatives`` (flat_lap alpha, grad alpha), fields a solve's report
also finishes into ``P alpha``.  The geometric route survives in the test suite
as an independent oracle.

The source ``b`` of the critical-point equation ``P alpha = b``
(``right_hand_side``) and the flat ``el_residual``, ``P alpha - b``, wrap the
structure's one spectral kernel (``cs.kernel``), which owns the flat equation;
the curved forms are oracles.  A winding class enters every derivative
through ``Y0`` alone.

The overall normalization is fixed by the plain flat quadrature measure.
Any alternative convention rescales every energy by one global positive
constant, which moves no critical point, no residual zero set, and no
stability sign.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .angles import AngleField, HomotopyClass, _constant_gradient
from .conformal import ConformalStructure, _warn_if_unresolved, frame_connection
from .lattice import ScalarField, VectorFieldFlat, _quadrature


class EnergyBreakdown(NamedTuple):
    """Split of the second-order energy into its named nonnegative parts.

    ``bienergy`` is always the sum of ``vertical_bienergy`` and
    ``horizontal_part``.  ``total_bending`` is the first-order bending
    energy (half the squared covariant derivative of the unit field) and is
    reported for cross-referencing only; it does not enter the sum.
    ``area`` is the curved surface area.
    """

    bienergy: float
    vertical_bienergy: float
    horizontal_part: float
    total_bending: float
    area: float


def bienergy(cs: ConformalStructure, theta: AngleField) -> EnergyBreakdown:
    """The second-order energy of the unit field with angle ``theta`` (winding
    class plus periodic part alpha) on the lattice of ``cs``: its vertical and
    horizontal parts, the first-order bending energy and the curved area."""
    cs._check(theta.lattice)
    spectrum = cs.kernel.forward(theta.periodic.values)
    return _breakdown(cs, theta, spectrum, cs.kernel.derivatives(spectrum))


def _breakdown(cs: ConformalStructure, theta: AngleField, spectrum: NDArray, fields) -> EnergyBreakdown:
    """:func:`bienergy` from ``rfft2`` of alpha and the kernel's ``derivatives`` of
    it, all three of which it writes over."""
    lattice = cs.lattice
    alpha = theta.periodic.values
    vertical = _quadrature(lattice, fields[0], fields[0], cs.e2u.values, out=fields[0])
    # an angle within an FFT's roundoff of 1 rad is roundoff of (cos theta, sin theta)
    rms = np.sqrt(np.mean(np.square(alpha, out=fields[0])))
    roundoff = rms <= np.finfo(float).eps * np.log2(alpha.size)
    if not roundoff:
        message = "angle field is spectrally under-resolved; energies are unreliable"
        _warn_if_unresolved(theta.periodic, message, spectrum)

    # flat components of the first-order term: grad theta_total - J grad u
    y1, y2 = _constant_gradient(theta.homotopy, lattice)
    b1 = np.subtract(np.add(fields[1], y1, out=fields[1]), cs.jgrad_u.comp1.values, out=fields[1])
    b2 = np.subtract(np.add(fields[2], y2, out=fields[2]), cs.jgrad_u.comp2.values, out=fields[2])
    density = np.add(np.multiply(b1, b1, out=b1), np.multiply(b2, b2, out=b2), out=b1)
    horizontal = _quadrature(lattice, density, cs.kg_sq.values, out=fields[0])
    total_bending = 0.5 * _quadrature(lattice, density)

    return EnergyBreakdown(
        bienergy=vertical + horizontal,
        vertical_bienergy=vertical,
        horizontal_part=horizontal,
        total_bending=total_bending,
        area=cs.area(),
    )


def right_hand_side(
    cs: ConformalStructure, homotopy: HomotopyClass, formulation: str = "curved"
) -> ScalarField:
    """Assemble the source term of the solve for the given winding class.

    Flat form: div(k_g^2 (Y0 - J grad u)) with Y0 the constant gradient of
    the linear representative.  Curved form: the same equation multiplied
    through by e^{2u}, assembled with the curved operators (its leading
    term is a Laplacian of an identically-vanishing divergence and is kept
    for faithfulness to the equation as written).
    """
    if formulation == "flat_weighted":
        return ScalarField(cs.lattice, cs.kernel.source(homotopy))
    if formulation == "curved":
        y1, y2 = _constant_gradient(homotopy, cs.lattice)
        Z = frame_connection(cs).Z
        YZ = VectorFieldFlat(cs.e2u * y1 + Z.comp1, cs.e2u * y2 + Z.comp2)
        return cs.laplacian(cs.divergence(YZ)) + cs.divergence(cs.kg_sq * YZ)
    raise ValueError(f"unknown formulation: {formulation!r}")


def el_residual(
    cs: ConformalStructure, theta: AngleField, formulation: str = "curved"
) -> ScalarField:
    """Residual of the fourth-order critical-point equation at ``theta``; its
    zeros, in either formulation, are the critical points of :func:`bienergy`
    in the winding class of ``theta``.  ``"flat_weighted"``, what solve reports
    measure, is ``P alpha - b``: the spectral kernel on the periodic part minus
    the flat :func:`right_hand_side`; ``"curved"``, an oracle, assembles the
    equation with the curved operators of ``cs`` and is ``exp(2u)`` times the
    flat form.  Both integrate to zero against their volume measures."""
    cs._check(theta.lattice)
    if formulation == "flat_weighted":
        return ScalarField(cs.lattice, cs.kernel.apply(theta.periodic.values) - cs.kernel.source(theta.homotopy))
    if formulation == "curved":
        Z = frame_connection(cs).Z
        grad_theta = cs.e2u * theta.total_gradient()
        lap_theta = -cs.divergence(grad_theta)
        fourth = cs.laplacian(lap_theta)
        transport = cs.divergence(cs.kg_sq * grad_theta)
        frame_fourth = cs.laplacian(cs.divergence(Z))
        frame_transport = cs.divergence(cs.kg_sq * Z)
        return fourth - transport - frame_fourth - frame_transport
    raise ValueError(f"unknown formulation: {formulation!r}")
