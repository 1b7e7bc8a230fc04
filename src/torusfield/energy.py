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

which take one ``rfft2`` of alpha and the three ``irfft2`` of the kernel's
``derivatives`` (flat_lap alpha, grad alpha), fields a solve's report also
finishes into ``P alpha``.  The geometric route survives in the test suite as
an independent oracle.

The source ``b`` of the critical-point equation ``P alpha = b``
(``right_hand_side``) is assembled here, and the flat ``el_residual`` is
``P alpha - b`` on the structure's one spectral kernel (``cs.kernel``).
A winding class enters every derivative through ``Y0`` alone.

The overall normalization is fixed by the plain flat quadrature measure.
Any alternative convention rescales every energy by one global positive
constant, which moves no critical point, no residual zero set, and no
stability sign.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .angles import AngleField, HomotopyClass, _constant_gradient
from .conformal import RESOLUTION_THRESHOLD, ConformalStructure, ResolutionWarning, frame_connection
from .lattice import (
    ScalarField,
    VectorFieldFlat,
    flat_divergence,
    integrate_inner,
    resolution_fraction,
)


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


class DerivativePair(NamedTuple):
    analytic: float
    numeric: float


def bienergy(cs: ConformalStructure, theta: AngleField) -> EnergyBreakdown:
    """The second-order energy of the unit field with angle ``theta`` (winding
    class plus periodic part alpha) on the lattice of ``cs``: its vertical and
    horizontal parts, the first-order bending energy and the curved area."""
    cs._check(theta.lattice)
    spectrum = np.fft.rfft2(theta.periodic.values)
    return _breakdown(cs, theta, spectrum, cs.kernel.derivatives(spectrum), stacklevel=3)


def _breakdown(
    cs: ConformalStructure, theta: AngleField, spectrum: NDArray, fields, stacklevel: int
) -> EnergyBreakdown:
    """:func:`bienergy` from ``rfft2`` of alpha and the kernel's ``derivatives`` of
    it; an under-resolved angle warns at ``stacklevel``, counted from here."""
    lattice = cs.lattice
    alpha = theta.periodic.values
    # an angle within an FFT's roundoff of 1 rad is roundoff of (cos theta, sin theta)
    roundoff = np.sqrt(np.mean(alpha**2)) <= np.finfo(float).eps * np.log2(alpha.size)
    if not roundoff and resolution_fraction(theta.periodic, spectrum) > RESOLUTION_THRESHOLD:
        warnings.warn(
            "angle field is spectrally under-resolved; energies are unreliable",
            ResolutionWarning,
            stacklevel=stacklevel,
        )

    lap_alpha = ScalarField(lattice, fields[0])
    vertical = integrate_inner(lap_alpha, lap_alpha, weight=cs.e2u)

    # flat components of the first-order term: grad theta_total - J grad u
    y1, y2 = _constant_gradient(theta.homotopy, lattice)
    b1, b2 = fields[1] + y1 - cs.jgrad_u.comp1.values, fields[2] + y2 - cs.jgrad_u.comp2.values
    density = ScalarField(lattice, b1 * b1 + b2 * b2)
    horizontal = integrate_inner(density, cs.kg_sq)
    total_bending = 0.5 * integrate_inner(density)

    return EnergyBreakdown(
        bienergy=vertical + horizontal,
        vertical_bienergy=vertical,
        horizontal_part=horizontal,
        total_bending=total_bending,
        area=cs.area(),
    )


def _source_flux(cs: ConformalStructure, homotopy: HomotopyClass) -> VectorFieldFlat:
    """``k_g^2 (Y0 - J grad u)``, whose flat divergence is the flat source."""
    y1, y2 = _constant_gradient(homotopy, cs.lattice)
    return cs.kg_sq * VectorFieldFlat(y1 - cs.jgrad_u.comp1, y2 - cs.jgrad_u.comp2)


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
        return flat_divergence(_source_flux(cs, homotopy))
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
        source = right_hand_side(cs, theta.homotopy, "flat_weighted")
        return ScalarField(cs.lattice, cs.kernel.apply(theta.periodic.values) - source.values)
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


def directional_derivative_check(
    cs: ConformalStructure, theta: AngleField, beta: ScalarField, h: float = 1e-4
) -> DerivativePair:
    """Compare the analytic first variation of the energy with a finite
    difference along a class-preserving variation.

    The analytic value pairs ``beta`` with the curved residual against the
    curved volume measure.  The numeric value is a central difference of
    :func:`bienergy` along the path ``t -> theta + sin(t) * beta``.  A
    straight-line path is useless here: the discretized functional is
    exactly quadratic along straight lines, so the central difference would
    be exact to roundoff and carry no h^2 term for a convergence check to
    observe.  The sinusoidal path has the same velocity at t = 0 but a
    curved parameterization, so the difference of the two values shrinks
    like h^2/6 times the first derivative, which halving h quarters.

    Args:
        cs: Conformal structure.
        theta: Base angle field.
        beta: Periodic variation direction (a plain scalar field).
        h: Parameter step for the central difference.

    Returns:
        DerivativePair(analytic, numeric).
    """
    cs._check(theta.lattice)
    cs._check(beta.lattice)
    residual = el_residual(cs, theta, formulation="curved")
    analytic = 2.0 * cs.integrate(beta, residual)

    plus, minus = _sinusoidal_energies(cs, theta, beta, h)
    numeric = (plus - minus) / (2.0 * h)
    return DerivativePair(analytic=analytic, numeric=numeric)


def _sinusoidal_energies(
    cs: ConformalStructure, theta: AngleField, beta: ScalarField, h: float
) -> tuple[float, float]:
    """Energies at ``t = h`` and ``t = -h`` on the path ``t -> theta + sin(t) * beta``."""
    step = float(np.sin(h))
    return tuple(bienergy(cs, theta.shifted(beta * s)).bienergy for s in (step, -step))
