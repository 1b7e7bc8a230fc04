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

which involve one spectral multiplier apiece instead of chained
divergence/gradient compositions.  The geometric route survives in the test
suite as an independent oracle.

The critical-point equation ``P alpha = b`` has its one spectral kernel
(``_Kernel``) and source (``right_hand_side``) here; the flat
``el_residual`` is ``P alpha - b`` on them.

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

from .angles import AngleField, HomotopyClass, linear_representative
from .conformal import RESOLUTION_THRESHOLD, ConformalStructure, ResolutionWarning, frame_connection
from .lattice import (
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
    """Evaluate the second-order energy of the unit field with angle ``theta``.

    Args:
        cs: Conformal structure supplying the metric exponent and curvature.
        theta: Angle field (winding class plus periodic part) on the same
            lattice.

    Returns:
        EnergyBreakdown with the vertical/horizontal split, the first-order
        bending energy, and the curved area.
    """
    cs._check(theta.lattice)
    if resolution_fraction(theta.periodic) > RESOLUTION_THRESHOLD:
        warnings.warn(
            "angle field is spectrally under-resolved; energies are unreliable",
            ResolutionWarning,
            stacklevel=2,
        )

    lap_alpha = flat_laplacian(theta.periodic)
    vertical = integrate_inner(lap_alpha, lap_alpha, weight=cs.e2u)

    # flat components of the first-order term: grad theta_total - J grad u
    bend = theta.total_gradient() - rotate_J(flat_gradient(cs.u))
    density = dot(bend, bend)
    horizontal = integrate_inner(density, cs.kg_sq)
    total_bending = 0.5 * integrate_inner(density)

    return EnergyBreakdown(
        bienergy=vertical + horizontal,
        vertical_bienergy=vertical,
        horizontal_part=horizontal,
        total_bending=total_bending,
        area=cs.area(),
    )


def _constant_gradient(homotopy: HomotopyClass, lattice: LatticeSpec) -> VectorFieldFlat:
    Y0 = linear_representative(homotopy, lattice).gradient
    shape = lattice.shape
    return VectorFieldFlat.from_arrays(lattice, np.full(shape, Y0[0]), np.full(shape, Y0[1]))


def _source_flux(cs: ConformalStructure, homotopy: HomotopyClass) -> VectorFieldFlat:
    """``k_g^2 (Y0 - J grad u)``, whose flat divergence is the flat source."""
    return cs.kg_sq * (_constant_gradient(homotopy, cs.lattice) - rotate_J(flat_gradient(cs.u)))


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
        YZ = cs.e2u * _constant_gradient(homotopy, cs.lattice) + frame_connection(cs).Z
        return cs.laplacian(cs.divergence(YZ)) + cs.divergence(cs.kg_sq * YZ)
    raise ValueError(f"unknown formulation: {formulation!r}")


class _Kernel:
    """``P`` and the preconditioner ``M`` of one structure on raw ``(n1, n2)``
    arrays.

    ``lap``, ``d1`` and ``d2`` are the lattice's masked half-spectrum
    multipliers as they are; ``inv_lap`` is the Laplacian's pseudo-inverse,
    zero on the mean and on the Nyquist lines where the Laplacian vanishes.
    An apply of ``P`` costs one ``rfft2`` and three ``irfft2`` to form
    ``flat_lap h`` and ``grad h``, then three ``rfft2`` and one ``irfft2``
    for the outer Laplacian and divergence; ``M`` costs two of each.
    Without ``transport`` the kernel is the weighted bilaplacian
    ``flat_lap e^{2u} flat_lap`` alone.  ``M`` is symmetric positive
    semidefinite in the flat product and inverts the weighted bilaplacian
    on mean-zero fields resolved away from the Nyquist lines.
    """

    def __init__(self, cs: ConformalStructure, transport: bool = True) -> None:
        lattice = cs.lattice
        self.lap = _laplacian_multiplier(lattice)
        self.d1 = _derivative_multiplier(lattice, 1, 1)
        self.d2 = _derivative_multiplier(lattice, 2, 1)
        self.inv_lap = np.divide(1.0, self.lap, out=np.zeros_like(self.lap), where=self.lap != 0.0)
        self.e2u = cs.e2u.values
        self.em2u = cs.em2u.values
        self.em2u_mean = float(np.mean(self.em2u))
        self.kg_sq = cs.kg_sq.values if transport else None

    def apply(self, h: NDArray) -> NDArray:
        spectrum = np.fft.rfft2(h)
        out = self.lap * np.fft.rfft2(self.e2u * np.fft.irfft2(self.lap * spectrum))
        if self.kg_sq is not None:
            for d in (self.d1, self.d2):
                out -= d * np.fft.rfft2(self.kg_sq * np.fft.irfft2(d * spectrum))
        return np.fft.irfft2(out)

    def precondition(self, r: NDArray) -> NDArray:
        s = np.fft.irfft2(self.inv_lap * np.fft.rfft2(r))
        # the constant left free by the inner inverse makes the outer
        # Laplacian's argument mean-zero, hence solvable
        c = -float(np.mean(self.em2u * s)) / self.em2u_mean
        return np.fft.irfft2(self.inv_lap * np.fft.rfft2(self.em2u * (s + c)))


def el_residual(
    cs: ConformalStructure, theta: AngleField, formulation: str = "curved"
) -> ScalarField:
    """Residual of the fourth-order critical-point equation at ``theta``.

    A zero of this residual (in either formulation) is a critical point of
    :func:`bienergy` within the winding class of ``theta``.

    Args:
        cs: Conformal structure.
        theta: Angle field on the same lattice.
        formulation: ``"flat_weighted"``, what solve reports measure, is
            ``P alpha - b``: the spectral kernel on the periodic part minus
            the flat :func:`right_hand_side`; ``"curved"``, an oracle,
            assembles the equation with the curved operators of ``cs`` and
            is ``exp(2u)`` times the flat form.

    Returns:
        The residual as a scalar field.  Both formulations integrate to
        zero against their respective volume measures.
    """
    cs._check(theta.lattice)
    if formulation == "flat_weighted":
        source = right_hand_side(cs, theta.homotopy, "flat_weighted")
        return ScalarField(cs.lattice, _Kernel(cs).apply(theta.periodic.values) - source.values)
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

    step = float(np.sin(h))
    plus = bienergy(cs, theta.shifted(beta * step)).bienergy
    minus = bienergy(cs, theta.shifted(beta * (-step))).bienergy
    numeric = (plus - minus) / (2.0 * h)
    return DerivativePair(analytic=analytic, numeric=numeric)
