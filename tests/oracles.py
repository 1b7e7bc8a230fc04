"""Reference routes that the tests hold the package against.

Neither is reachable from a command: each recomputes a quantity the package
already gives, by a road that shares no equation solve with it.

``directional_derivative_check`` pairs the curved residual with a variation
against a central difference of the energy (criterion 3);
``descent_oracle`` minimizes the energy by line-searched descent and must land
on the linear solve's field (criterion 4).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from torusfield.angles import AngleField, HomotopyClass
from torusfield.conformal import ConformalStructure
from torusfield.energy import bienergy, el_residual, right_hand_side
from torusfield.lattice import ScalarField
from torusfield.stability import _sinusoidal_energies

#: relative gradient reduction at which the descent oracle declares victory
_DESCENT_GRADIENT_REDUCTION = 1e-8


class DerivativePair(NamedTuple):
    analytic: float
    numeric: float


class DescentResult(NamedTuple):
    angle: AngleField
    energy_trace: list[float]
    stalled: bool


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
    like h^2/6 times the first derivative, which halving h quarters.  Returns
    ``DerivativePair(analytic, numeric)`` along the periodic direction ``beta``
    at step ``h``.
    """
    cs._check(theta.lattice)
    cs._check(beta.lattice)
    residual = el_residual(cs, theta, formulation="curved")
    analytic = 2.0 * cs.integrate(beta, residual)

    plus, minus = _sinusoidal_energies(cs, theta, beta, h)
    numeric = (plus - minus) / (2.0 * h)
    return DerivativePair(analytic=analytic, numeric=numeric)


def descent_oracle(
    cs: ConformalStructure, homotopy: HomotopyClass, steps: int = 500
) -> DescentResult:
    """Minimize the energy over the periodic part by line-searched descent.

    An independent check on the linear solver: no operator equation is
    solved; each step moves along ``-M g``, the structure's preconditioner
    (the inverse of the leading-order term ``flat_lap e^{2u} flat_lap``,
    which makes convergence grid-independent) applied to the energy
    gradient ``g = 2 (P alpha - b)``, taken on the structure's kernel and
    the flat source assembled once.  The step exactly minimizes along the
    direction, guarded by halving if roundoff ever breaks monotonicity.  The
    gradient starts at ``-2 b`` and follows each step by ``2 step P d``,
    reusing the curvature's ``P d``: one apply per step.  Gradient and
    direction stay half spectra; the line search reads the direction through
    one ``irfft2``, and ``bienergy`` judges every candidate.

    Returns the final angle field, the energy trace (nonincreasing), and a
    flag set when the line search stalls before the gradient target.
    """
    lattice = cs.lattice
    kernel = cs.kernel
    source = np.fft.rfft2(right_hand_side(cs, homotopy, "flat_weighted").values)

    alpha = np.zeros(lattice.shape)
    energy = bienergy(cs, AngleField(homotopy, ScalarField(lattice, alpha))).bienergy
    trace = [energy]
    stalled = False
    reference_slope: float | None = None
    gradient = -2.0 * source

    for _ in range(steps):
        direction = -kernel.hermitian(kernel.precondition_spectrum(gradient))
        slope = kernel.inner(gradient, direction)  # negative along a descent direction
        if reference_slope is None:
            reference_slope = abs(slope)
            if reference_slope == 0.0:
                break
        if abs(slope) <= _DESCENT_GRADIENT_REDUCTION**2 * reference_slope:
            break

        applied = kernel.apply_spectrum(direction)
        curvature = kernel.inner(applied, direction)
        step = -slope / (2.0 * curvature) if curvature > 0.0 else 1.0
        moved = np.fft.irfft2(direction)
        for _halving in range(40):
            candidate = alpha + step * moved
            candidate_theta = AngleField(homotopy, ScalarField(lattice, candidate))
            candidate_energy = bienergy(cs, candidate_theta).bienergy
            if candidate_energy <= energy:
                break
            step *= 0.5
        else:
            stalled = True
            break
        alpha, energy = candidate, candidate_energy
        gradient = gradient + 2.0 * step * applied
        trace.append(energy)

    final = AngleField(homotopy, ScalarField(lattice, alpha - np.mean(alpha)))
    return DescentResult(angle=final, energy_trace=trace, stalled=stalled)
