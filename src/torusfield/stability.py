"""Second variation of the energy at critical unit fields.

The Hessian of the energy in a fixed winding class is the solver's own ``P``:
the second variation along ``beta`` is ``2<beta, P beta>``, by parts a sum of
two squares, so critical fields can never be strict saddle points.  This
module evaluates that form on the structure's kernel and checks it against
the energy: exactly, by the energy's quadratic identities at ``theta +- beta``
(:func:`variation_check`, behind ``verify`` and ``stability``), and to second
order in a step by symmetric second differences along class-preserving
variations (:func:`hessian_vs_energy_check`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .angles import AngleField
from .conformal import ConformalStructure
from .energy import bienergy, right_hand_side
from .lattice import ScalarField, integrate_inner
from .solver import _criticality, apply_operator_P

#: max-norm level (relative to the source, both weighted by e^{2u}) above
#: which a field is rejected as a base point for second-difference checks
_CRITICALITY_THRESHOLD = 1e-6


class NotCriticalError(ValueError):
    """The base field is not critical.  A symmetric second difference of the
    quadratic energy cancels the first variation anywhere, but the check is of
    the second variation at a critical field, and large first-order terms cost
    cancellation digits."""


class HessianSample(NamedTuple):
    beta: ScalarField
    quadratic_value: float
    second_difference: float
    gap: float


def hessian_form(cs: ConformalStructure, beta: ScalarField) -> float:
    """Quadratic form ``2<beta, P beta>`` of the second variation along the
    periodic direction ``beta``, with ``P`` the solver's kernel.

    The value is nonnegative and vanishes exactly when ``beta`` is constant
    (on metrics whose curvature does not vanish on open sets; where it does,
    only the fourth-order term constrains ``beta``).
    """
    return 2.0 * integrate_inner(beta, apply_operator_P(cs, beta, "flat_weighted"))


def _require_critical(cs: ConformalStructure, theta_star: AngleField) -> ScalarField:
    """Refuse ``theta_star`` unless it is critical to within 1e-6 of the source
    scale plus ten times the roundoff floor of the e^{2u}-weighted flat assembly,
    ``eps (max(lap)^2 max e^{2u} + max(lap) max k_g^2) max|alpha| max e^{2u}``,
    which grows like n^4 and overtakes 1e-6 of the scale near 768^2.  Returns the
    flat ``P alpha - b``, the ``"flat_weighted"`` :func:`torusfield.energy.el_residual`."""
    source = right_hand_side(cs, theta_star.homotopy, "flat_weighted")
    applied = cs.kernel.apply(theta_star.periodic.values)
    residual, scale = _criticality(cs, theta_star, source, "curved", applied)
    scale = max(1.0, scale)
    lap, e2u = float(np.max(cs.kernel.lap)), float(np.max(cs.e2u.values))
    roundoff = lap * (lap * e2u + float(np.max(cs.kg_sq.values))) * e2u
    roundoff *= np.finfo(float).eps * theta_star.periodic.max_abs()
    if residual > _CRITICALITY_THRESHOLD * scale + 10.0 * roundoff:
        raise NotCriticalError(
            "base field does not satisfy the critical-point equation "
            f"(residual {residual:.3e} against scale {scale:.3e})"
        )
    return ScalarField(cs.lattice, applied - source.values)


def variation_check(
    cs: ConformalStructure, theta: AngleField, base: float, beta: ScalarField, residual: ScalarField
) -> tuple[float, float, bool, str]:
    """:func:`hessian_form` along ``beta``, the energy's first variation at
    ``theta`` (``base`` is the energy there, ``residual`` the flat ``P alpha -
    b``), a verdict and its note.  The energy is exactly quadratic in alpha, so
    with ``E+-`` the energies at ``theta +- beta`` two identities hold at any
    base and with no step: ``E+ + E- - 2 base = 2<beta, P beta>`` ties the
    kernel to the energy, and ``(E+ - E-)/2 = 2<beta, P alpha - b>`` the
    source.  The form must be nonnegative and both gaps at most ``1e3 eps S``,
    ``S = max(1, |base|, |E+|, |E-|)``."""
    quadratic = hessian_form(cs, beta)
    plus, minus = (bienergy(cs, theta.shifted(beta * s)).bienergy for s in (1.0, -1.0))
    first = 0.5 * (plus - minus)
    scale = max(1.0, abs(base), abs(plus), abs(minus))
    second_gap = abs(plus - 2.0 * base + minus - quadratic) / scale
    first_gap = abs(first - 2.0 * integrate_inner(beta, residual)) / scale
    tolerance = 1e3 * np.finfo(float).eps
    ok = quadratic >= 0.0 and max(second_gap, first_gap) <= tolerance
    note = f"relative gaps {second_gap:.1e} and {first_gap:.1e} (tolerance {tolerance:.1e})"
    return quadratic, first, ok, note


def hessian_vs_energy_check(
    cs: ConformalStructure, theta_star: AngleField, beta: ScalarField, h: float = 1e-3
) -> HessianSample:
    """Compare :func:`hessian_form` against a symmetric second difference of
    the energy at a critical field.

    The difference runs along the path ``t -> theta_star + sin(t) * beta``: the
    energy is exactly quadratic along a straight line, whose difference would be
    exact to roundoff with no h^2 term to watch.  The curved path gives
    ``gap = quadratic_value * h^2 / 3`` up to higher order: halving ``h``
    quarters the gap, but only if ``P`` is the energy's Hessian.  A base that
    is not critical to 1e-6 of the source scale plus the assembly's roundoff
    raises :class:`NotCriticalError`.
    """
    cs._check(theta_star.lattice)
    cs._check(beta.lattice)
    _require_critical(cs, theta_star)

    quadratic = hessian_form(cs, beta)
    plus, minus = _sinusoidal_energies(cs, theta_star, beta, h)
    second = (plus - 2.0 * bienergy(cs, theta_star).bienergy + minus) / (h * h)
    return HessianSample(beta, quadratic, second, gap=abs(quadratic - second))


def _sinusoidal_energies(
    cs: ConformalStructure, theta: AngleField, beta: ScalarField, h: float
) -> tuple[float, float]:
    """Energies at ``t = h`` and ``t = -h`` on the path ``t -> theta + sin(t) * beta``."""
    step = float(np.sin(h))
    return tuple(bienergy(cs, theta.shifted(beta * s)).bienergy for s in (step, -step))
