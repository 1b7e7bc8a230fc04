"""Second variation of the energy at critical unit fields.

The Hessian of the energy in a fixed winding class is the solver's own ``P``:
the second variation along ``beta`` is ``2<beta, P beta>``, by parts a sum of
two squares, so critical fields can never be strict saddle points.  This
module evaluates that form on the structure's kernel and verifies it against
symmetric second differences of the energy along class-preserving variations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .angles import AngleField
from .conformal import ConformalStructure
from .energy import _sinusoidal_energies, bienergy, right_hand_side
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


def _require_critical(cs: ConformalStructure, theta_star: AngleField) -> None:
    """Refuse ``theta_star`` unless it is critical to within 1e-6 of the source
    scale plus ten times the roundoff floor of the e^{2u}-weighted flat assembly,
    ``eps (max(lap)^2 max e^{2u} + max(lap) max k_g^2) max|alpha| max e^{2u}``,
    which grows like n^4 and overtakes 1e-6 of the scale near 768^2."""
    source = right_hand_side(cs, theta_star.homotopy, "flat_weighted")
    residual, scale = _criticality(cs, theta_star, source, "curved")
    scale = max(1.0, scale)
    lap, e2u = float(np.max(cs.kernel.lap)), float(np.max(cs.e2u.values))
    roundoff = lap * (lap * e2u + float(np.max(cs.kg_sq.values))) * e2u
    roundoff *= np.finfo(float).eps * theta_star.periodic.max_abs()
    if residual > _CRITICALITY_THRESHOLD * scale + 10.0 * roundoff:
        raise NotCriticalError(
            "base field does not satisfy the critical-point equation "
            f"(residual {residual:.3e} against scale {scale:.3e})"
        )


def _differences(
    cs: ConformalStructure, theta_star: AngleField, base: float, beta: ScalarField, h: float
) -> tuple[float, float]:
    """First and second differences of the energy along ``t -> theta_star +
    sin(t) * beta`` (``base`` is its value at ``t = 0``); the energy is
    quadratic in ``sin(t)``, so the first is the first variation to roundoff."""
    plus, minus = _sinusoidal_energies(cs, theta_star, beta, h)
    return (plus - minus) / (2.0 * np.sin(h)), (plus - 2.0 * base + minus) / (h * h)


def halving_check(
    cs: ConformalStructure, theta: AngleField, base: float, beta: ScalarField
) -> tuple[float, float, bool, str]:
    """:func:`hessian_form` along ``beta``, the energy's first variation at
    ``theta`` (``base`` is the energy there), a verdict and its note: the form
    is nonnegative and its gap to the energy's second difference shrinks like
    ``h^2`` from ``h = 1e-3`` to ``5e-4`` (ratio in [3.5, 4.5]), as only the
    Hessian's does.  The energy is quadratic, so any base will do."""
    quadratic = hessian_form(cs, beta)
    first, second = _differences(cs, theta, base, beta, 1e-3)
    wide = abs(quadratic - second)
    # below the quadrature noise floor the ratio is meaningless, so small gaps pass
    if wide <= 1e-9 * max(1.0, abs(quadratic)):
        return quadratic, first, quadratic >= 0.0, "gap at noise floor"
    ratio = wide / max(abs(quadratic - _differences(cs, theta, base, beta, 5e-4)[1]), 1e-300)
    return quadratic, first, quadratic >= 0.0 and 3.5 <= ratio <= 4.5, f"halving ratio {ratio:.2f}"


def hessian_vs_energy_check(
    cs: ConformalStructure, theta_star: AngleField, beta: ScalarField, h: float = 1e-3
) -> HessianSample:
    """Compare :func:`hessian_form` against a symmetric second difference of
    the energy at a critical field.

    The difference runs along the path ``t -> theta_star + sin(t) * beta``
    (see :func:`torusfield.energy.directional_derivative_check` for why a
    straight line would make the convergence contract vacuous), giving
    ``gap = quadratic_value * h^2 / 3`` up to higher order: halving ``h``
    quarters the gap, but only if ``P`` is the energy's Hessian.  The base
    must be critical (see :class:`NotCriticalError`).

    Raises:
        NotCriticalError: when ``theta_star`` does not satisfy the
            critical-point equation to within 1e-6 of the source scale
            plus the assembly's roundoff.
    """
    cs._check(theta_star.lattice)
    cs._check(beta.lattice)
    _require_critical(cs, theta_star)

    quadratic = hessian_form(cs, beta)
    _, second = _differences(cs, theta_star, bienergy(cs, theta_star).bienergy, beta, h)
    return HessianSample(beta, quadratic, second, gap=abs(quadratic - second))
