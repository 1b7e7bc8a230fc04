"""Second variation of the energy at critical unit fields.

The Hessian of the energy in a fixed winding class is an explicit sum of
two squares, so critical fields can never be strict saddle points.  This
module evaluates that quadratic form and verifies it against symmetric
second differences of the energy along class-preserving variations.
"""

from __future__ import annotations

from typing import NamedTuple

from .angles import AngleField
from .conformal import ConformalStructure
from .energy import _Kernel, _sinusoidal_energies, bienergy, right_hand_side
from .lattice import ScalarField, dot, flat_gradient, flat_laplacian, integrate_inner
from .solver import _criticality

#: max-norm level (relative to the source, both weighted by e^{2u}) above
#: which a field is rejected as a base point for second-difference checks
_CRITICALITY_THRESHOLD = 1e-6


class NotCriticalError(ValueError):
    """The base field is not a critical point, so a second difference of the
    energy would mix in first-order terms and measure nothing useful."""


class HessianSample(NamedTuple):
    beta: ScalarField
    quadratic_value: float
    second_difference: float
    gap: float


def hessian_form(cs: ConformalStructure, beta: ScalarField) -> float:
    """Quadratic form of the second variation along the periodic direction
    ``beta``.

    The value is a sum of two nonnegative quadratures and vanishes exactly
    when ``beta`` is constant (on metrics whose curvature does not vanish
    on open sets; where it does, only the fourth-order term constrains
    ``beta``).
    """
    cs._check(beta.lattice)
    lap = flat_laplacian(beta)
    vertical = 2.0 * integrate_inner(lap, lap, weight=cs.e2u)
    grad = flat_gradient(beta)
    horizontal = 2.0 * integrate_inner(dot(grad, grad), cs.kg_sq)
    return vertical + horizontal


def _require_critical(cs: ConformalStructure, theta_star: AngleField) -> None:
    """Refuse ``theta_star`` unless it is critical to within 1e-6 of the source scale."""
    source = right_hand_side(cs, theta_star.homotopy, "flat_weighted")
    residual, scale = _criticality(_Kernel(cs), theta_star, source, "curved")
    scale = max(1.0, scale)
    if residual > _CRITICALITY_THRESHOLD * scale:
        raise NotCriticalError(
            "base field does not satisfy the critical-point equation "
            f"(residual {residual:.3e} against scale {scale:.3e})"
        )


def _second_difference(
    cs: ConformalStructure, theta_star: AngleField, base: float, beta: ScalarField, h: float
) -> float:
    """Second difference of the energy along ``t -> theta_star + sin(t) * beta``
    (``base`` is its value at ``t = 0``)."""
    plus, minus = _sinusoidal_energies(cs, theta_star, beta, h)
    return (plus - 2.0 * base + minus) / (h * h)


def hessian_vs_energy_check(
    cs: ConformalStructure, theta_star: AngleField, beta: ScalarField, h: float = 1e-3
) -> HessianSample:
    """Compare :func:`hessian_form` against a symmetric second difference of
    the energy at a critical field.

    The difference runs along the path ``t -> theta_star + sin(t) * beta``
    (see :func:`torusfield.energy.directional_derivative_check` for why a
    straight line would make the convergence contract vacuous), giving
    ``gap = quadratic_value * h^2 / 3`` up to higher order: halving ``h``
    quarters the gap.

    Raises:
        NotCriticalError: when ``theta_star`` does not satisfy the
            critical-point equation to within 1e-6 of the source scale.
    """
    cs._check(theta_star.lattice)
    cs._check(beta.lattice)
    _require_critical(cs, theta_star)

    quadratic = hessian_form(cs, beta)
    second = _second_difference(cs, theta_star, bienergy(cs, theta_star).bienergy, beta, h)
    return HessianSample(beta, quadratic, second, gap=abs(quadratic - second))
