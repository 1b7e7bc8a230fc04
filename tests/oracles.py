"""Reference routes that the tests hold the package against.

None is reachable from a command: each recomputes a quantity the package
already gives, by a road that shares no equation solve with it, or, for
``plain_solve``, no work array.

``directional_derivative_check`` pairs the curved residual with a variation
against a central difference of the energy (criterion 3);
``descent_oracle`` minimizes the energy by line-searched descent and must land
on the linear solve's field (criterion 4); ``plain_solve`` is a class solve
whose kernel ops, conjugate gradients, source and report are plain NumPy
expressions, a fresh array per step, which the solve on work arrays must
equal bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from torusfield.angles import AngleField, HomotopyClass, _constant_gradient
from torusfield.conformal import ConformalStructure, _Kernel
from torusfield.energy import EnergyBreakdown, bienergy, el_residual, right_hand_side
from torusfield.lattice import ScalarField, VectorFieldFlat, flat_divergence
from torusfield.solver import _BASIS

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

    step = float(np.sin(h))
    plus, minus = (bienergy(cs, theta.shifted(beta * s)).bienergy for s in (step, -step))
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


class PlainKernel(_Kernel):
    """The kernel ops as plain expressions: a fresh array for every step."""

    def derivatives(self, spectrum):
        return tuple(np.fft.irfft2(m * spectrum) for m in (self.lap, self.d1, self.d2))

    def finish(self, lap_h, d1_h, d2_h):
        out = self.lap * np.fft.rfft2(self.e2u * lap_h)
        for d, d_h in ((self.d1, d1_h), (self.d2, d2_h)):
            out -= d * np.fft.rfft2(self.kg_sq * d_h)
        return out

    def precondition_spectrum(self, spectrum):
        s = np.fft.irfft2(self.inv_lap * spectrum)
        c = -float(np.mean(self.em2u * s)) / self.em2u_mean
        return self.inv_lap * np.fft.rfft2(self.em2u * (s + c))

    def inner(self, x, y):
        return float(np.sum(self.weight * (x.view(np.float64) * y.view(np.float64))))


class PlainSolve(NamedTuple):
    alpha: np.ndarray
    residual_history: list[float]
    energy: EnergyBreakdown
    el_residual_maxnorm: float


def _plain_source(cs: ConformalStructure, homotopy: HomotopyClass) -> np.ndarray:
    y1, y2 = _constant_gradient(homotopy, cs.lattice)
    flux = cs.kg_sq * VectorFieldFlat(y1 - cs.jgrad_u.comp1, y2 - cs.jgrad_u.comp2)
    return flat_divergence(flux).values


def _plain_pcg(kernel: PlainKernel, b: np.ndarray, tolerance: float, x0=None):
    """The solver's conjugate gradients without its budget and stagnation stops."""
    r = kernel.hermitian(np.fft.rfft2(b))
    r[0, 0] = 0.0
    bnorm = np.sqrt(kernel.inner(r, r))
    if bnorm == 0.0:
        return np.zeros_like(b), [0.0], r
    x = np.zeros_like(r)
    if x0 is not None:
        x = kernel.hermitian(x0.copy())
        x[0, 0] = 0.0
        r = r - kernel.hermitian(kernel.apply_spectrum(x))
    history = [float(np.sqrt(kernel.inner(r, r)) / bnorm)]
    if history[0] <= tolerance:
        return np.fft.irfft2(x), history, r
    z = kernel.hermitian(kernel.precondition_spectrum(r))
    d = z.copy()
    rz = kernel.inner(r, z)
    while True:
        Ad = kernel.hermitian(kernel.apply_spectrum(d))
        step = rz / kernel.inner(d, Ad)
        x = x + step * d
        r = r - step * Ad
        history.append(float(np.sqrt(kernel.inner(r, r)) / bnorm))
        if history[-1] <= tolerance:
            return np.fft.irfft2(x), history, r
        z = kernel.hermitian(kernel.precondition_spectrum(r))
        rz_next = kernel.inner(r, z)
        d = z + (rz_next / rz) * d
        rz = rz_next


def _plain_quadrature(lattice, *factors) -> float:
    prod = factors[0]
    for factor in factors[1:]:
        prod = prod * factor
    return float(lattice.area / (lattice.n1 * lattice.n2) * np.sum(prod))


def plain_solve(
    cs: ConformalStructure, homotopy: HomotopyClass, tolerance: float = 1e-10,
    formulation: str = "curved",
) -> PlainSolve:
    """``solve_homotopy_class`` on a fresh structure, in plain expressions: the
    three basis solves, their combination, a polish where it misses
    ``tolerance``, and the report's energy and weighted residual max-norm."""
    lattice = cs.lattice
    kernel = PlainKernel(cs)
    weights = (1 - homotopy.m - homotopy.n, homotopy.m, homotopy.n)
    terms = [(w, klass) for w, klass in zip(weights, _BASIS) if w]
    solves = {}
    for _, klass in terms:
        x, rels, r = _plain_pcg(kernel, _plain_source(cs, klass), tolerance)
        solves[klass] = (x - np.mean(x), r, rels)
    history = [max(solves[klass][2][0] for _, klass in terms)]
    history += [rel for _, klass in terms for rel in solves[klass][2][1:]]
    b = _plain_source(cs, homotopy)
    if len(terms) == 1:
        alpha = solves[homotopy][0]
    else:
        alpha = sum(w * solves[klass][0] for w, klass in terms)
        r = sum(w * solves[klass][1] for w, klass in terms)
        rb = kernel.hermitian(np.fft.rfft2(b))
        rb[0, 0] = 0.0
        bnorm = np.sqrt(kernel.inner(rb, rb))
        history[-1] = float(np.sqrt(kernel.inner(r, r)) / bnorm) if bnorm else np.inf
        if not history[-1] <= tolerance:
            x, polish, _ = _plain_pcg(kernel, b, tolerance, x0=np.fft.rfft2(alpha))
            alpha, history[-1:] = x - np.mean(x), polish

    lap_a, d1_a, d2_a = kernel.derivatives(np.fft.rfft2(alpha))
    applied = np.fft.irfft2(kernel.finish(lap_a, d1_a, d2_a))
    weight = cs.e2u.values if formulation == "curved" else 1.0
    maxnorm = float(np.max(np.abs(weight * (applied - b))))
    vertical = _plain_quadrature(lattice, lap_a, lap_a, cs.e2u.values)
    y1, y2 = _constant_gradient(homotopy, lattice)
    b1, b2 = d1_a + y1 - cs.jgrad_u.comp1.values, d2_a + y2 - cs.jgrad_u.comp2.values
    density = b1 * b1 + b2 * b2
    horizontal = _plain_quadrature(lattice, density, cs.kg_sq.values)
    energy = EnergyBreakdown(
        vertical + horizontal, vertical, horizontal, 0.5 * _plain_quadrature(lattice, density),
        _plain_quadrature(lattice, cs.em2u.values),
    )
    return PlainSolve(alpha, history, energy, maxnorm)
