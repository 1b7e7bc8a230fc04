"""Linear solves for critical unit fields in a prescribed winding class.

The critical-point equation is a fourth-order linear PDE for the periodic
part of the angle.  Its operator

    P h = flat_lap(e^{2u} flat_lap h) - flat_div(k_g^2 grad h)

is symmetric positive semidefinite in the flat L2 product, with kernel
exactly the constants, so every solve runs preconditioned conjugate
gradients on the mean-zero subspace against this flat-weighted form.  One
spectral kernel per structure (``ConformalStructure.kernel``: the solve, its
report, the flat residual, the stability gate and the rigidity check
share it) applies P with the lattice's own multipliers on the ``rfft2`` half
spectrum, where every iterate stays: a PCG iteration costs three forward and
three inverse 2-D transforms for P and one of each for the preconditioner, the
exact inverse of the leading-order term flat_lap e^{2u} flat_lap on mean-zero fields,

    M r = flat_lap^+[e^{-2u}(flat_lap^+ r + c)],   c = -mean(e^{-2u} flat_lap^+ r) / mean(e^{-2u}),

which keeps iteration counts grid-independent and nearly independent of
the size of the conformal exponent.  P does not depend on the winding class
and the source is affine in it, so three such solves per structure, of the
classes (0, 0), (1, 0) and (0, 1), kept on the kernel while the structure
lives, give every class as their combination.  Reports measure criticality
on the kernel and source of the returned field, weighted by e^{2u} where the
curved equation is asked for; energy and P alpha share one derivative pass
(4 + 4 transforms): a solve costs ``8 it + 13``, a cached class 12.  Each
2-D transform is the kernel's two 1-D passes, NumPy's own.  The curved
assembly (the pointwise multiple e^{2u} P, symmetric against the curved area
element) survives only as an independent oracle.

Each call lends the kernel its work arrays for the call's length (see
``_Kernel``), so a kernel is not re-entrant: two threads must not solve on
one structure at once.

The rigidity check runs here as well, on the same half spectra: an
inverse-iteration estimate of the smallest Rayleigh quotient of the weighted
bilaplacian, the operator whose kernel rigidity forces purely "vertical"
critical fields to be constant.  The gradient-descent oracle, which must land
on the field the linear solve produces, lives in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .angles import AngleField, HomotopyClass
from .conformal import ConformalStructure, _Kernel
from .energy import EnergyBreakdown, _breakdown
from .lattice import LatticeSpec, ScalarField

_FORMULATIONS = ("curved", "flat_weighted")

#: PCG stagnates once its relative residual, below the floor, has not halved
#: within the window.  Above the floor the 2-norm residual may plateau for a
#: thousand iterations and still converge (unpreconditioned CG at 64^2).
_STAGNATION_FLOOR = 1e-12
_STAGNATION_WINDOW = 16

#: applications of M in the rigidity check, the one forming its start included
_RIGIDITY_ITERATIONS = 31


class ConvergenceError(RuntimeError):
    """PCG stopped short of its residual target; the message says why."""

    def __init__(self, message: str, residual_history: list[float]):
        super().__init__(message)
        self.residual_history = residual_history


@dataclass(frozen=True)
class SolveOptions:
    """Solve settings.  ``formulation`` picks the weight of the report's
    residual: e^{2u} for ``"curved"``, 1 for ``"flat_weighted"``.  The solve
    itself always runs the flat-weighted system, within ``10 n1 n2`` iterations."""

    tolerance: float = 1e-10
    formulation: str = "curved"

    def __post_init__(self) -> None:
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must lie in (0, 1)")
        if self.formulation not in _FORMULATIONS:
            raise ValueError(f"unknown formulation: {self.formulation!r}")


class SolveReport(NamedTuple):
    """Outcome of one solve.  ``iterations`` counts the PCG iterations of every
    solve the field rests on (see ``solve_homotopy_class``); in-memory
    ``residual_history`` lays their relative residuals end to end behind one
    leading entry (``(0.0,)`` when none ran), so it need not decrease, and ends
    with ``final_relative_residual``: PCG's recursive residual, which
    ``SolveOptions.tolerance`` bounds.  The true residual ``|b - P alpha| / |b|``
    has a roundoff floor growing like n^4 on an n x n grid (4.2e-9 at 256^2,
    6.8e-8 at 512^2).  ``el_residual_maxnorm`` is the max-norm of the returned
    field's flat critical-point residual, weighted as ``SolveOptions`` says, and
    in-memory ``el_residual_relative`` that over the flat source's, weighted alike;
    ``energy`` and it equal ``bienergy`` and ``el_residual`` bit for bit."""

    iterations: int
    final_relative_residual: float
    energy: EnergyBreakdown
    el_residual_maxnorm: float
    wall_time: float
    homotopy_class: HomotopyClass
    residual_history: tuple[float, ...]
    el_residual_relative: float


class RigidityCertificate(NamedTuple):
    smallest_rayleigh: float
    verdict: bool


def apply_operator_P(
    cs: ConformalStructure, h: ScalarField, formulation: str = "curved"
) -> ScalarField:
    """Apply the fourth-order operator of the critical-point equation to h.

    ``"flat_weighted"`` is the solver's own spectral kernel; ``"curved"``
    composes the curved operators of ``cs`` and equals ``e^{2u}`` times it.
    Both are symmetric positive semidefinite in their natural inner
    products, with kernel the constants.
    """
    cs._check(h.lattice)
    if formulation == "flat_weighted":
        return ScalarField(cs.lattice, cs.kernel.apply(h.values))
    if formulation == "curved":
        return cs.laplacian(cs.laplacian(h)) - cs.divergence(cs.kg_sq * cs.gradient(h))
    raise ValueError(f"unknown formulation: {formulation!r}")


### Conjugate gradients on the half spectrum


def _project(arr: NDArray) -> NDArray:
    return arr - np.mean(arr)


def _source_spectrum(kernel: _Kernel, b: NDArray) -> tuple[NDArray, float]:
    """``b̂``, Hermitian and mean-free, and its norm in the flat product."""
    r = kernel.hermitian(kernel.forward(b))
    r[0, 0] = 0.0
    return r, np.sqrt(kernel.inner(r, r))


def _pcg(
    kernel: _Kernel, precondition: Callable, b: NDArray, tolerance: float,
    max_iterations: int, x0: NDArray | None = None,
) -> tuple[NDArray, list[float], NDArray]:
    """Preconditioned conjugate gradients for ``kernel``'s P on the mean-zero
    subspace, in the flat product, on ``rfft2`` half spectra (the mean is entry
    ``[0, 0]``), from the half spectrum ``x0`` if given, else from zero.  ``b̂``,
    ``x0`` and each output of P and ``precondition`` are made Hermitian, so that
    ``kernel.inner`` counts only what ``irfft2`` sees.  Returns the solution, by
    one inverse transform, the relative-residual history (one entry per iteration
    after the start's, which is 1.0 from zero; ``[0.0]`` for a zero source), and
    the final recursive residual as a half spectrum.  Raises ConvergenceError when
    the budget runs out, on stagnation, at a non-finite relative residual, or
    when the norm of a source above its roundoff (``kernel.source_roundoff``)
    underflows.
    """
    r, bnorm = _source_spectrum(kernel, b)
    if bnorm == 0.0:
        # a source within its assembly's roundoff is a zero one
        if (largest := float(np.max(np.abs(b)))) > kernel.source_roundoff():
            raise ConvergenceError(f"the source's norm underflowed to 0, though max|b| = {largest:.3e}: "
                                   "its relative residuals are undefined", [np.nan])
        return np.zeros_like(b), [0.0], r
    if x0 is None:
        x = np.zeros_like(r)
    else:
        x = kernel.hermitian(x0.copy())
        x[0, 0] = 0.0
        r -= kernel.hermitian(kernel.apply_spectrum(x))
    history = [float(np.sqrt(kernel.inner(r, r)) / bnorm)]
    if history[0] <= tolerance:
        return kernel.inverse(x), history, r

    z = kernel.hermitian(precondition(r))
    d = z.copy()
    rz = kernel.inner(r, z)
    mark, marked = history[0], 0
    for iteration in range(1, max_iterations + 1):
        if not np.isfinite(history[-1]):
            raise ConvergenceError(f"relative residual not finite at iteration {iteration - 1}: "
                                   "the source or an iterate overflowed a float", history)
        Ad = kernel.hermitian(kernel.apply_spectrum(d))
        dAd = kernel.inner(d, Ad)
        if dAd <= 0.0:
            raise ConvergenceError(
                "search direction lost positivity (operator not positive "
                "definite on the mean-zero subspace)",
                history,
            )
        step = rz / dAd
        x += step * d
        r -= step * Ad
        rel = float(np.sqrt(kernel.inner(r, r)) / bnorm)
        history.append(rel)
        if rel <= tolerance:
            return kernel.inverse(x), history, r
        if rel <= 0.5 * mark:
            mark, marked = rel, iteration
        elif mark <= _STAGNATION_FLOOR and iteration - marked >= _STAGNATION_WINDOW:
            raise ConvergenceError(
                f"stagnated at best relative residual {min(history):.3e}: not "
                f"halved in {_STAGNATION_WINDOW} iterations below roundoff",
                history,
            )
        z = kernel.hermitian(precondition(r))
        rz_next = kernel.inner(r, z)
        if rz_next <= 0.0:
            raise ConvergenceError(
                f"preconditioned residual vanished at relative residual {rel:.3e}: "
                "what is left lies outside the operator's range",
                history,
            )
        d = z + (rz_next / rz) * d
        rz = rz_next
    raise ConvergenceError(
        f"no convergence within {max_iterations} iterations "
        f"(last relative residual {history[-1]:.3e})",
        history,
    )


def _iteration_budget(lattice: LatticeSpec) -> int:
    return 10 * lattice.n1 * lattice.n2


def _report(
    cs: ConformalStructure,
    theta: AngleField,
    opts: SolveOptions,
    source: NDArray,
    history: list[float],
    started: float,
) -> SolveReport:
    # one derivative pass serves the energy and P alpha
    spectrum, fields, applied = cs.kernel.evaluate(theta.periodic.values)
    weighted = opts.formulation == "curved"
    residual, scale = cs.kernel.criticality(applied, source, weighted=weighted)
    return SolveReport(
        iterations=len(history) - 1,
        final_relative_residual=history[-1],
        energy=_breakdown(cs, theta, spectrum, fields),
        el_residual_maxnorm=residual,
        wall_time=time.perf_counter() - started,
        homotopy_class=theta.homotopy,
        residual_history=tuple(history),
        el_residual_relative=residual / max(scale, np.finfo(float).tiny),
    )


### Every class from three solves

#: alpha(m, n) is the combination of these classes' with weights (1 - m - n, m, n)
_BASIS = (HomotopyClass(0, 0), HomotopyClass(1, 0), HomotopyClass(0, 1))


def solve_homotopy_class(
    cs: ConformalStructure, homotopy: HomotopyClass, opts: SolveOptions | None = None
) -> tuple[AngleField, SolveReport]:
    """Solve for the critical angle field in the given winding class.

    The periodic part of class (m, n) is ``sum w_i alpha_i`` over the basis
    classes (0, 0), (1, 0), (0, 1), weights ``w = (1 - m - n, m, n)``.  A basis
    class is one PCG solve at ``opts.tolerance``, made when first needed and kept
    in ``cs.kernel.bases`` (tolerance -> class -> periodic part, final recursive
    residual as a half spectrum, residual history) while the structure lives.
    Any other class reports PCG's recursive residual ``|sum w_i r_i|`` over its
    own source's norm, and PCG continues from the combination where that misses
    the tolerance.  No result depends on what was
    solved before.  Returns the angle field and its ``SolveReport``.
    """
    opts = opts or SolveOptions()
    started = time.perf_counter()
    kernel = cs.kernel
    with kernel.working():  # released when the call returns
        b = kernel.source(homotopy)
        budget = _iteration_budget(cs.lattice)
        solves = kernel.bases.setdefault(opts.tolerance, {})
        weights = (1 - homotopy.m - homotopy.n, homotopy.m, homotopy.n)
        terms = [(w, klass) for w, klass in zip(weights, _BASIS) if w]
        for _, klass in terms:
            if klass not in solves:
                source = b if klass == homotopy else kernel.source(klass)
                x, rels, r = _pcg(kernel, kernel.precondition_spectrum, source, opts.tolerance, budget)
                solves[klass] = (_project(x), r, rels)
        # one leading entry: 1.0, or 0.0 when every source it rests on is zero
        history = [max(solves[klass][2][0] for _, klass in terms)]
        history += [rel for _, klass in terms for rel in solves[klass][2][1:]]
        if len(terms) == 1:  # a basis class
            alpha = solves[homotopy][0]
        else:
            alpha = sum(w * solves[klass][0] for w, klass in terms)
            r = sum(w * solves[klass][1] for w, klass in terms)
            _, bnorm = _source_spectrum(kernel, b)
            # the last entry is the field's own residual; a source that assembles
            # to zero goes to _pcg, which returns zero
            history[-1] = float(np.sqrt(kernel.inner(r, r)) / bnorm) if bnorm else np.inf
            if not history[-1] <= opts.tolerance:
                x, polish, _ = _pcg(
                    kernel, kernel.precondition_spectrum, b, opts.tolerance, budget,
                    x0=kernel.forward(alpha),
                )
                alpha, history[-1:] = _project(x), polish
        theta = AngleField(homotopy, ScalarField(cs.lattice, alpha))
        return theta, _report(cs, theta, opts, b, history, started)


def section_rigidity_check(cs: ConformalStructure, seed: int = 0) -> RigidityCertificate:
    """Estimate the smallest mean-zero Rayleigh quotient of the weighted
    bilaplacian h -> flat_lap(e^{2u} flat_lap h) by inverse iteration with
    the structure's ``M``, the operator's inverse off the Nyquist lines, from
    ``M raw`` with ``raw`` drawn from ``seed``.  The iterate stays a half
    spectrum, as in the solve: a step is one ``M``, two transforms, and the
    quotient one bilaplacian at the end.  The range of ``M`` excludes the mean
    and every mode the Laplacian annihilates.  The estimate is a Rayleigh
    quotient, so an upper bound on the smallest one, and seed-dependent.

    A strictly positive quotient certifies that the only periodic angle
    functions annihilated by the operator are constants, i.e. the purely
    vertical critical fields are rigid.  Every mean-zero quotient is at least
    ``min(e^{2u}) lam1^2``, ``lam1`` the lattice's smallest nonzero flat
    Laplacian eigenvalue, with equality on a constant exponent; the verdict
    holds when the estimate reaches that bound to a relative 1e-12, so it
    scales with the metric.
    """
    kernel = cs.kernel
    x = kernel.forward(np.random.default_rng(seed).standard_normal(cs.lattice.shape))
    with kernel.working():
        for _ in range(_RIGIDITY_ITERATIONS):
            x = kernel.hermitian(kernel.precondition_spectrum(x))
            x /= np.sqrt(kernel.inner(x, x))
        rayleigh = kernel.inner(x, kernel.bilaplacian_spectrum(x))

    bound = float(np.min(kernel.e2u)) * float(np.min(kernel.lap[kernel.lap != 0.0])) ** 2
    return RigidityCertificate(rayleigh, verdict=rayleigh >= (1.0 - 1e-12) * bound)
