"""Command line: solve a winding class, re-measure a saved field, verify the
calculus identities, probe second-order stability, classify on model groups.

``verify`` and ``stability`` tie the kernel ``P`` and the source ``b`` to the
energy by its exact quadratic identities at ``theta +- beta`` (see
:func:`torusfield.stability.variation_check`), to roundoff.

Exit codes follow the usual convention: 0 on success, 1 when a requested
check, comparison, or solve fails, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import io as runio
from .angles import AngleField, HomotopyClass, angle_to_unit_field
from .conformal import ConformalStructure, frame_connection, section_residual_pair
from .energy import bienergy, el_residual
from .lattice import (
    ScalarField,
    VectorFieldFlat,
    bandlimited_field,
    flat_laplacian,
    integrate_inner,
    rotate_J,
)
from .liegroups import _PROBLEMS, _RESOLUTION, LeftInvariantModel, classify, compare_known, hyperbolic, sol3, su2
from .solver import (
    _FORMULATIONS,
    ConvergenceError,
    section_rigidity_check,
    solve_homotopy_class,
)
from .stability import NotCriticalError, critical_residual, variation_check


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    at = argv.index("--classes") + 1 if "--classes" in argv else 0
    if 0 < at < len(argv) and re.match(r"-\d", argv[at]):  # argparse reads "-2:2,..." as a flag
        argv[at - 1 : at + 1] = [f"--classes={argv[at]}"]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems by exiting
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ConvergenceError, NotCriticalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


### Argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusfield",
        description="Critical unit vector fields on conformally flat tori, "
        "and their classification on model groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one winding class and write artifacts")
    _add_geometry_flags(solve)
    _add_solver_flags(solve)
    solve.add_argument("--formulation", choices=_FORMULATIONS,
                       help="weight of the reported residual: e^(2u) (curved) or 1")
    solve.add_argument(
        "--outputs",
        type=runio.parse_outputs,
        help=f"comma list of artifacts to write: {', '.join(runio.OUTPUT_KINDS)}",
    )
    solve.add_argument("--outdir", help="output directory (default: TORUSFIELD_OUTDIR or .)")
    solve.add_argument("--classes", metavar="M0:M1,N0:N1",
                       help="instead of --class, solve every class in both ranges; writes nothing")
    solve.set_defaults(handler=_cmd_solve)

    energy = sub.add_parser("energy", help="recompute the energy of a saved field table")
    energy.add_argument("--field", required=True, help="field table written by solve")
    energy.add_argument(
        "--lattice",
        default=runio.RunConfig.lattice,
        help="generators the writing run used (default %(default)s); "
        "the table stores only fractional coordinates",
    )
    energy.set_defaults(handler=_cmd_energy)

    verify = sub.add_parser("verify", help="run the calculus identity checks")
    _add_geometry_flags(verify)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=_cmd_verify)

    stability = sub.add_parser(
        "stability", help="solve, then compare the second variation with the energy"
    )
    _add_geometry_flags(stability)
    _add_solver_flags(stability)
    stability.add_argument("--samples", type=int, default=5)
    stability.add_argument("--seed", type=int, default=0)
    stability.set_defaults(handler=_cmd_stability)

    lie = sub.add_parser(
        "lie", help="classify critical unit fields on a three-parameter model group"
    )
    lie.add_argument("--model", required=True, choices=tuple(_MODELS), help="model family")
    lie.add_argument(
        "--params",
        help="comma list: su2 wants three scales (default 1,1,1), "
        "hyperbolic wants dimension,curvature-scale (default 3,1)",
    )
    lie.add_argument(
        "--problem",
        default="biharmonic-section",
        choices=tuple(problem.replace("_", "-") for problem in _PROBLEMS),
    )
    lie.add_argument(
        "--compare",
        action="store_true",
        help="check the computed set against the known classification",
    )
    lie.add_argument("--resolution", type=int, default=_RESOLUTION)
    lie.add_argument("--seed", type=int, default=0)
    lie.set_defaults(handler=_cmd_lie)

    return parser


def _add_geometry_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lattice", help="'unit-square' or 'd1x,d1y;d2x,d2y'")
    sub.add_argument("--grid", help="grid counts: N or N1xN2")
    sub.add_argument("--u", help="conformal exponent: expression, number, or @samplefile")
    sub.add_argument("--config", help="key = value file; explicit flags override it")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--class",
        dest="winding",
        type=int,
        nargs=2,
        metavar=("M", "N"),
        help="winding numbers along the two generators",
    )
    sub.add_argument("--tolerance", type=float, help="relative residual target")


def _load_config(args: argparse.Namespace) -> runio.RunConfig:
    """Defaults, then the config file, then explicit flags."""
    config = runio.RunConfig()
    if getattr(args, "config", None):
        config = runio.RunConfig.from_text(
            Path(args.config).read_text(encoding="utf-8")
        )
    names = (field.name for field in fields(runio.RunConfig))
    overrides = {key: getattr(args, key) for key in names if getattr(args, key, None) is not None}
    return replace(config, **overrides)


def _resolve_outdir(args: argparse.Namespace) -> Path:
    if getattr(args, "outdir", None):
        return Path(args.outdir)
    env = os.environ.get("TORUSFIELD_OUTDIR")
    return Path(env) if env else Path(".")


### Subcommands


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    classes = None if args.classes is None else _class_ranges(args, config)
    cs, homotopy, opts = runio.realize(config)
    reports = []
    for klass in classes or [homotopy]:
        theta, report = solve_homotopy_class(cs, klass, opts)
        reports.append(report)
        print(
            f"class ({klass.m}, {klass.n}): {report.iterations} iterations, "
            f"relative residual {report.final_relative_residual:.3e}, "
            f"bienergy {report.energy.bienergy:.12g}"
        )
    if classes:
        least = min(reports, key=lambda report: report.energy.bienergy)
        klass = least.homotopy_class
        print(f"least energy: class ({klass.m}, {klass.n}), bienergy {least.energy.bienergy:.12g}")
    if config.outputs:
        for path in runio.write_outputs(_resolve_outdir(args), config, cs, theta, report):
            print(f"wrote {path}")
    return 0


def _class_ranges(args: argparse.Namespace, config: runio.RunConfig) -> list[HomotopyClass]:
    """The classes of ``--classes M0:M1,N0:N1``, which replaces ``--class`` and writes nothing."""
    if args.winding is not None or config.outputs:
        raise ValueError("--classes replaces --class and writes no artifacts; drop --class and --outputs")
    match = re.fullmatch(r"(-?\d+):(-?\d+),(-?\d+):(-?\d+)", args.classes.strip())
    bounds = [int(group) for group in match.groups()] if match else []
    if len(bounds) != 4 or bounds[0] > bounds[1] or bounds[2] > bounds[3]:
        raise ValueError(f"--classes wants M0:M1,N0:N1 with M0 <= M1 and N0 <= N1, got {args.classes!r}")
    m0, m1, n0, n1 = bounds
    return [HomotopyClass(m, n) for m in range(m0, m1 + 1) for n in range(n0, n1 + 1)]


def _cmd_energy(args: argparse.Namespace) -> int:
    cs, theta = runio.read_field_csv(args.field, args.lattice)
    breakdown = bienergy(cs, theta)
    print(f"class ({theta.homotopy.m}, {theta.homotopy.n})")
    for name, value in breakdown._asdict().items():
        print(f"{name} = {value:.17g}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    cs, homotopy, _ = runio.realize(config)
    rng = np.random.default_rng(args.seed)
    checks = ((name, *check(cs, homotopy, rng)) for name, check in _VERIFY_CHECKS)
    return _verdicts(checks, "checks", "all {} checks passed")


def _cmd_stability(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples wants a positive count, got {args.samples}")
    config = _load_config(args)
    cs, homotopy, opts = runio.realize(config)
    theta, report = solve_homotopy_class(cs, homotopy, opts)
    # every direction shares one base point: gate it once, which hands back its
    # flat residual; the report holds its energy
    base, residual = report.energy.bienergy, critical_residual(cs, theta)
    rng = np.random.default_rng(args.seed)

    def directions():
        for index in range(args.samples):
            beta = bandlimited_field(cs.lattice, rng, band=3, amplitude=0.5)
            quadratic, first, ok, note = variation_check(cs, theta, base, beta, residual)
            # a critical field's first variation vanishes
            ok = ok and abs(first) <= 1e-6 * max(1.0, base)
            yield f"direction {index}", ok, f"quadratic {quadratic:.6e}, {note}, first variation {first:.3e}"

    passed = "second variation nonnegative and both variations matched on all {} directions"
    return _verdicts(directions(), "directions", passed)


def _verdicts(checks: Iterable[tuple[str, bool, str]], noun: str, passed: str) -> int:
    """Print ``PASS``/``FAIL name: detail`` as each check finishes, then the
    summary: ``passed`` formatted with the count, or how many ``noun`` failed."""
    failures = total = 0
    for total, (name, ok, detail) in enumerate(checks, start=1):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    print(f"{failures} of {total} {noun} failed" if failures else passed.format(total))
    return 1 if failures else 0


def _cmd_lie(args: argparse.Namespace) -> int:
    model = _build_model(args.model, args.params)
    problem = args.problem.replace("-", "_")
    if args.compare:
        report = compare_known(model, problem, resolution=args.resolution, seed=args.seed)
        for text in report.matched:
            print(f"matched: {text}")
        for text in report.missing:
            print(f"missing: {text}")
        for text in report.extra:
            print(f"unexpected: {text}")
        if report.passed:
            print("classification matches the known solution set")
            return 0
        print("classification does NOT match the known solution set")
        return 1
    result = classify(model, problem, resolution=args.resolution, seed=args.seed)
    suffix = " (ambiguous)" if result.ambiguous else ""
    print(f"{model.name}, {args.problem}: {result.kind}{suffix}")
    for component in result.components:
        print(f"  {component.describe()}")
    return 0


#: model family -> (its builder, which returns None for parameters of the right
#: count that it cannot take, its default --params, what a misfit is told)
_MODELS: dict[str, tuple[Callable[..., LeftInvariantModel | None], tuple[float, ...], str]] = {
    "su2": (su2, (1.0, 1.0, 1.0), "su2 wants exactly three scales, e.g. --params 2,1.5,1"),
    "sol3": (sol3, (), "sol3 has no parameters; drop --params"),
    "hyperbolic": (
        lambda dim, c: hyperbolic(int(dim), c) if dim == int(dim) else None,
        (3.0, 1.0),
        "hyperbolic wants dimension,curvature-scale with integer dimension, e.g. --params 4,1",
    ),
}


def _build_model(family: str, params_text: str | None) -> LeftInvariantModel:
    build, default, usage = _MODELS[family]
    params = default
    if params_text is not None:
        try:
            params = tuple(float(piece) for piece in params_text.split(",") if piece.strip())
        except ValueError:
            params = ()
        if not params or not np.all(np.isfinite(params)):
            raise ValueError(f"--params wants a comma list of finite numbers, got {params_text!r}")
    model = build(*params) if len(params) == len(default) else None
    if model is None:
        raise ValueError(usage)
    return model


### Identity checks behind `verify`

_Check = Callable[
    [ConformalStructure, HomotopyClass, "np.random.Generator"], tuple[bool, str]
]


def _random_angle(cs: ConformalStructure, homotopy, rng) -> AngleField:
    return AngleField(homotopy, bandlimited_field(cs.lattice, rng, band=4, amplitude=0.4))


def _identity(label: str, gap: float, scale: float, tolerance: float) -> tuple[bool, str]:
    """Verdict and detail of an identity: ``gap`` relative to ``max(1, scale)``
    passes at most ``tolerance`` in magnitude, and the line prints that relative gap."""
    relative = gap / max(1.0, scale)
    return abs(relative) <= tolerance, f"{label} {relative:.2e} (tolerance {tolerance:.0e})"


def _component_gap(left: VectorFieldFlat, right: VectorFieldFlat) -> float:
    """Largest gap between matching components of two vector fields."""
    return max((left.comp1 - right.comp1).max_abs(), (left.comp2 - right.comp2).max_abs())


def _check_laplacian_rescaling(cs, homotopy, rng):
    """Curved Laplacian == e^{2u} * flat Laplacian, as operators on samples."""
    f = bandlimited_field(cs.lattice, rng, band=4)
    rescaled = cs.e2u * flat_laplacian(f)
    return _identity("max gap", (cs.laplacian(f) - rescaled).max_abs(), rescaled.max_abs(), 1e-8)


def _check_residual_collapse(cs, homotopy, rng):
    """Flat and curved tangential residuals differ by the factor e^{-3u}."""
    theta = _random_angle(cs, homotopy, rng)
    pair = section_residual_pair(cs, theta)
    predicted = ScalarField(cs.lattice, np.exp(-3.0 * cs.u.values)) * pair.curved
    scale = max(pair.flat.comp1.max_abs(), pair.flat.comp2.max_abs())
    return _identity("max gap", _component_gap(pair.flat, predicted), scale, 1e-8)


def _check_tangential_formula(cs, homotopy, rng):
    """Numerically projected tangential residual == (lap theta) J V."""
    theta = _random_angle(cs, homotopy, rng)
    pair = section_residual_pair(cs, theta)
    lap = flat_laplacian(theta.periodic)
    formula = lap * rotate_J(angle_to_unit_field(theta))
    return _identity("max gap", _component_gap(pair.flat, formula), lap.max_abs(), 1e-8)


def _check_self_adjointness(cs, homotopy, rng):
    """The fourth-order operator is symmetric in the flat L2 pairing."""
    f = bandlimited_field(cs.lattice, rng, band=4)
    g = bandlimited_field(cs.lattice, rng, band=4)
    left = integrate_inner(ScalarField(cs.lattice, cs.kernel.apply(f.values)), g)
    right = integrate_inner(f, ScalarField(cs.lattice, cs.kernel.apply(g.values)))
    return _identity("pairing gap", abs(left - right), max(abs(left), abs(right)), 1e-8)


def _check_gauss_bonnet(cs, homotopy, rng):
    """Total curvature of a torus vanishes."""
    scale = cs.integrate(ScalarField(cs.lattice, np.abs(cs.kg.values)))
    return _identity("total curvature", cs.integrate(cs.kg), scale, 1e-8)


def _check_frame_twist(cs, homotopy, rng):
    """The frame vector Z = aS + bW, flat components (a e^u, b e^u), is -J grad_g u."""
    conn = frame_connection(cs)
    direct = cs.e2u * cs.jgrad_u  # J grad_g u: J commutes with the factor e^{2u}
    gap = _component_gap(VectorFieldFlat(conn.a * cs.eu, conn.b * cs.eu), -direct)
    return _identity("max gap", gap, max(direct.comp1.max_abs(), direct.comp2.max_abs()), 1e-12)


def _check_variations(cs, homotopy, rng):
    """P is the energy's Hessian and b its linear term, at a random base (the
    energy is quadratic, so the base need not be critical)."""
    theta = _random_angle(cs, homotopy, rng)
    beta = bandlimited_field(cs.lattice, rng, band=3, amplitude=5.0)
    base, residual = bienergy(cs, theta).bienergy, el_residual(cs, theta, "flat_weighted")
    quadratic, _, ok, note = variation_check(cs, theta, base, beta, residual)
    return ok, f"quadratic {quadratic:.6e}, {note}"


def _check_rigidity(cs, homotopy, rng):
    """Purely vertical critical fields admit no nonconstant null directions."""
    certificate = section_rigidity_check(cs, seed=int(rng.integers(2**31)))
    return certificate.verdict, (
        f"smallest mean-zero Rayleigh quotient {certificate.smallest_rayleigh:.6e}"
    )


_VERIFY_CHECKS: list[tuple[str, _Check]] = [
    ("laplacian-conformal-rescaling", _check_laplacian_rescaling),
    ("tangential-projection-formula", _check_tangential_formula),
    ("residual-conformal-collapse", _check_residual_collapse),
    ("operator-self-adjointness", _check_self_adjointness),
    ("gauss-bonnet-total-curvature", _check_gauss_bonnet),
    ("frame-twist-identity", _check_frame_twist),
    ("vertical-rigidity", _check_rigidity),
    ("variations-match-energy", _check_variations),
]


if __name__ == "__main__":
    sys.exit(main())
