"""Per-layer probes of the traced run: single calls into each public layer.

Every workload's traced run probes every layer, so each per-layer metric
exists on every workload.  The torus layers are probed at the workload's
``probe_grid`` on its standard exponent (``lie-compare`` never calls them,
so its torus numbers are reference costs off its path); the check layers
(``stability``, ``section_rigidity_check``, ``cli``) always at 64^2.  The
classifier is probed on the cheapest section and the cheapest field
comparison of acceptance criterion 7, on every workload.

A probe repeats a call and keeps the median of its spans.  Times of private
stages (preconditioner apply, Newton refinement, clustering) wait for
spans inside the package; until then one ``flat_laplacian`` bounds the
preconditioner apply, which makes the same two transforms.
"""

from __future__ import annotations

import statistics

import numpy as np

from torusfield import (
    ConformalStructure,
    HomotopyClass,
    SolveOptions,
    apply_operator_P,
    bandlimited_field,
    bienergy,
    classify,
    compare_known,
    critical_system_residual,
    el_residual,
    flat_laplacian,
    hessian_vs_energy_check,
    parse_exponent,
    right_hand_side,
    section_rigidity_check,
    solve_homotopy_class,
)
from torusfield import io as tfio

from workloads import (
    LIE_CASES, Tally, Workload, cli_argv, exit_problems, fill_caches, run_cli, solve_problems,
)

#: cheapest section and field comparisons; the dear 8000-sample field cases
#: would double the traced run of lie-compare
LIE_PROBE_CASES = [LIE_CASES[0], LIE_CASES[-1]]


def _probe(tracer, name: str, call, repeats: int = 1, **attrs):
    """Call ``call`` ``repeats`` times inside spans; returns the last result,
    the median span seconds and the transforms of one call."""
    spans = []
    for _ in range(repeats):
        with tracer.span(name, **attrs) as span:
            result = call()
        spans.append(span)
    return result, statistics.median(s.seconds for s in spans), spans[-1].ffts


def probe_torus(tracer, tally: Tally, workload: Workload) -> dict[str, float]:
    inputs, seed = workload.inputs, workload.inputs.seed
    config = inputs.config(workload.probe_grid, outputs=("csv", "pgm", "json", "quiver"))
    lattice = tfio.build_lattice(config.lattice, config.grid)
    m: dict[str, float] = {}

    u, t, _ = _probe(tracer, "io.parse_exponent", lambda: parse_exponent(config.u, lattice), 10)
    m["io.parse_exponent_ms"] = t * 1e3

    def structure():
        cs = ConformalStructure.from_exponent(u)
        fill_caches(cs)
        return cs

    cs, t, _ = _probe(tracer, "conformal.structure", structure, 5)
    m["conformal.structure_ms"] = t * 1e3

    _, t, ffts = _probe(tracer, "lattice.flat_laplacian", lambda: flat_laplacian(cs.u), 20)
    m["lattice.laplacian_ms"] = t * 1e3
    m["lattice.ffts_per_laplacian"] = ffts

    for formulation, key in (("curved", "curved"), ("flat_weighted", "flat")):
        _, t, ffts = _probe(
            tracer, "solver.apply_operator_P",
            lambda: apply_operator_P(cs, cs.u, formulation), 10, formulation=formulation,
        )
        m[f"solver.apply_{key}_ms"] = t * 1e3
        m[f"solver.ffts_per_apply_{key}"] = ffts

    homotopy = HomotopyClass(*config.winding)
    opts = SolveOptions(tolerance=config.tolerance, formulation=config.formulation)

    def both_assemblies():
        return (right_hand_side(cs, homotopy, "flat_weighted"), right_hand_side(cs, homotopy, "curved"))

    _, rhs, _ = _probe(tracer, "solver.right_hand_side", both_assemblies, 5)
    m["solver.rhs_ms"] = rhs * 1e3

    (theta, report), solve, ffts = _probe(
        tracer, "solver.solve_homotopy_class", lambda: solve_homotopy_class(cs, homotopy, opts)
    )
    tally.op("probe solve", solve_problems(theta, report, config.winding, None))
    m["solver.solve_ms"] = solve * 1e3
    m["solver.iterations"] = report.iterations
    m["solver.ffts_per_solve"] = ffts

    _, t, _ = _probe(tracer, "energy.bienergy", lambda: bienergy(cs, theta), 10)
    m["energy.bienergy_ms"] = t * 1e3
    _, t, _ = _probe(
        tracer, "energy.el_residual", lambda: el_residual(cs, theta, opts.formulation).max_abs(), 10
    )
    m["energy.el_residual_ms"] = t * 1e3

    def report_assembly():
        # what solve_homotopy_class computes for its report
        return bienergy(cs, theta), el_residual(cs, theta, opts.formulation).max_abs()

    _, report_s, _ = _probe(tracer, "energy.report", report_assembly, 10)
    m["energy.report_ms"] = report_s * 1e3
    m["energy.report_share"] = report_s / solve
    m["solver.iteration_ms"] = (solve - rhs - report_s) / max(report.iterations, 1) * 1e3

    outdir = workload.workdir / "probe"
    outdir.mkdir(parents=True, exist_ok=True)
    writers = {
        "csv": (outdir / "field.csv", lambda p: tfio.write_field_csv(p, cs, theta)),
        "pgm": (outdir / "periodic_part.pgm", lambda p: tfio.write_heatmap_pgm(p, theta.periodic)),
        "json": (outdir / "report.json", lambda p: tfio.write_report_json(p, config, report)),
        "quiver": (outdir / "quiver.txt", lambda p: tfio.write_quiver(p, theta)),
    }
    for kind, (path, write) in writers.items():
        _, t, _ = _probe(tracer, f"io.write_{kind}", lambda: write(path), 3)
        m[f"io.write_{kind}_ms"] = t * 1e3
    m["io.bytes_written"] = sum(p.stat().st_size for p in outdir.iterdir())
    _, t, _ = _probe(
        tracer, "io.read_field_csv",
        lambda: tfio.read_field_csv(outdir / "field.csv", config.lattice), 3,
    )
    m["io.read_csv_ms"] = t * 1e3

    m.update(_probe_checks(tracer, tally, workload))
    return m


def _probe_checks(tracer, tally: Tally, workload: Workload) -> dict[str, float]:
    inputs, seed = workload.inputs, workload.inputs.seed
    config = inputs.config("64")
    cs, homotopy, opts = tfio.realize(config)
    theta, report = solve_homotopy_class(cs, homotopy, opts)
    m: dict[str, float] = {}

    beta = bandlimited_field(cs.lattice, np.random.default_rng(seed), band=3, amplitude=0.5)
    sample, t, _ = _probe(
        tracer, "stability.hessian_vs_energy_check",
        lambda: hessian_vs_energy_check(cs, theta, beta, h=1e-3), 3,
    )
    m["stability.hessian_check_ms"] = t * 1e3
    tally.op("probe hessian", [] if sample.quadratic_value >= 0.0 else ["negative second variation"])

    certificate, t, _ = _probe(
        tracer, "solver.section_rigidity_check", lambda: section_rigidity_check(cs, seed=seed)
    )
    m["solver.rigidity_s"] = t
    tally.op("probe rigidity", [] if certificate.verdict else ["rigidity verdict failed"])

    for command in ("verify", "stability"):
        (code, output), t, _ = _probe(
            tracer, "cli.main", lambda: run_cli(cli_argv(command, inputs)), command=command
        )
        m[f"cli.{command}_s"] = t
        tally.op(f"probe {command}", exit_problems(code, output))
    return m


def probe_lie(tracer, tally: Tally, workload: Workload) -> dict[str, float]:
    seed = workload.inputs.seed
    m = {"liegroups.classify_section_s": 0.0, "liegroups.classify_field_s": 0.0,
         "liegroups.compare_extra_s": 0.0, "liegroups.components": 0, "liegroups.matched": 0}
    for label, build, problem, resolution in LIE_PROBE_CASES:
        model = build()
        found, classify_s, _ = _probe(
            tracer, "liegroups.classify",
            lambda: classify(model, problem, resolution=resolution, seed=seed), case=label,
        )
        report, compare_s, _ = _probe(
            tracer, "liegroups.compare_known",
            lambda: compare_known(model, problem, resolution=resolution, seed=seed), case=label,
        )
        tally.op(f"probe {label}", [] if report.passed else [f"missing {report.missing}, extra {report.extra}"])
        kind = "section" if problem == "biharmonic_section" else "field"
        m[f"liegroups.classify_{kind}_s"] += classify_s
        m["liegroups.compare_extra_s"] += compare_s - classify_s
        m["liegroups.components"] += len(found.components)
        m["liegroups.matched"] += len(report.matched)

    label, build, problem, _ = LIE_PROBE_CASES[-1]
    model = build()
    point = np.full(model.dim, 1.0 / np.sqrt(model.dim))
    _, t, _ = _probe(
        tracer, "liegroups.critical_system_residual",
        lambda: critical_system_residual(model, point, problem), 200, case=label,
    )
    m["liegroups.residual_us"] = t * 1e6
    return m
