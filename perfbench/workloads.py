"""Inputs, jobs and output checks of the three torusfield workloads.

Each workload is a closed loop with one client: a researcher driving
torusfield as a batch tool.  Calls run one after another through the public
library API, which is what the command line calls.  One *round* runs every
job of the workload once; a run repeats rounds.

* ``solve-ladder`` -- a default ``curved`` solve of class (1, 0) at 64^2
  (five times, timed per solve) and at 256^2 on the standard exponent, and
  one on the strong exponent and oblique lattice at 64^2.  Operator applies
  and the preconditioner do nearly all the work; grid size sets the cost
  per iteration and the strong exponent the iteration count.
* ``class-sweep`` -- all 25 classes in {-2..2}^2 at 64^2; each class's
  artifacts written, ``field.csv`` read back and its energy recomputed; then
  ``verify`` and ``stability``.  Many small solves, so fixed per-solve costs
  weigh more.
* ``lie-compare`` -- the 8 closed-form comparisons of acceptance criterion
  7.  Only ``liegroups`` runs, so solver or FFT changes leave it unchanged.

Seed 0 gives the fixed inputs of the ROADMAP baselines.  Any other seed
translates each exponent by a seeded offset along both generators and
passes the seed to ``verify``, ``stability`` and the classifier.  A
translate has the same peak amplitude and the same spectrum, so iteration
counts stay put (88 and 720-724 at 64^2 for seeds 0-8) while every sample
changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the benchmark runs the package from the source tree it sits in
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import torusfield  # noqa: E402

if Path(torusfield.__file__).resolve().parent != SRC / "torusfield":
    raise ImportError(f"torusfield imported from {torusfield.__file__}, not from {SRC}")

from torusfield import cli  # noqa: E402
from torusfield import io as tfio  # noqa: E402
from torusfield import (  # noqa: E402
    angle_to_unit_field,
    bienergy,
    compare_known,
    hyperbolic,
    realize,
    sol3,
    solve_homotopy_class,
    su2,
    winding_class,
)

TOLERANCE = 1e-10
#: amplitudes of sin(2pi*x) and cos(2pi*y) in the two exponents
STANDARD = (0.2, 0.1)
STRONG = (0.4, 0.2)
OBLIQUE = "1,0;0.5,1.5"
CLASSES = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]
ARTIFACTS = ("csv", "pgm", "json", "quiver")

#: the 8 comparisons of acceptance criterion 7: label, model, problem, resolution
LIE_CASES = [
    ("su2(1,1,1)", lambda: su2(1.0, 1.0, 1.0), "biharmonic_section", 3000),
    ("su2(2,2,1)", lambda: su2(2.0, 2.0, 1.0), "biharmonic_section", 4000),
    ("su2(2,1,1)", lambda: su2(2.0, 1.0, 1.0), "biharmonic_section", 4000),
    ("su2(2,1.5,1)", lambda: su2(2.0, 1.5, 1.0), "biharmonic_section", 4000),
    ("sol3", sol3, "biharmonic_section", 4000),
    ("hyperbolic(3,1)", lambda: hyperbolic(3, 1.0), "biharmonic_vector_field", 8000),
    ("hyperbolic(4,1)", lambda: hyperbolic(4, 1.0), "biharmonic_vector_field", 8000),
    ("hyperbolic(3,2)", lambda: hyperbolic(3, 2.0), "biharmonic_vector_field", 4000),
]

#: bienergies at seed 0 recorded from the seed commit, and how close a
#: later commit must come: solves stop at relative residual 1e-10, and a
#: different iteration path moves the energy far less than this
REFERENCE = json.loads((Path(__file__).with_name("reference_seed0.json")).read_text())
REFERENCE_RTOL = 1e-8
#: energy recomputed from field.csv against the in-memory one; the table
#: stores 17 significant digits, so only summation order can differ
ROUNDTRIP_RTOL = 1e-9


def exponent_text(amplitudes: tuple[float, float], shift: tuple[float, float]) -> str:
    """``a*sin(2pi*(x-s)) + b*cos(2pi*(y-t))`` in the CLI's exponent grammar."""
    a, b = amplitudes
    s, t = shift
    if s == t == 0.0:
        return f"{a}*sin(2pi*x)+{b}*cos(2pi*y)"
    terms = [
        (a * np.cos(2 * np.pi * s), "sin(2pi*x)"),
        (-a * np.sin(2 * np.pi * s), "cos(2pi*x)"),
        (b * np.cos(2 * np.pi * t), "cos(2pi*y)"),
        (b * np.sin(2 * np.pi * t), "sin(2pi*y)"),
    ]
    text = "".join(f"{'-' if c < 0 else '+'}{abs(c):.17g}*{fn}" for c, fn in terms)
    return text.lstrip("+")


class Inputs:
    """Everything a workload reads, derived from the workload seed alone."""

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = seed
        shifts = np.zeros((2, 2)) if seed == 0 else np.random.default_rng(seed).random((2, 2))
        self.standard = exponent_text(STANDARD, tuple(shifts[0]))
        self.strong = exponent_text(STRONG, tuple(shifts[1]))

    def config(self, grid: str = "64", strong: bool = False, **fields) -> tfio.RunConfig:
        return tfio.RunConfig(
            lattice=OBLIQUE if strong else "unit-square",
            grid=grid,
            u=self.strong if strong else self.standard,
            tolerance=TOLERANCE,
            **fields,
        )


class Tally:
    """Operations attempted, and the ones whose output failed its check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def solve_problems(theta, report, klass, reference: float | None) -> list[str]:
    """Gate on one solve: residual target met, class recovered, and at seed 0
    the bienergy of the seed commit reproduced."""
    problems = []
    if not report.final_relative_residual <= TOLERANCE:
        problems.append(f"relative residual {report.final_relative_residual:.3e}")
    got = winding_class(angle_to_unit_field(theta))
    if (got.m, got.n) != tuple(klass):
        problems.append(f"winding class recovered as ({got.m}, {got.n})")
    if reference is not None:
        energy = report.energy.bienergy
        if not abs(energy - reference) <= REFERENCE_RTOL * abs(reference):
            problems.append(f"bienergy {energy!r} against reference {reference!r}")
    return problems


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``torusfield <argv>`` in this process; returns exit code and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def exit_problems(code: int, output: str) -> list[str]:
    """Gate on a command: it exits 0, its verdict being that every check passed."""
    return [] if code == 0 else [f"exit {code}: {output.strip()[-300:]}"]


def cli_argv(command: str, inputs: Inputs) -> list[str]:
    """``verify`` or ``stability`` at 64^2 on the standard exponent."""
    argv = [command, "--grid", "64", f"--u={inputs.standard}", "--seed", str(inputs.seed)]
    if command == "stability":
        argv += ["--class", "1", "0", "--tolerance", repr(TOLERANCE)]
    return argv


def fill_caches(cs) -> None:
    """Touch the structure's lazy fields; ``kg`` fills the multiplier caches."""
    cs.e2u, cs.em2u, cs.eu, cs.kg, cs.kg_sq


class Workload:
    """One workload: its geometries, and the jobs of one round."""

    name: str
    #: the job kinds of a round, each reported as its own timing
    kinds: tuple[str, ...]
    #: grid of the single-call layer probes of the traced run
    probe_grid = "64"
    #: reference kernel of ``speed.py`` that measures the host speed during
    #: the set-up and the jobs, unless ``kernels`` names another for a kind
    speed_kernel = "grid64"
    kernels: dict[str, str] = {}

    def __init__(self, inputs: Inputs, workdir: Path | None) -> None:
        self.inputs = inputs
        self.workdir = workdir
        #: iterations of the last round's solves, by job kind
        self.iterations: dict[str, list[int]] = {}

    def kind_kernels(self) -> dict[str, str]:
        """The reference kernel of each job kind."""
        return {kind: self.kernels.get(kind, self.speed_kernel) for kind in self.kinds}

    def reference(self, key: str) -> float | None:
        return REFERENCE[self.name][key] if self.inputs.seed == 0 else None

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def round(self, tracer, clock, tally: Tally) -> None:
        """Run every job once, each timed by ``clock`` under its kind."""
        raise NotImplementedError


class SolveLadder(Workload):
    name = "solve-ladder"
    kinds = ("solve_64_s", "solve_strong_s", "solve_256_s")
    kernels = {"solve_256_s": "grid256"}
    #: solves of a kind per round; its time is per solve
    repeats = {"solve_64_s": 5}
    probe_grid = "256"

    def setup(self, tracer) -> None:
        configs = {
            "solve_64_s": self.inputs.config("64"),
            "solve_strong_s": self.inputs.config("64", strong=True),
            "solve_256_s": self.inputs.config("256"),
        }
        self.geometries = {}
        for kind, config in configs.items():
            with tracer.span("io.realize", kind=kind):
                cs, homotopy, opts = realize(config)
            with tracer.span("conformal.lazy_fields", kind=kind):
                fill_caches(cs)
            self.geometries[kind] = (cs, homotopy, opts)

    def round(self, tracer, clock, tally: Tally) -> None:
        for kind in self.kinds:
            cs, homotopy, opts = self.geometries[kind]
            self.iterations[kind] = []
            repeats = self.repeats.get(kind, 1)
            for _ in range(repeats):
                job = clock.job(kind, share=1 / repeats)
                with job, tracer.span("solver.solve_homotopy_class", kind=kind) as span:
                    theta, report = solve_homotopy_class(cs, homotopy, opts)
                    span.note(iterations=report.iterations)
                self.iterations[kind].append(report.iterations)
                klass = (homotopy.m, homotopy.n)
                tally.op(kind, solve_problems(theta, report, klass, self.reference(kind)))


class ClassSweep(Workload):
    name = "class-sweep"
    kinds = ("sweep_s", "roundtrip_s", "check_s")

    def setup(self, tracer) -> None:
        self.config = self.inputs.config("64", outputs=ARTIFACTS)
        with tracer.span("io.realize"):
            self.cs, _, self.opts = realize(self.config)
        with tracer.span("conformal.lazy_fields"):
            fill_caches(self.cs)

    def round(self, tracer, clock, tally: Tally) -> None:
        # each class's artifacts follow its solve, and the two checks sit
        # between classes, so that every job kind meets the host speed of
        # the whole round
        checks = {8: "verify", 16: "stability"}
        self.iterations["sweep_s"] = []
        for index, (m, n) in enumerate(CLASSES):
            with clock.job("sweep_s"), tracer.span("solver.solve_homotopy_class", klass=[m, n]) as span:
                theta, report = solve_homotopy_class(self.cs, torusfield.HomotopyClass(m, n), self.opts)
                span.note(iterations=report.iterations)
            self.iterations["sweep_s"].append(report.iterations)
            tally.op(f"class {(m, n)}", solve_problems(theta, report, (m, n), self.reference(f"{m},{n}")))

            config = replace(self.config, winding=(m, n))
            outdir = self.workdir / "first" / f"{m}_{n}"
            with clock.job("roundtrip_s"):
                with tracer.span("io.write_outputs", klass=[m, n]):
                    written = tfio.write_outputs(outdir, config, self.cs, theta, report)
                with tracer.span("io.read_field_csv", klass=[m, n]):
                    cs_read, theta_read = tfio.read_field_csv(outdir / "field.csv", config.lattice)
                with tracer.span("energy.bienergy", klass=[m, n]):
                    energy = bienergy(cs_read, theta_read).bienergy
            tally.op(f"artifacts {(m, n)}", self._artifact_problems(config, theta, report, written, energy))

            if index in checks:
                command = checks[index]
                with clock.job("check_s"), tracer.span("cli.main", command=command):
                    code, output = run_cli(cli_argv(command, self.inputs))
                tally.op(command, exit_problems(code, output))

    def _artifact_problems(self, config, theta, report, written, energy) -> list[str]:
        """Each artifact written a second time gives the same bytes, and the
        energy recomputed from field.csv matches the in-memory one."""
        problems = []
        klass = config.winding
        again = tfio.write_outputs(
            self.workdir / "second" / f"{klass[0]}_{klass[1]}", config, self.cs, theta, report
        )
        if len(again) != len(written):
            problems.append(f"{len(written)} then {len(again)} files written")
        for first, second in zip(written, again):
            if first.read_bytes() != second.read_bytes():
                problems.append(f"{first.name} differs between two writes")
        expected = report.energy.bienergy
        if not abs(energy - expected) <= ROUNDTRIP_RTOL * abs(expected):
            problems.append(f"energy from field.csv {energy!r}, in memory {expected!r}")
        return problems


class LieCompare(Workload):
    name = "lie-compare"
    kinds = ("lie_section_s", "lie_field_s")
    speed_kernel = "tensor"
    #: section cases (0-4) interleaved with the dear field cases (5-7), so
    #: that both kinds meet the host speed of the whole round
    order = (0, 5, 1, 2, 6, 3, 4, 7)

    def setup(self, tracer) -> None:
        self.models = []
        for label, build, problem, resolution in LIE_CASES:
            with tracer.span("liegroups.model", case=label):
                model = build()
                model.brackets, model.curvature, model.curvature_gradient
            self.models.append((label, model, problem, resolution))

    def round(self, tracer, clock, tally: Tally) -> None:
        for index in self.order:
            label, model, problem, resolution = self.models[index]
            kind = "lie_section_s" if problem == "biharmonic_section" else "lie_field_s"
            with clock.job(kind), tracer.span("liegroups.compare_known", case=label):
                report = compare_known(model, problem, resolution=resolution, seed=self.inputs.seed)
            tally.op(label, [] if report.passed else [f"missing {report.missing}, extra {report.extra}"])


WORKLOADS = {w.name: w for w in (SolveLadder, ClassSweep, LieCompare)}
