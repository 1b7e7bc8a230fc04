"""Plain-text interchange for solver runs: configs, field tables, images.

Everything written here is deterministic byte for byte: floats carry 17
significant digits (lossless for IEEE doubles), JSON keys are sorted, and
no artifact records wall-clock times or hostnames.  The only intentional
loss is the heatmap, which quantizes to 8-bit gray; its sidecar stores the
scaling endpoints so gray levels map back to field values up to 1/255.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .angles import AngleField, HomotopyClass, angle_to_unit_field, winding_class
from .conformal import ConformalStructure
from .lattice import LatticeSpec, ScalarField, VectorFieldFlat
from .solver import SolveOptions, SolveReport

TWO_PI = 2.0 * np.pi

CSV_HEADER = "lambda1,lambda2,theta,vx,vy,kg,u"

#: Artifact kinds a run may request, in the order they are written.
OUTPUT_KINDS = ("csv", "pgm", "json", "quiver")

#: Top-level keys of a solve-report document.
REPORT_KEYS = frozenset(
    {
        "config",
        "winding_class",
        "iterations",
        "final_relative_residual",
        "energy",
        "el_residual_maxnorm",
        "wall_time",
    }
)

#: Keys of the "energy" sub-document.
ENERGY_KEYS = frozenset(
    {"bienergy", "vertical_bienergy", "horizontal_part", "total_bending", "area"}
)


def _fmt(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


### Run configuration


@dataclass(frozen=True)
class RunConfig:
    """One solver run, entirely in text-friendly fields.

    The string fields keep the user's spelling (``"unit-square"``, the
    exponent expression) so a config can be echoed back verbatim;
    :func:`realize` turns them into geometry and solver options.
    """

    lattice: str = "unit-square"
    grid: str = "64"
    u: str = "0"
    winding: tuple[int, int] = (1, 0)
    tolerance: float = 1e-10
    formulation: str = "curved"
    outputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "winding", (int(self.winding[0]), int(self.winding[1])))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise ValueError(
                    f"unknown output kind {kind!r}; choose from {', '.join(OUTPUT_KINDS)}"
                )

    def to_text(self) -> str:
        """Serialize as ``key = value`` lines; inverse of :meth:`from_text`."""
        lines = [
            f"lattice = {self.lattice}",
            f"grid = {self.grid}",
            f"u = {self.u}",
            f"class = {self.winding[0]} {self.winding[1]}",
            f"tolerance = {_fmt(self.tolerance)}",
            f"formulation = {self.formulation}",
            f"outputs = {' '.join(self.outputs)}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        """Parse ``key = value`` lines; blanks and ``#`` comments are skipped."""
        settings: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
            key, value = key.strip(), value.strip()
            if key in ("lattice", "grid", "u", "formulation"):
                settings[key] = value
            elif key == "class":
                parts = value.split()
                if len(parts) != 2:
                    raise ValueError(f"config line {lineno}: class wants two integers")
                try:
                    settings["winding"] = (int(parts[0]), int(parts[1]))
                except ValueError:
                    raise ValueError(
                        f"config line {lineno}: class wants two integers, got {value!r}"
                    ) from None
            elif key == "tolerance":
                try:
                    settings["tolerance"] = float(value)
                except ValueError:
                    raise ValueError(
                        f"config line {lineno}: tolerance must be a number, got {value!r}"
                    ) from None
            elif key == "outputs":
                settings["outputs"] = tuple(value.split())
            else:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
        return cls(**settings)  # type: ignore[arg-type]


### Grid and lattice descriptions


def parse_grid(text: str) -> tuple[int, int]:
    """``"64"`` or ``"64x32"`` -> grid counts."""
    parts = text.strip().lower().split("x")
    try:
        counts = [int(p) for p in parts]
    except ValueError:
        counts = []
    if len(counts) == 1:
        return counts[0], counts[0]
    if len(counts) == 2:
        return counts[0], counts[1]
    raise ValueError(f"grid must be N or N1xN2, got {text!r}")


def parse_lattice(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """``"unit-square"`` or ``"d1x,d1y;d2x,d2y"`` -> generator pairs."""
    cleaned = "".join(text.split())
    if cleaned == "unit-square":
        return (1.0, 0.0), (0.0, 1.0)
    halves = cleaned.split(";")
    if len(halves) == 2:
        try:
            pairs = []
            for half in halves:
                a, b = half.split(",")
                pairs.append((float(a), float(b)))
            return pairs[0], pairs[1]
        except ValueError:
            pass
    raise ValueError(f"lattice must be 'unit-square' or 'd1x,d1y;d2x,d2y', got {text!r}")


def build_lattice(lattice_text: str, grid_text: str) -> LatticeSpec:
    d1, d2 = parse_lattice(lattice_text)
    n1, n2 = parse_grid(grid_text)
    return LatticeSpec(d1, d2, n1, n2)


### The conformal-exponent grammar

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TRIG_TERM = re.compile(
    rf"^(?:(?P<coeff>{_NUMBER})\*)?(?P<fn>sin|cos)"
    r"\(2pi\*(?P<arg>x|y|\((?P<lin>[^()]+)\))\)$"
)
_LIN_ATOM = re.compile(r"^(?:(?P<mult>\d+)\*)?(?P<var>[xy])$")

_GRAMMAR_HINT = (
    "expected a number, '@samplefile', or a sum of terms "
    "c*sin(2pi*A) / c*cos(2pi*A) with A one of x, y, (p*x+q*y)"
)


def _signed_chunks(text: str, what: str) -> list[tuple[float, str]]:
    """Split ``a+b-c`` into signed pieces at the top parenthesis level."""
    chunks: list[tuple[float, str]] = []
    sign, depth, prev = 1.0, 0, ""
    buf: list[str] = []
    for ch in text:
        if ch in "+-" and depth == 0 and prev not in ("e", "E"):
            if buf:
                chunks.append((sign, "".join(buf)))
                buf, sign = [], 1.0
            if ch == "-":
                sign = -sign
        else:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ValueError(f"unbalanced parentheses in {what}")
            buf.append(ch)
        prev = ch
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {what}")
    if not buf:
        raise ValueError(f"empty term in {what}")
    chunks.append((sign, "".join(buf)))
    return chunks


def _linear_arg(text: str) -> tuple[int, int]:
    """Parse ``p*x+q*y`` (either order, integer multiples) into ``(p, q)``."""
    p = q = 0
    for sign, atom in _signed_chunks(text, f"argument {text!r}"):
        matched = _LIN_ATOM.match(atom)
        if not matched:
            raise ValueError(f"cannot parse {atom!r} in argument {text!r}; {_GRAMMAR_HINT}")
        mult = int(sign) * int(matched.group("mult") or 1)
        if matched.group("var") == "x":
            p += mult
        else:
            q += mult
    return p, q


def parse_exponent(text: str, lattice: LatticeSpec) -> ScalarField:
    """Evaluate a conformal-exponent description on the grid.

    Three forms are accepted:

    * ``@path`` — whitespace-separated samples loaded from ``path``, shaped
      like the grid or flat in row-major ``(s, t)`` order;
    * a single number, for a constant exponent (``0`` is the flat torus);
    * a sum of terms ``c*sin(2pi*A)`` / ``c*cos(2pi*A)`` with ``A`` one of
      ``x``, ``y``, ``(p*x+q*y)`` for integers ``p, q``; here ``x, y`` are
      the lattice-fractional coordinates, so every expressible term is
      automatically periodic on the torus, whatever the generators.

    The grammar is deliberately closed; anything it cannot say should come
    in as a sample file.
    """
    raw = text.strip()
    if raw.startswith("@"):
        path = raw[1:]
        samples = np.loadtxt(path, dtype=np.float64)
        if samples.shape != lattice.shape:
            if samples.size != lattice.n1 * lattice.n2:
                raise ValueError(
                    f"sample file {path!r} has {samples.size} values, "
                    f"grid wants {lattice.n1} x {lattice.n2}"
                )
            samples = samples.reshape(lattice.shape)
        return ScalarField(lattice, samples)

    compact = "".join(raw.split())
    if not compact:
        raise ValueError(f"empty exponent; {_GRAMMAR_HINT}")
    lam1, lam2 = lattice.fractional_coords
    values = np.zeros(lattice.shape)
    for sign, chunk in _signed_chunks(compact, f"exponent {text!r}"):
        try:
            values = values + sign * float(chunk)
            continue
        except ValueError:
            pass
        matched = _TRIG_TERM.match(chunk)
        if not matched:
            raise ValueError(f"cannot parse exponent term {chunk!r}; {_GRAMMAR_HINT}")
        coeff = sign * float(matched.group("coeff") or 1.0)
        if matched.group("lin") is not None:
            p, q = _linear_arg(matched.group("lin"))
        else:
            p, q = (1, 0) if matched.group("arg") == "x" else (0, 1)
        fn = np.sin if matched.group("fn") == "sin" else np.cos
        values = values + coeff * fn(TWO_PI * (p * lam1 + q * lam2))
    return ScalarField(lattice, values)


def realize(config: RunConfig) -> tuple[ConformalStructure, HomotopyClass, SolveOptions]:
    """Turn a textual config into geometry plus solver options."""
    lattice = build_lattice(config.lattice, config.grid)
    u = parse_exponent(config.u, lattice)
    cs = ConformalStructure.from_exponent(u)
    opts = SolveOptions(tolerance=config.tolerance, formulation=config.formulation)
    return cs, HomotopyClass(*config.winding), opts


### Field tables


#: Rows filled by one ``%``; small blocks keep the transient strings small.
_BLOCK = 64
#: Field-table row blocks of each structure, its per-class columns left as slots.
_CSV_TEMPLATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _blocks(columns: np.ndarray):
    """The rows of ``columns`` in blocks of ``_BLOCK``, each a flat tuple."""
    for start in range(0, len(columns), _BLOCK):
        yield tuple(columns[start : start + _BLOCK].ravel().tolist())


def write_field_csv(path: str | Path, cs: ConformalStructure, theta: AngleField) -> None:
    """Field table, one row per grid point in row-major ``(s, t)`` order.

    Columns: lattice-fractional coordinates, the total angle, the unit-field
    components, the curvature, and the exponent — all at 17 significant
    digits (``%.17g``, the bytes of ``np.savetxt``), so reading the file
    back loses nothing.  The four columns fixed by ``cs`` are formatted once
    per structure and kept while it lives; a write fills in the other three.
    """
    if theta.lattice != cs.lattice:
        raise ValueError("lattice mismatch between structure and angle field")
    templates = _CSV_TEMPLATES.get(cs)
    if templates is None:
        lam1, lam2 = cs.lattice.fractional_coords
        fixed = np.stack([a.ravel() for a in (lam1, lam2, cs.kg.values, cs.u.values)], axis=1)
        row = "%.17g,%.17g,%%.17g,%%.17g,%%.17g,%.17g,%.17g\n"
        templates = _CSV_TEMPLATES[cs] = [row * (len(b) // 4) % b for b in _blocks(fixed)]
    V = angle_to_unit_field(theta)
    per_class = [theta.total_samples(), V.comp1.values, V.comp2.values]
    columns = np.stack([a.ravel() for a in per_class], axis=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for template, values in zip(templates, _blocks(columns)):
            fh.write(template % values)


def read_field_csv(
    path: str | Path, lattice_text: str = "unit-square"
) -> tuple[ConformalStructure, AngleField]:
    """Rebuild the structure and angle field from a table written above.

    The table stores lattice-fractional coordinates, not the generators, so
    pass the same lattice description the writing run used.  Grid counts
    come from the coordinate columns and the winding class is recovered
    from the angle samples themselves.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    if data.shape[1] != len(CSV_HEADER.split(",")):
        raise ValueError(f"field table needs columns {CSV_HEADER}, got {data.shape[1]}")
    n1 = int(np.unique(data[:, 0]).size)
    n2 = int(np.unique(data[:, 1]).size)
    if n1 * n2 != data.shape[0]:
        raise ValueError("field table does not cover a full grid")
    d1, d2 = parse_lattice(lattice_text)
    lattice = LatticeSpec(d1, d2, n1, n2)
    lam1, lam2 = lattice.fractional_coords
    if not (
        np.allclose(data[:, 0].reshape(n1, n2), lam1, atol=1e-12)
        and np.allclose(data[:, 1].reshape(n1, n2), lam2, atol=1e-12)
    ):
        raise ValueError("field table rows are not in row-major grid order")

    u = ScalarField(lattice, data[:, 6].reshape(n1, n2))
    total = data[:, 2].reshape(n1, n2)
    V = VectorFieldFlat.from_arrays(lattice, np.cos(total), np.sin(total))
    theta = AngleField.from_total(lattice, total, winding_class(V))
    return ConformalStructure.from_exponent(u), theta


### Images and plots


def write_heatmap_pgm(path: str | Path, field: ScalarField) -> None:
    """8-bit grayscale P5 image of a scalar field, plus a ``.scale`` sidecar.

    Values map linearly with min -> 0 and max -> 255; a constant field maps
    to all zeros.  The sidecar records both endpoints.
    """
    v = field.values
    lo, hi = float(np.min(v)), float(np.max(v))
    if hi > lo:
        gray = np.rint((v - lo) * (255.0 / (hi - lo))).astype(np.uint8)
    else:
        gray = np.zeros(v.shape, dtype=np.uint8)
    n1, n2 = field.lattice.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n2} {n1}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())
    Path(f"{path}.scale").write_text(
        f"min = {_fmt(lo)}\nmax = {_fmt(hi)}\n", encoding="utf-8"
    )


def write_quiver(path: str | Path, theta: AngleField, stride: int = 4) -> None:
    """Decimated arrow table, one ``x y vx vy`` line per kept grid point.

    Positions are Cartesian; every ``stride``-th sample in each direction
    survives.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    x, y = theta.lattice.cartesian_coords
    V = angle_to_unit_field(theta)
    kept = [a[::stride, ::stride].ravel() for a in (x, y, V.comp1.values, V.comp2.values)]
    row = "%.17g %.17g %.17g %.17g\n"
    text = "".join(row * (len(values) // 4) % values for values in _blocks(np.stack(kept, axis=1)))
    Path(path).write_text(text, encoding="utf-8")


### Reports


def report_document(config: RunConfig, report: SolveReport) -> dict:
    """The JSON-ready form of a solve report: all report fields plus the
    config echo.

    ``wall_time`` is always ``null``: reports promise byte-identical reruns
    and elapsed time is the one field that cannot keep that promise.  The
    measured value stays available on the in-memory report.
    """
    return {
        "config": {
            "lattice": config.lattice,
            "grid": config.grid,
            "u": config.u,
            "class": list(config.winding),
            "tolerance": config.tolerance,
            "formulation": config.formulation,
            "outputs": list(config.outputs),
        },
        "winding_class": [report.homotopy_class.m, report.homotopy_class.n],
        "iterations": report.iterations,
        "final_relative_residual": report.final_relative_residual,
        "energy": dict(report.energy._asdict()),
        "el_residual_maxnorm": report.el_residual_maxnorm,
        "wall_time": None,
    }


def write_report_json(path: str | Path, config: RunConfig, report: SolveReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_document(config, report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outputs(
    outdir: str | Path,
    config: RunConfig,
    cs: ConformalStructure,
    theta: AngleField,
    report: SolveReport,
) -> list[Path]:
    """Write the artifacts ``config.outputs`` asks for (``RunConfig`` admits only
    ``OUTPUT_KINDS``); returns their paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for kind in config.outputs:
        if kind == "csv":
            target = outdir / "field.csv"
            write_field_csv(target, cs, theta)
            written.append(target)
        elif kind == "pgm":
            target = outdir / "periodic_part.pgm"
            write_heatmap_pgm(target, theta.periodic)
            written.extend([target, Path(f"{target}.scale")])
        elif kind == "json":
            target = outdir / "report.json"
            write_report_json(target, config, report)
            written.append(target)
        elif kind == "quiver":
            target = outdir / "quiver.txt"
            write_quiver(target, theta)
            written.append(target)
    return written
