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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .angles import TWO_PI, AngleField, HomotopyClass, angle_to_unit_field, winding_class
from .conformal import ConformalStructure
from .lattice import LatticeSpec, ScalarField, VectorFieldFlat
from .solver import SolveOptions, SolveReport

CSV_HEADER = "lambda1,lambda2,theta,vx,vy,kg,u"

#: Artifact kinds a run may request; ``write_outputs`` writes them in the run's order.
OUTPUT_KINDS = ("csv", "pgm", "json", "quiver")

#: ``quiver.txt`` keeps every ``QUIVER_STRIDE``-th grid sample in each direction.
QUIVER_STRIDE = 4


def _fmt(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


### Run configuration


@dataclass(frozen=True)
class RunConfig:
    """One solver run, entirely in text-friendly fields.

    The string fields keep the user's spelling (``"unit-square"``, the
    exponent expression) so a config can be echoed back verbatim;
    :func:`realize` turns them into geometry and solver options.  The text
    form is one ``key = value`` line per row of :data:`_CONFIG_KEYS`.
    """

    lattice: str = "unit-square"
    grid: str = "64"
    u: str = "0"
    winding: tuple[int, int] = (1, 0)
    tolerance: float = SolveOptions.tolerance
    formulation: str = SolveOptions.formulation
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
        return "".join(
            f"{key} = {write(getattr(self, name))}\n" for key, name, _, write in _CONFIG_KEYS
        )

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        """Parse ``key = value`` lines with the keys of :data:`_CONFIG_KEYS`;
        blanks and ``#`` comments are skipped, and a repeated key keeps its
        last value."""
        readers = {key: (name, read) for key, name, read, _ in _CONFIG_KEYS}
        settings: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
            key, value = key.strip(), value.strip()
            if key not in readers:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            name, read = readers[key]
            try:
                settings[name] = read(value)
            except ValueError as err:
                raise ValueError(f"config line {lineno}: bad {key} {value!r} ({err})") from None
        return cls(**settings)  # type: ignore[arg-type]


def _two_ints(text: str) -> tuple[int, int]:
    m, n = text.split()
    return int(m), int(n)


def parse_outputs(text: str) -> tuple[str, ...]:
    """Artifact kinds separated by commas, whitespace or both: ``--outputs`` and the ``outputs`` key."""
    return tuple(text.replace(",", " ").split())


#: The config file's keys in file order: (key, ``RunConfig`` field, read, write).
_CONFIG_KEYS = (
    ("lattice", "lattice", str, format),
    ("grid", "grid", str, format),
    ("u", "u", str, format),
    ("class", "winding", _two_ints, lambda w: "{} {}".format(*w)),
    ("tolerance", "tolerance", float, _fmt),
    ("formulation", "formulation", str, format),
    ("outputs", "outputs", parse_outputs, " ".join),
)


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
#: A term of the exponent's sum: a trig term, else a constant for ``float()``.
_TERM = re.compile(
    rf"""(?:(?P<coeff>{_NUMBER})\*)? (?P<fn>sin|cos) \(2pi\*
           (?: (?P<var>[xy]) | \((?P<lin>[^()]+)\) ) \)
       | (?P<const> (?: [^-+()] | (?<=[eE])[-+] )+ )  # a sign only after e or E""",
    re.VERBOSE,
)
#: A term of a linear argument ``p*x+q*y``.
_ATOM = re.compile(r"(?:(?P<mult>\d+)\*)? (?P<var>[xy])", re.VERBOSE)
_SIGNS = re.compile(r"[-+]*")

_GRAMMAR_HINT = (
    "expected '@samplefile' or a sum of numbers and terms "
    "c*sin(2pi*A) / c*cos(2pi*A) with A one of x, y, (p*x+q*y)"
)


def _terms(pattern: re.Pattern, text: str):
    """``(sign, match)`` per term of ``text``: terms of ``pattern``, each after
    the first led by a run of signs that multiplies out to ``sign``; the terms
    must tile the whole text."""
    pos = 0
    while True:
        signs = _SIGNS.match(text, pos)
        term = pattern.match(text, signs.end())
        if term is None or (pos and signs.end() == pos):
            raise ValueError(f"cannot parse {text[pos:]!r} of {text!r}; {_GRAMMAR_HINT}")
        yield (-1) ** signs.group().count("-"), term
        pos = term.end()
        if pos == len(text):
            return


def parse_exponent(text: str, lattice: LatticeSpec) -> ScalarField:
    """Evaluate a conformal-exponent description on the grid.

    ``@path`` loads whitespace-separated samples, grid-shaped or flat in
    row-major ``(s, t)`` order.  Anything else is, once all whitespace is
    dropped, a sum of terms taken in order, each after the first led by a run
    of ``+``/``-`` that multiplies out (the first may carry one too).  A term
    is a constant, any text without ``+-()`` (save a sign right after ``e`` or
    ``E``) that ``float()`` reads, or ``c*sin(2pi*A)`` / ``c*cos(2pi*A)`` with
    the decimal ``c*`` optional and ``A`` one of ``x``, ``y`` or a bracketed
    sum of atoms ``x``, ``y``, ``k*x``, ``k*y`` (integers ``k >= 0``) joined
    the same way, in any order, repeats added.  ``x, y`` are lattice-fractional,
    so every term is periodic on the torus whatever the generators.  The
    grammar is deliberately closed; what it cannot say comes as a sample file.
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

    lam1, lam2 = lattice.fractional_coords
    values = np.zeros(lattice.shape)
    for sign, term in _terms(_TERM, "".join(raw.split())):
        if term["const"] is not None:
            try:
                values = values + sign * float(term["const"])
            except ValueError:
                raise ValueError(f"cannot parse term {term['const']!r}; {_GRAMMAR_HINT}") from None
            continue
        p = q = 0
        for factor, atom in _terms(_ATOM, term["var"] or term["lin"]):
            mult = factor * int(atom["mult"] or 1)
            p, q = (p + mult, q) if atom["var"] == "x" else (p, q + mult)
        fn = np.sin if term["fn"] == "sin" else np.cos
        values = values + sign * float(term["coeff"] or 1.0) * fn(TWO_PI * (p * lam1 + q * lam2))
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
    path: str | Path, lattice_text: str = RunConfig.lattice
) -> tuple[ConformalStructure, AngleField]:
    """Rebuild the structure and angle field from a table written above.

    The table stores lattice-fractional coordinates, not the generators, so
    pass the same lattice description the writing run used.  Grid counts
    come from the coordinate columns and the winding class is recovered
    from the angle samples themselves.  Only lambda1, lambda2, theta and u
    are parsed: the unit field and k_g are recomputed, so text in vx, vy and
    kg is never read, but every row must still hold exactly seven fields.
    """
    text = Path(path).read_bytes()
    if (header_end := text.find(b"\n")) < 0 or not re.compile(rb"\S").search(text, header_end):
        raise ValueError(f"field table has no rows: {path}")
    # the bytes go before loadtxt reads the file itself; only the count stays
    commas = text.count(b",", header_end)
    del text
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1, 2, 6))
    except ValueError as exc:
        raise ValueError(f"field table needs columns {CSV_HEADER}: {exc}") from exc
    if commas != 6 * data.shape[0]:
        raise ValueError(f"field table needs columns {CSV_HEADER} on every row")
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

    u = ScalarField(lattice, data[:, 3].reshape(n1, n2))
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


def write_quiver(path: str | Path, theta: AngleField) -> None:
    """Decimated arrow table, one ``x y vx vy`` line per kept grid point.

    Positions are Cartesian; one sample in ``QUIVER_STRIDE`` survives in each direction.
    """
    x, y = theta.lattice.cartesian_coords
    V = angle_to_unit_field(theta)
    kept = [a[::QUIVER_STRIDE, ::QUIVER_STRIDE].ravel() for a in (x, y, V.comp1.values, V.comp2.values)]
    row = "%.17g %.17g %.17g %.17g\n"
    text = "".join(row * (len(values) // 4) % values for values in _blocks(np.stack(kept, axis=1)))
    Path(path).write_text(text, encoding="utf-8")


### Reports


def report_document(config: RunConfig, report: SolveReport) -> dict:
    """The JSON-ready form of a solve report: all report fields plus the
    config echo, ``winding`` under the config file's key ``class``.

    ``wall_time`` is always ``null``: reports promise byte-identical reruns
    and elapsed time is the one field that cannot keep that promise.  The
    measured value stays available on the in-memory report.
    """
    echo = asdict(config)
    echo["class"] = echo.pop("winding")
    return {
        "config": echo,
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
    # kind -> (the files it writes, the first handed to its writer; that writer)
    artifacts = {
        "csv": (("field.csv",), lambda path: write_field_csv(path, cs, theta)),
        "pgm": (
            ("periodic_part.pgm", "periodic_part.pgm.scale"),
            lambda path: write_heatmap_pgm(path, theta.periodic),
        ),
        "json": (("report.json",), lambda path: write_report_json(path, config, report)),
        "quiver": (("quiver.txt",), lambda path: write_quiver(path, theta)),
    }
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for kind in config.outputs:
        names, write = artifacts[kind]
        write(outdir / names[0])
        written.extend(outdir / name for name in names)
    return written
