"""Config text, the exponent grammar, field tables, images, and reports."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from torusfield.angles import AngleField, HomotopyClass
from torusfield.conformal import ConformalStructure, ResolutionWarning
from torusfield.energy import bienergy
from torusfield.io import (
    CSV_HEADER,
    RunConfig,
    build_lattice,
    parse_exponent,
    parse_grid,
    parse_lattice,
    read_field_csv,
    realize,
    write_field_csv,
    write_heatmap_pgm,
    write_outputs,
    write_quiver,
    write_report_json,
)
from torusfield.lattice import LatticeSpec, ScalarField, bandlimited_field
from torusfield.solver import solve_homotopy_class

TWO_PI = 2.0 * np.pi

#: the documented top-level keys of report.json, and of its "energy" entry
REPORT_KEYS = {
    "config", "winding_class", "iterations", "final_relative_residual",
    "energy", "el_residual_maxnorm", "wall_time",
}
ENERGY_KEYS = {"bienergy", "vertical_bienergy", "horizontal_part", "total_bending", "area"}


@pytest.fixture
def square() -> LatticeSpec:
    return LatticeSpec.unit_square(16)


@pytest.fixture(scope="module")
def solved():
    """A small solved instance shared by the writer tests."""
    lattice = LatticeSpec.unit_square(16)
    u = parse_exponent("0.3*sin(2pi*x)+0.1*cos(2pi*y)", lattice)
    cs = ConformalStructure.from_exponent(u)
    theta, report = solve_homotopy_class(cs, HomotopyClass(2, -1))
    return cs, theta, report


### Config round-trip


def test_config_roundtrips_through_text():
    config = RunConfig(
        lattice="1,0;0.5,2",
        grid="32x16",
        u="0.2*sin(2pi*x)",
        winding=(3, -2),
        tolerance=2.5e-9,
        formulation="flat_weighted",
        outputs=("csv", "json"),
    )
    assert RunConfig.from_text(config.to_text()) == config


def test_default_config_roundtrips():
    assert RunConfig.from_text(RunConfig().to_text()) == RunConfig()


def test_config_text_bytes_are_pinned():
    # the key table fixes the order and the spelling of every line
    assert RunConfig().to_text() == (
        "lattice = unit-square\ngrid = 64\nu = 0\nclass = 1 0\n"
        "tolerance = 1e-10\nformulation = curved\noutputs = \n"
    )
    config = RunConfig(
        lattice="1,0;0.5,2",
        grid="32x16",
        u="--0.1+0.2*sin(2pi*(3*y+-x))",
        winding=(3, -2),
        tolerance=0.1,
        formulation="flat_weighted",
        outputs=("json", "csv"),
    )
    assert config.to_text() == (
        "lattice = 1,0;0.5,2\ngrid = 32x16\nu = --0.1+0.2*sin(2pi*(3*y+-x))\n"
        "class = 3 -2\ntolerance = 0.10000000000000001\n"
        "formulation = flat_weighted\noutputs = json csv\n"
    )


def test_config_skips_blanks_and_comments():
    text = "# a comment\n\ngrid = 8\n  # indented comment\nu = 0.5\n"
    config = RunConfig.from_text(text)
    assert config.grid == "8"
    assert config.u == "0.5"
    assert config.lattice == "unit-square"


@pytest.mark.parametrize(
    "line",
    [
        "gird = 8",
        "class = 1",
        "class = one zero",
        "tolerance = tiny",
        "just some words",
        "outputs = csv exe",
    ],
)
def test_config_rejects_malformed_lines(line):
    with pytest.raises(ValueError):
        RunConfig.from_text(line + "\n")


def test_config_rejects_unknown_output_kind_directly():
    with pytest.raises(ValueError, match="output kind"):
        RunConfig(outputs=("csv", "exe"))


### Grid and lattice text


@pytest.mark.parametrize(
    "text, expected",
    [("64", (64, 64)), ("64x32", (64, 32)), (" 8X8 ", (8, 8))],
)
def test_parse_grid(text, expected):
    assert parse_grid(text) == expected


@pytest.mark.parametrize("text", ["banana", "8x8x8", "8.5", ""])
def test_parse_grid_rejects(text):
    with pytest.raises(ValueError, match="grid"):
        parse_grid(text)


def test_parse_lattice_unit_square():
    assert parse_lattice("unit-square") == ((1.0, 0.0), (0.0, 1.0))


def test_parse_lattice_generators():
    assert parse_lattice(" 1, 0 ; 0.5, 2 ") == ((1.0, 0.0), (0.5, 2.0))


@pytest.mark.parametrize("text", ["unit-circle", "1,0", "1,0;0.5", "1,0;a,b"])
def test_parse_lattice_rejects(text):
    with pytest.raises(ValueError, match="lattice"):
        parse_lattice(text)


def test_build_lattice_combines_both():
    lattice = build_lattice("1,0;0.5,2", "8x16")
    assert lattice.shape == (8, 16)
    assert lattice.d2 == (0.5, 2.0)


### The exponent grammar


def test_zero_exponent_is_flat(square):
    assert parse_exponent("0", square).max_abs() == 0.0


def test_constant_terms_accumulate(square):
    field = parse_exponent("-0.5+0.25", square)
    np.testing.assert_allclose(field.values, -0.25, atol=1e-16)


def test_single_sine_in_first_coordinate(square):
    field = parse_exponent("0.2*sin(2pi*x)", square)
    lam1, _ = square.fractional_coords
    np.testing.assert_allclose(field.values, 0.2 * np.sin(TWO_PI * lam1), atol=1e-16)


def test_bare_trig_has_unit_coefficient(square):
    field = parse_exponent("cos(2pi*y)", square)
    _, lam2 = square.fractional_coords
    np.testing.assert_allclose(field.values, np.cos(TWO_PI * lam2), atol=1e-16)


def test_two_term_sum(square):
    field = parse_exponent("0.2*sin(2pi*x) + 0.1*cos(2pi*y)", square)
    lam1, lam2 = square.fractional_coords
    expected = 0.2 * np.sin(TWO_PI * lam1) + 0.1 * np.cos(TWO_PI * lam2)
    np.testing.assert_allclose(field.values, expected, atol=1e-16)


def test_mixed_mode_argument(square):
    field = parse_exponent("0.1*sin(2pi*(2*x-3*y))", square)
    lam1, lam2 = square.fractional_coords
    expected = 0.1 * np.sin(TWO_PI * (2 * lam1 - 3 * lam2))
    np.testing.assert_allclose(field.values, expected, atol=1e-16)


def test_leading_minus_and_scientific_coefficients(square):
    field = parse_exponent("-1e-2*cos(2pi*x)+2.5e-3", square)
    lam1, _ = square.fractional_coords
    np.testing.assert_allclose(
        field.values, -1e-2 * np.cos(TWO_PI * lam1) + 2.5e-3, atol=1e-18
    )


def test_grammar_ignores_whitespace(square):
    tight = parse_exponent("0.2*sin(2pi*(x+y))", square)
    spaced = parse_exponent(" 0.2 * sin( 2pi * ( x + y ) ) ", square)
    np.testing.assert_array_equal(tight.values, spaced.values)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "sin(x)",
        "tan(2pi*x)",
        "0.2*sin(2pi*(x*y))",
        "0.2*sin(2pi*x",
        "u+1",
        "0.2*sin(2pi*x))",
        "sin(2pi*1.5*x)",
        "1+",
        "+",
        "x",
        "2*x",
        "e",
        "0.2*sin(2pi*(x+))",
        "0.2*sin(2pi*((x)))",
        "0.2*sin(2pi*x)3",
        "sin(2pi*x)cos(2pi*y)",
        "0.2**sin(2pi*x)",
    ],
)
def test_grammar_rejects(square, text):
    with pytest.raises(ValueError):
        parse_exponent(text, square)


def test_sample_file_exponent(square, tmp_path):
    rng = np.random.default_rng(3)
    reference = bandlimited_field(square, rng, band=3)
    shaped = tmp_path / "shaped.txt"
    np.savetxt(shaped, reference.values)
    flat = tmp_path / "flat.txt"
    np.savetxt(flat, reference.values.ravel())

    for path in (shaped, flat):
        loaded = parse_exponent(f"@{path}", square)
        np.testing.assert_allclose(loaded.values, reference.values, atol=1e-15)


def test_sample_file_size_mismatch(square, tmp_path):
    path = tmp_path / "short.txt"
    np.savetxt(path, np.zeros(17))
    with pytest.raises(ValueError, match="sample file"):
        parse_exponent(f"@{path}", square)


def test_realize_builds_matching_pieces():
    config = RunConfig(grid="8", u="0.1*sin(2pi*x)", winding=(1, 2), tolerance=1e-8)
    cs, homotopy, opts = realize(config)
    assert cs.lattice.shape == (8, 8)
    assert (homotopy.m, homotopy.n) == (1, 2)
    assert opts.tolerance == 1e-8


#: a band-3 exponent that an 8^2 grid leaves wholly in its top third
UNRESOLVED = "0.3*sin(2pi*(3*x))"


def test_an_unresolved_exponent_warns_at_the_caller_of_realize():
    with pytest.warns(ResolutionWarning, match="conformal exponent has") as warned:
        realize(RunConfig(grid="8", u=UNRESOLVED))
    assert [w.filename for w in warned] == [__file__]


### Field tables


def test_csv_header_and_shape(solved, tmp_path):
    cs, theta, _ = solved
    path = tmp_path / "field.csv"
    write_field_csv(path, cs, theta)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 16 * 16
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_csv_roundtrip_is_lossless(solved, tmp_path):
    cs, theta, _ = solved
    path = tmp_path / "field.csv"
    write_field_csv(path, cs, theta)
    cs_back, theta_back = read_field_csv(path)

    assert theta_back.homotopy == theta.homotopy
    np.testing.assert_array_equal(theta_back.total_samples(), theta.total_samples())
    np.testing.assert_array_equal(cs_back.u.values, cs.u.values)


def test_csv_reingested_energy_matches(solved, tmp_path):
    cs, theta, report = solved
    path = tmp_path / "field.csv"
    write_field_csv(path, cs, theta)
    cs_back, theta_back = read_field_csv(path)
    again = bienergy(cs_back, theta_back).bienergy
    assert again == pytest.approx(report.energy.bienergy, rel=1e-12)


def test_csv_survives_oblique_lattices(tmp_path):
    lattice = LatticeSpec((1.0, 0.0), (0.5, 1.5), 16, 16)
    u = parse_exponent("0.2*cos(2pi*y)", lattice)
    cs = ConformalStructure.from_exponent(u)
    theta, report = solve_homotopy_class(cs, HomotopyClass(0, 1))
    path = tmp_path / "field.csv"
    write_field_csv(path, cs, theta)

    cs_back, theta_back = read_field_csv(path, "1,0;0.5,1.5")
    assert cs_back.lattice == lattice
    again = bienergy(cs_back, theta_back).bienergy
    assert again == pytest.approx(report.energy.bienergy, rel=1e-12)


def test_csv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="columns"):
        read_field_csv(path)


def test_csv_rejects_a_header_only_table_without_a_warning(tmp_path):
    path = tmp_path / "empty.csv"
    # only whitespace after the header is no row either, with or without a newline
    for tail in ("\n", "", "\r\n \t\n\n"):
        path.write_text(CSV_HEADER + tail, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no rows"):
                read_field_csv(path)


def test_reading_a_table_of_an_unresolved_exponent_warns_at_the_caller(tmp_path):
    lattice = LatticeSpec.unit_square(8)
    cs = ConformalStructure(parse_exponent(UNRESOLVED, lattice))
    path = tmp_path / "field.csv"
    write_field_csv(path, cs, AngleField(HomotopyClass(1, 0), ScalarField(lattice, np.zeros((8, 8)))))
    with pytest.warns(ResolutionWarning, match="conformal exponent has") as warned:
        read_field_csv(path)
    assert [w.filename for w in warned] == [__file__]


def _widen_every_row(lines: list[str]) -> list[str]:
    return [lines[0] + ",extra"] + [line + ",0" for line in lines[1:]]


def _widen_one_row(lines: list[str]) -> list[str]:
    return lines[:5] + [lines[5] + ",0"] + lines[6:]


def _narrow_one_row(lines: list[str]) -> list[str]:
    return lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:]


def _narrow_header_widen_one_row(lines: list[str]) -> list[str]:
    # the header is not parsed, so it must not make up for a row's extra field
    return _widen_one_row([lines[0].rsplit(",", 1)[0]] + lines[1:])


@pytest.mark.parametrize(
    "edit", [_widen_every_row, _widen_one_row, _narrow_one_row, _narrow_header_widen_one_row]
)
def test_csv_rejects_rows_that_are_not_seven_fields_wide(solved, tmp_path, edit):
    cs, theta, _ = solved
    path = tmp_path / "field.csv"
    write_field_csv(path, cs, theta)
    lines = edit(path.read_text(encoding="utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="columns"):
        read_field_csv(path)


def test_csv_rejects_partial_grid(solved, tmp_path):
    cs, theta, _ = solved
    path = tmp_path / "field.csv"
    write_field_csv(path, cs, theta)
    lines = path.read_text(encoding="utf-8").splitlines()
    (tmp_path / "cut.csv").write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_field_csv(tmp_path / "cut.csv")


### Heatmaps


def test_zero_field_writes_zero_payload(square, tmp_path):
    path = tmp_path / "flat.pgm"
    write_heatmap_pgm(path, ScalarField.from_constant(square, 0.0))
    blob = path.read_bytes()
    header = f"P5\n{square.n2} {square.n1}\n255\n".encode("ascii")
    assert blob.startswith(header)
    payload = blob[len(header):]
    assert payload == bytes(square.n1 * square.n2)


def test_constant_field_also_maps_to_zeros(square, tmp_path):
    path = tmp_path / "const.pgm"
    write_heatmap_pgm(path, ScalarField.from_constant(square, 7.25))
    payload = path.read_bytes().split(b"255\n", 1)[1]
    assert payload == bytes(square.n1 * square.n2)
    sidecar = (tmp_path / "const.pgm.scale").read_text(encoding="utf-8")
    assert "min = 7.25" in sidecar and "max = 7.25" in sidecar


def test_heatmap_scaling_endpoints(square, tmp_path):
    rng = np.random.default_rng(11)
    field = bandlimited_field(square, rng, band=3)
    path = tmp_path / "field.pgm"
    write_heatmap_pgm(path, field)
    payload = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
    assert payload.size == square.n1 * square.n2
    assert payload.min() == 0 and payload.max() == 255

    sidecar = dict(
        line.split(" = ")
        for line in (tmp_path / "field.pgm.scale").read_text().splitlines()
    )
    assert float(sidecar["min"]) == field.values.min()
    assert float(sidecar["max"]) == field.values.max()


### Reports


def test_report_has_exactly_the_documented_keys(solved, tmp_path):
    _, _, report = solved
    config = RunConfig(grid="16", u="0.3*sin(2pi*x)+0.1*cos(2pi*y)", winding=(2, -1))
    path = tmp_path / "report.json"
    write_report_json(path, config, report)
    doc = json.loads(path.read_text(encoding="utf-8"))

    assert set(doc) == REPORT_KEYS
    assert set(doc["energy"]) == ENERGY_KEYS
    assert doc["wall_time"] is None
    assert doc["winding_class"] == [2, -1]
    assert doc["config"]["u"] == "0.3*sin(2pi*x)+0.1*cos(2pi*y)"
    assert doc["energy"]["bienergy"] == report.energy.bienergy


def test_in_memory_diagnostics_stay_out_of_report_json(tmp_path):
    config = RunConfig(
        grid="16", u="0.2*sin(2pi*x)+0.1*cos(2pi*y)", winding=(1, 1), outputs=("json",)
    )
    blobs = []
    for run in ("a", "b"):
        cs, homotopy, opts = realize(config)
        theta, report = solve_homotopy_class(cs, homotopy, opts)
        assert len(report.residual_history) == report.iterations + 1 > 1
        assert report.el_residual_relative > 0.0
        (path,) = write_outputs(tmp_path / run, config, cs, theta, report)
        assert set(json.loads(path.read_text(encoding="utf-8"))) == REPORT_KEYS
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_report_file_ends_with_newline(solved, tmp_path):
    _, _, report = solved
    path = tmp_path / "report.json"
    write_report_json(path, RunConfig(), report)
    assert path.read_bytes().endswith(b"\n")


### Quiver tables


def test_quiver_decimates_and_embeds_positions(solved, tmp_path):
    cs, theta, _ = solved
    path = tmp_path / "quiver.txt"
    write_quiver(path, theta)
    rows = np.loadtxt(path)
    assert rows.shape == ((16 // 4) * (16 // 4), 4)

    x, y = cs.lattice.cartesian_coords
    np.testing.assert_array_equal(rows[0, :2], [x[0, 0], y[0, 0]])
    np.testing.assert_array_equal(rows[1, :2], [x[0, 4], y[0, 4]])
    lengths = np.hypot(rows[:, 2], rows[:, 3])
    np.testing.assert_allclose(lengths, 1.0, atol=1e-15)


### Bundled writer and byte determinism


def test_write_outputs_covers_all_kinds(solved, tmp_path):
    cs, theta, report = solved
    config = RunConfig(
        grid="16", u="0.3*sin(2pi*x)+0.1*cos(2pi*y)", winding=(2, -1),
        outputs=("csv", "pgm", "json", "quiver"),
    )
    written = write_outputs(tmp_path / "out", config, cs, theta, report)
    names = sorted(p.name for p in written)
    assert names == [
        "field.csv",
        "periodic_part.pgm",
        "periodic_part.pgm.scale",
        "quiver.txt",
        "report.json",
    ]
    assert all(p.exists() for p in written)


def test_identical_runs_write_identical_bytes(tmp_path):
    blobs = []
    for run in ("a", "b"):
        lattice = LatticeSpec.unit_square(16)
        u = parse_exponent("0.2*sin(2pi*x)+0.1*cos(2pi*y)", lattice)
        cs = ConformalStructure.from_exponent(u)
        theta, report = solve_homotopy_class(cs, HomotopyClass(1, 1))
        config = RunConfig(
            grid="16", u="0.2*sin(2pi*x)+0.1*cos(2pi*y)", winding=(1, 1),
            outputs=("csv", "pgm", "json", "quiver"),
        )
        outdir = tmp_path / run
        paths = write_outputs(outdir, config, cs, theta, report)
        blobs.append({p.name: p.read_bytes() for p in paths})
    assert blobs[0] == blobs[1]
