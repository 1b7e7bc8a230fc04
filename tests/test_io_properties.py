"""Property tests of the text tables: their bytes, the round trip, the cache;
and of the text inputs: the exponent grammar and the config file.

``write_field_csv`` formats the four columns a structure fixes once and
fills in the three per-class ones on every write; ``write_quiver`` fills
the same kind of ``%.17g`` block.  Their bytes must stay those of the
writers they replaced (``np.savetxt`` and per-value ``format``), kept here
as references.  Checked over random oblique lattices, even grids of 8 to 32
points per side with n1 != n2, band-limited exponents and classes in
{-2..2}^2.
"""

from __future__ import annotations

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusfield import io as runio
from torusfield.angles import AngleField, HomotopyClass, angle_to_unit_field
from torusfield.conformal import ConformalStructure
from torusfield.io import (
    CSV_HEADER,
    OUTPUT_KINDS,
    RunConfig,
    parse_exponent,
    read_field_csv,
    write_field_csv,
    write_quiver,
)
from torusfield.lattice import LatticeSpec, bandlimited_field


classes = st.builds(HomotopyClass, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def tables(draw) -> tuple[str, LatticeSpec, int]:
    """A lattice with its text form, and a seed for the exponent and angles."""
    spread = st.floats(-0.4, 0.4)
    length = st.floats(0.5, 2.0)
    d1 = (draw(length), draw(spread))
    d2 = (draw(spread), draw(length))
    n1 = 2 * draw(st.integers(4, 16))
    n2 = 2 * draw(st.integers(4, 16).filter(lambda k: 2 * k != n1))
    text = f"{d1[0]!r},{d1[1]!r};{d2[0]!r},{d2[1]!r}"
    return text, LatticeSpec(d1, d2, n1, n2), draw(st.integers(0, 2**32 - 1))


def _structure(lattice: LatticeSpec, rng: np.random.Generator) -> ConformalStructure:
    u = bandlimited_field(lattice, rng, band=3, amplitude=0.5)
    with warnings.catch_warnings():
        # coarse grids flag exponents that are resolved only to ~1e-6
        warnings.simplefilter("ignore")
        return ConformalStructure.from_exponent(u)


def _angle(lattice: LatticeSpec, rng: np.random.Generator, cls: HomotopyClass) -> AngleField:
    # band 3 and amplitude 0.5 keep every grid step of the total angle
    # below pi on grids of 8 or more (Bernstein's inequality), so the
    # winding read back from the unit field is certified
    return AngleField(cls, bandlimited_field(lattice, rng, band=3, amplitude=0.5))


def _savetxt_csv(path, cs: ConformalStructure, theta: AngleField) -> None:
    """The field-table writer before the templates: all seven columns
    through ``np.savetxt``."""
    lam1, lam2 = cs.lattice.fractional_coords
    V = angle_to_unit_field(theta)
    columns = np.stack(
        [
            lam1.ravel(),
            lam2.ravel(),
            theta.total_samples().ravel(),
            V.comp1.values.ravel(),
            V.comp2.values.ravel(),
            cs.kg.values.ravel(),
            cs.u.values.ravel(),
        ],
        axis=1,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        np.savetxt(fh, columns, fmt="%.17g", delimiter=",", newline="\n")


def _formatted_quiver(path, theta: AngleField, stride: int) -> None:
    """The quiver writer before the blocks: one ``format`` per value."""
    x, y = theta.lattice.cartesian_coords
    V = angle_to_unit_field(theta)
    c1, c2 = V.comp1.values, V.comp2.values
    lines = [
        " ".join(format(float(a[s, t]), ".17g") for a in (x, y, c1, c2))
        for s in range(0, theta.lattice.n1, stride)
        for t in range(0, theta.lattice.n2, stride)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@given(tables(), classes)
def test_field_table_bytes_equal_savetxt(workdir, table, cls):
    _, lattice, seed = table
    rng = np.random.default_rng(seed)
    cs = _structure(lattice, rng)
    theta = _angle(lattice, rng, cls)
    write_field_csv(workdir / "templated.csv", cs, theta)
    _savetxt_csv(workdir / "savetxt.csv", cs, theta)
    assert (workdir / "templated.csv").read_bytes() == (workdir / "savetxt.csv").read_bytes()


@given(tables(), classes)
def test_field_table_reads_back_bit_for_bit(workdir, table, cls):
    text, lattice, seed = table
    rng = np.random.default_rng(seed)
    cs = _structure(lattice, rng)
    theta = _angle(lattice, rng, cls)
    write_field_csv(workdir / "field.csv", cs, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cs_back, theta_back = read_field_csv(workdir / "field.csv", text)

    assert cs_back.lattice == lattice
    assert theta_back.homotopy == cls
    np.testing.assert_array_equal(cs_back.u.values, cs.u.values)
    np.testing.assert_array_equal(theta_back.total_samples(), theta.total_samples())


@given(tables(), classes, st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_the_reader_ignores_the_values_of_vx_vy_and_kg(workdir, table, cls, filler):
    text, lattice, seed = table
    rng = np.random.default_rng(seed)
    cs = _structure(lattice, rng)
    theta = _angle(lattice, rng, cls)
    write_field_csv(workdir / "field.csv", cs, theta)
    header, *rows = (workdir / "field.csv").read_text(encoding="utf-8").splitlines()
    fill = [format(value, ".17g") for value in filler]
    rows = [",".join(row.split(",")[:3] + fill + row.split(",")[6:]) for row in rows]
    (workdir / "filled.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cs_back, theta_back = read_field_csv(workdir / "filled.csv", text)

    assert cs_back.lattice == lattice
    assert theta_back.homotopy == cls
    np.testing.assert_array_equal(cs_back.u.values, cs.u.values)
    np.testing.assert_array_equal(theta_back.total_samples(), theta.total_samples())


def test_the_four_parsed_columns_equal_those_of_a_full_parse(tmp_path):
    lattice = LatticeSpec.unit_square(64)
    rng = np.random.default_rng(0)
    cs = _structure(lattice, rng)
    theta = _angle(lattice, rng, HomotopyClass(1, -2))
    write_field_csv(tmp_path / "field.csv", cs, theta)
    full = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1)
    parsed = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2, 6))
    np.testing.assert_array_equal(parsed, full[:, [0, 1, 2, 6]])

    cs_back, theta_back = read_field_csv(tmp_path / "field.csv")
    np.testing.assert_array_equal(cs_back.u.values, full[:, 6].reshape(64, 64))
    np.testing.assert_array_equal(theta_back.total_samples(), full[:, 2].reshape(64, 64))


@given(tables(), classes, classes)
def test_an_earlier_class_leaves_no_trace_in_the_next_table(workdir, table, first, second):
    _, lattice, seed = table
    cs = _structure(lattice, np.random.default_rng(seed))
    angles = np.random.default_rng(seed + 1)
    write_field_csv(workdir / "first.csv", cs, _angle(lattice, angles, first))
    theta = _angle(lattice, angles, second)
    write_field_csv(workdir / "shared.csv", cs, theta)

    fresh = _structure(lattice, np.random.default_rng(seed))
    write_field_csv(workdir / "fresh.csv", fresh, theta)
    assert (workdir / "shared.csv").read_bytes() == (workdir / "fresh.csv").read_bytes()


@settings(max_examples=10)
@given(tables(), classes)
def test_template_cache_does_not_keep_the_structure_alive(workdir, table, cls):
    _, lattice, seed = table
    rng = np.random.default_rng(seed)
    gc.collect()
    before = len(runio._CSV_TEMPLATES)
    cs = _structure(lattice, rng)
    write_field_csv(workdir / "field.csv", cs, _angle(lattice, rng, cls))
    assert len(runio._CSV_TEMPLATES) == before + 1

    gone = weakref.ref(cs)
    del cs
    gc.collect()
    assert gone() is None
    assert len(runio._CSV_TEMPLATES) == before


@given(tables(), classes)
def test_quiver_bytes_equal_per_value_format(workdir, table, cls):
    _, lattice, seed = table
    theta = _angle(lattice, np.random.default_rng(seed), cls)
    write_quiver(workdir / "blocks.txt", theta)
    _formatted_quiver(workdir / "formatted.txt", theta, runio.QUIVER_STRIDE)
    assert (workdir / "blocks.txt").read_bytes() == (workdir / "formatted.txt").read_bytes()


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e17, -1e17,
    0.1, 1.0 / 3.0, 2.0**53 + 2.0, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
]


def test_percent_format_matches_format_and_savetxt_at_the_edges(tmp_path):
    # the writers fill "%.17g" slots; the old ones called format(x, ".17g")
    # and np.savetxt(fmt="%.17g"): all three must spell every double alike
    path = tmp_path / "edges.txt"
    np.savetxt(path, np.array(EDGE_VALUES)[:, None], fmt="%.17g", newline="\n")
    savetxt = path.read_text(encoding="utf-8").splitlines()
    for value, line in zip(EDGE_VALUES, savetxt):
        assert "%.17g" % value == format(value, ".17g") == line


### The exponent grammar and the config text

OBLIQUE = LatticeSpec((1.0, 0.1), (0.35, 0.9), 8, 6)
numbers = st.integers(0, 99).map(str) | st.floats(0.0, 10.0, allow_subnormal=False).map(repr)


@st.composite
def exponents(draw) -> tuple[str, list[tuple[int, str, str | None, int, int]]]:
    """A valid exponent, spaced between tokens, and its terms in order:
    ``(sign, number, fn, p, q)`` with ``fn`` None for a constant ``number``
    and the coefficient of a trig term otherwise (``"1"`` when omitted)."""
    def gap() -> str:
        return draw(st.sampled_from(["", " ", "\t ", "  "]))

    def signs(least: int) -> str:
        return "".join(draw(st.lists(st.sampled_from("+-"), min_size=least, max_size=3)))

    text, terms = "", []
    for index in range(draw(st.integers(1, 4))):
        run = signs(1 if index else 0)
        text += run + gap()
        sign = (-1) ** run.count("-")
        if draw(st.booleans()):
            number = draw(numbers)
            text += number
            terms.append((sign, number, None, 0, 0))
            continue
        coeff = draw(st.none() | numbers)
        fn = draw(st.sampled_from(["sin", "cos"]))
        atoms, p, q = [], 0, 0
        for k in range(draw(st.integers(1, 4))):
            atom_run = signs(1 if k else 0)
            mult, var = draw(st.none() | st.integers(0, 4)), draw(st.sampled_from("xy"))
            times = "" if mult is None else f"{mult}{gap()}*{gap()}"
            atoms.append(atom_run + gap() + times + var)
            step = (-1) ** atom_run.count("-") * (1 if mult is None else mult)
            p, q = (p + step, q) if var == "x" else (p, q + step)
        bare = len(atoms) == 1 and atoms[0] in ("x", "y") and draw(st.booleans())
        arg = atoms[0] if bare else "(" + gap() + gap().join(atoms) + gap() + ")"
        text += "" if coeff is None else f"{coeff}{gap()}*{gap()}"
        text += f"{fn}{gap()}({gap()}2pi{gap()}*{gap()}{arg}{gap()})"
        terms.append((sign, coeff or "1", fn, p, q))
    return gap() + text + gap(), terms


@given(exponents())
def test_exponent_is_the_direct_sum_of_its_terms_in_order(exponent):
    # sign runs multiply out, linear-argument atoms add up in any order and
    # with repeats, and the terms sum left to right onto zeros
    text, terms = exponent
    lam1, lam2 = OBLIQUE.fractional_coords
    expected = np.zeros(OBLIQUE.shape)
    for sign, number, fn, p, q in terms:
        if fn is None:
            expected = expected + sign * float(number)
        else:
            wave = getattr(np, fn)(2.0 * np.pi * (p * lam1 + q * lam2))
            expected = expected + sign * float(number) * wave
    assert np.array_equal(parse_exponent(text, OBLIQUE).values, expected)


# text fields with no newline and no edge whitespace survive a line of the file
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines cuts
words = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS), max_size=12
).map(str.strip)


@given(
    words, words, words, st.tuples(st.integers(-99, 99), st.integers(-99, 99)),
    st.floats(allow_nan=False), words, st.lists(st.sampled_from(OUTPUT_KINDS), max_size=5),
)
def test_config_roundtrips_through_its_text(
    lattice, grid, u, winding, tolerance, formulation, kinds
):
    config = RunConfig(lattice, grid, u, winding, tolerance, formulation, tuple(kinds))
    assert RunConfig.from_text(config.to_text()) == config
