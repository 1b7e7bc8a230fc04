"""End-to-end command tests: exit codes, printed lines, written artifacts."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from torusfield import cli, conformal, energy, stability
from torusfield import io as runio
from torusfield.cli import main
from torusfield.io import read_field_csv
from torusfield.lattice import ScalarField
from torusfield.liegroups import _PROBLEMS
from torusfield.solver import _FORMULATIONS


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


### solve


def test_solve_reports_class_and_residual(capsys):
    code, out = run(
        capsys, "solve", "--lattice", "unit-square", "--grid", "16",
        "--u", "0.2*sin(2pi*x)", "--class", "1", "0",
    )
    assert code == 0
    assert out.startswith("class (1, 0):")
    assert "relative residual" in out


def test_a_command_is_the_caller_its_warnings_name(capsys):
    # the exponent's warning and the angle's both point at the command's line,
    # not into the library modules that decide them
    with pytest.warns(conformal.ResolutionWarning) as warned:
        code, _ = run(capsys, "solve", "--grid", "8", "--u", "0.3*sin(2pi*(3*x))")
    assert code == 0
    assert [str(w.message).split()[0] for w in warned] == ["conformal", "angle"]
    assert all(Path(w.filename).parts[-2:] == ("torusfield", "cli.py") for w in warned)


def test_solve_writes_requested_artifacts(capsys, tmp_path):
    outdir = tmp_path / "run"
    code, out = run(
        capsys, "solve", "--grid", "16", "--u", "0.2*sin(2pi*x)",
        "--class", "1", "0", "--outputs", "csv,json", "--outdir", str(outdir),
    )
    assert code == 0
    assert (outdir / "field.csv").exists()
    assert (outdir / "report.json").exists()
    assert not (outdir / "periodic_part.pgm").exists()
    assert str(outdir / "field.csv") in out


def test_outdir_env_var_is_honored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSFIELD_OUTDIR", str(tmp_path / "from_env"))
    code, _ = run(
        capsys, "solve", "--grid", "16", "--u", "0", "--class", "0", "1",
        "--outputs", "json",
    )
    assert code == 0
    assert (tmp_path / "from_env" / "report.json").exists()


def test_outdir_flag_beats_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSFIELD_OUTDIR", str(tmp_path / "from_env"))
    code, _ = run(
        capsys, "solve", "--grid", "16", "--u", "0", "--class", "0", "1",
        "--outputs", "json", "--outdir", str(tmp_path / "from_flag"),
    )
    assert code == 0
    assert (tmp_path / "from_flag" / "report.json").exists()
    assert not (tmp_path / "from_env").exists()


def test_unreachable_tolerance_exits_one(capsys):
    code = main([
        "solve", "--grid", "16", "--u", "0.3*sin(2pi*x)",
        "--class", "1", "0", "--tolerance", "1e-30",
    ])
    assert code == 1
    assert "stagnated at best relative residual" in capsys.readouterr().err


def test_overflowing_solve_exits_one_at_once(capsys):
    with np.errstate(all="ignore"):
        code = main(["solve", "--grid", "16", "--u", "50*sin(2pi*x)"])
    assert code == 1
    assert "error: relative residual not finite at iteration 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lattice, klass, code",
    [("1e30,0;0,1e30", "1", 1), ("1e30,0;0,1e30", "0", 0), ("unit-square", "0", 0)],
)
def test_a_source_whose_norm_underflows_exits_one_and_a_zero_source_solves(capsys, lattice, klass, code):
    # at L = 1e30 class (1, 0)'s source is about 1e-178 and its squared norm
    # underflows; class (0, 1)'s source assembles to exactly zero at any scale
    got = main(["solve", "--lattice", lattice, "--grid", "16", "--u", "0.1*sin(2pi*x)",
                "--class", klass, str(1 - int(klass))])
    out, err = capsys.readouterr()
    assert got == code
    if code:
        assert err.startswith("error: the source's norm underflowed to 0, though max|b| = ")
        assert "0 iterations" not in out
    else:
        assert out.startswith("class (0, 1): 0 iterations, relative residual 0.000e+00, bienergy ")


@pytest.mark.parametrize("generators", ["1,0;0,1e-300", "1e200,0;0,1e200"])
def test_generators_that_overflow_a_float_exit_two(capsys, generators):
    code = main(["solve", "--lattice", generators, "--grid", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert "overflow a float" in captured.err
    assert "nan" not in (captured.out + captured.err).lower()


def test_small_generators_whose_wavevectors_fit_still_solve(capsys):
    code, out = run(capsys, "solve", "--lattice", "1,0;0,1e-150", "--grid", "8", "--u", "0.1*sin(2pi*x)")
    assert code == 0
    assert out.startswith("class (1, 0): 3 iterations")
    assert math.isclose(float(out.split("bienergy ")[1]), 3.11922478568e-148, rel_tol=1e-9)


SUMMARY = re.compile(
    r"class \((-?\d+), (-?\d+)\): \d+ iterations, relative residual \S+, bienergy (\S+)"
)


def test_solve_classes_prints_each_class_and_the_least_energy(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    geometry = ("--grid", "16", "--u", "0.2*sin(2pi*x)")
    code, out = run(capsys, "solve", *geometry, "--classes=-1:1,-1:1")
    assert code == 0
    *lines, least = out.splitlines()
    classes = [(m, n) for m in range(-1, 2) for n in range(-1, 2)]
    assert [tuple(map(int, SUMMARY.fullmatch(line).groups()[:2])) for line in lines] == classes
    # each line is what the one-class solve prints
    for (m, n), line in zip(classes, lines):
        assert run(capsys, "solve", *geometry, "--class", str(m), str(n)) == (0, line + "\n")
    energies = {klass: float(SUMMARY.fullmatch(line).group(3)) for klass, line in zip(classes, lines)}
    m, n = min(energies, key=energies.get)
    assert least == f"least energy: class ({m}, {n}), bienergy {energies[m, n]:.12g}"
    assert list(tmp_path.iterdir()) == []


def test_solve_classes_takes_a_range_that_starts_negative_as_its_value(capsys):
    geometry = ("--grid", "16", "--u", "0.2*sin(2pi*x)")
    code, out = run(capsys, "solve", *geometry, "--classes", "-2:2,-2:2")
    assert code == 0
    assert (code, out) == run(capsys, "solve", *geometry, "--classes=-2:2,-2:2")
    *lines, _ = out.splitlines()
    classes = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]
    assert [tuple(map(int, SUMMARY.fullmatch(line).groups()[:2])) for line in lines] == classes


@pytest.mark.parametrize(
    "extra",
    [
        ("--class", "1", "0"),
        ("--outputs", "csv"),
        ("--outputs", "json", "--outdir", "out"),
    ],
)
def test_solve_classes_refuses_a_single_class_and_artifacts(capsys, tmp_path, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    code = main(["solve", "--grid", "16", "--u", "0.2*sin(2pi*x)", "--classes=0:1,0:1", *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --classes")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["1:0,0:0", "0:1", "0:1,0:x", "1,0", "0:1;0:1"])
def test_solve_classes_wants_two_ascending_ranges(capsys, text):
    assert main(["solve", "--grid", "16", "--u", "0", f"--classes={text}"]) == 2
    assert capsys.readouterr().err.startswith("error: --classes wants")


### config files


def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "grid = 16\nu = 0.2*sin(2pi*x)\nclass = 1 0\noutputs = json\n",
        encoding="utf-8",
    )
    outdir = tmp_path / "out"
    code, _ = run(capsys, "solve", "--config", str(config), "--outdir", str(outdir))
    assert code == 0
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    assert doc["winding_class"] == [1, 0]
    assert doc["config"]["u"] == "0.2*sin(2pi*x)"


def test_explicit_flags_override_config(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("grid = 16\nu = 0.2*sin(2pi*x)\nclass = 1 0\n", encoding="utf-8")
    code, out = run(
        capsys, "solve", "--config", str(config), "--class", "0", "2", "--u", "0",
    )
    assert code == 0
    assert out.startswith("class (0, 2):")


@pytest.mark.parametrize("spelling", ["csv,json", "csv json", "csv, json", " csv ,json,"])
def test_the_outputs_flag_and_key_read_one_list(tmp_path, spelling):
    config = tmp_path / "run.cfg"
    config.write_text(f"outputs = {spelling}\n", encoding="utf-8")
    parser = cli._build_parser()
    from_file = cli._load_config(parser.parse_args(["solve", "--config", str(config)]))
    from_flag = cli._load_config(parser.parse_args(["solve", "--outputs", spelling]))
    assert from_file == from_flag == runio.RunConfig(outputs=("csv", "json"))


def test_solve_writes_the_outputs_a_config_file_lists_with_commas(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("grid = 16\nu = 0.2*sin(2pi*x)\noutputs = csv,json\n", encoding="utf-8")
    outdir = tmp_path / "out"
    code, _ = run(capsys, "solve", "--config", str(config), "--outdir", str(outdir))
    assert code == 0
    assert sorted(path.name for path in outdir.iterdir()) == ["field.csv", "report.json"]


def test_missing_config_file_is_usage_error(capsys, tmp_path):
    code, _ = run(capsys, "solve", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


### energy


def test_energy_reproduces_reported_value(capsys, tmp_path):
    outdir = tmp_path / "run"
    run(
        capsys, "solve", "--grid", "16", "--u", "0.3*sin(2pi*x)+0.1*cos(2pi*y)",
        "--class", "2", "-1", "--outputs", "csv,json", "--outdir", str(outdir),
    )
    code, out = run(capsys, "energy", "--field", str(outdir / "field.csv"))
    assert code == 0
    assert "class (2, -1)" in out

    printed = dict(
        line.split(" = ") for line in out.splitlines() if " = " in line
    )
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    assert float(printed["bienergy"]) == pytest.approx(
        doc["energy"]["bienergy"], rel=1e-12
    )


def test_energy_on_oblique_lattice_needs_generators(capsys, tmp_path):
    outdir = tmp_path / "run"
    run(
        capsys, "solve", "--lattice", "1,0;0.5,1.5", "--grid", "16",
        "--u", "0.2*cos(2pi*y)", "--class", "0", "1",
        "--outputs", "csv,json", "--outdir", str(outdir),
    )
    code, out = run(
        capsys, "energy", "--field", str(outdir / "field.csv"),
        "--lattice", "1,0;0.5,1.5",
    )
    assert code == 0
    printed = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    assert float(printed["bienergy"]) == pytest.approx(
        doc["energy"]["bienergy"], rel=1e-12
    )


def test_importing_the_cli_leaves_numpy_random_unloaded():
    src = str(Path(cli.__file__).resolve().parent.parent)
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    probe = "import sys, torusfield.cli; print('numpy.random' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_energy_rejects_garbage_table(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    code, _ = run(capsys, "energy", "--field", str(bad))
    assert code == 2


### verify


def test_verify_flat_torus_passes_everything(capsys):
    code, out = run(capsys, "verify", "--grid", "16", "--u", "0")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "FAIL" not in out
    assert lines[-1].endswith("checks passed")


def test_verify_curved_torus_passes_everything(capsys):
    code, out = run(
        capsys, "verify", "--grid", "16", "--u", "0.2*sin(2pi*x)+0.1*cos(2pi*(x-2*y))",
    )
    assert code == 0
    assert "FAIL" not in out


_IDENTITIES = [
    "laplacian-conformal-rescaling",
    "tangential-projection-formula",
    "residual-conformal-collapse",
    "operator-self-adjointness",
    "gauss-bonnet-total-curvature",
    "frame-twist-identity",
]
_IDENTITY_LINE = re.compile(r"(PASS|FAIL) ([\w-]+): [a-z ]+ (\S+) \(tolerance (\S+)\)")


def _identity_lines(out: str) -> dict[str, tuple[str, float, float]]:
    """name -> (verdict, printed gap, printed tolerance) of each identity line."""
    found = (_IDENTITY_LINE.fullmatch(line) for line in out.splitlines())
    return {m[2]: (m[1], float(m[3]), float(m[4])) for m in found if m}


@pytest.mark.parametrize("geometry", [
    ["--grid", "32", "--u", "0"],
    ["--grid", "64", "--u", "0.2*sin(2pi*x)+0.1*cos(2pi*y)"],
    ["--lattice", "1,0;0.5,1.5", "--grid", "48x32", "--u", "1.0*sin(2pi*x)+0.5*cos(2pi*(x+y))", "--seed", "3"],
])
def test_every_identity_line_passes_exactly_when_its_printed_gap_is_within_its_tolerance(capsys, geometry):
    code, out = run(capsys, "verify", *geometry)
    lines = _identity_lines(out)
    assert list(lines) == _IDENTITIES
    for verdict, printed, tolerance in lines.values():
        assert (verdict == "PASS") == (abs(printed) <= tolerance)
    assert code == (1 if "FAIL" in out else 0)


@pytest.mark.parametrize("twist, verdict", [(5e-12, "PASS"), (5e-11, "FAIL")])
def test_the_frame_twist_line_prints_the_relative_gap_it_compares(capsys, monkeypatch, twist, verdict):
    # a is moved by twist e^{-u}, so the flat components of Z = aS + bW move
    # by twist: on this exponent the scale |J grad_g u| is about 14, and the
    # line must print the gap over that scale, not the gap itself
    u = "0.5*sin(2pi*x)+0.4*cos(2pi*(x+y))"

    def twisted(cs):
        conn = conformal.frame_connection(cs)
        return replace(conn, a=ScalarField(cs.lattice, conn.a.values + twist / cs.eu.values))

    monkeypatch.setattr(cli, "frame_connection", twisted)
    code, out = run(capsys, "verify", "--grid", "64", "--u", u)
    cs, _, _ = runio.realize(runio.RunConfig(grid="64", u=u))
    direct = cs.e2u * cs.jgrad_u
    scale = max(direct.comp1.max_abs(), direct.comp2.max_abs())
    assert scale > 10.0
    printed_verdict, printed, tolerance = _identity_lines(out)["frame-twist-identity"]
    assert (printed_verdict, tolerance) == (verdict, 1e-12)
    assert printed == pytest.approx(twist / scale, rel=1e-2)
    assert (printed <= tolerance) == (verdict == "PASS")
    assert code == (0 if verdict == "PASS" else 1)


def _transport_scaled(kernel, spectrum, factor=0.99):
    out = kernel.bilaplacian_spectrum(spectrum)
    for d in (kernel.d1, kernel.d2):
        out -= factor * d * np.fft.rfft2(kernel.kg_sq * np.fft.irfft2(d * spectrum))
    return out


def _weighted_by_eu(kernel, spectrum):
    out = kernel.lap * np.fft.rfft2(np.sqrt(kernel.e2u) * np.fft.irfft2(kernel.lap * spectrum))
    for d in (kernel.d1, kernel.d2):
        out -= d * np.fft.rfft2(kernel.kg_sq * np.fft.irfft2(d * spectrum))
    return out


@pytest.mark.parametrize("broken", [_transport_scaled, _weighted_by_eu])
def test_verify_fails_a_kernel_that_is_not_the_energys_hessian(capsys, monkeypatch, broken):
    # both kernels stay symmetric, so only the comparison with the energy's
    # variations can see them
    monkeypatch.setattr(conformal._Kernel, "apply_spectrum", broken)
    code, out = run(capsys, "verify", "--grid", "16", "--u", "0.2*sin(2pi*x)+0.1*cos(2pi*y)")
    assert code == 1
    assert "PASS operator-self-adjointness" in out
    assert "FAIL variations-match-energy" in out
    assert out.splitlines()[-1] == "1 of 8 checks failed"


def _source_skewed(kernel, homotopy):
    """``flat_div(k_g^2 (1.01 Y0 - J grad u))``: the source of a class scaled off the energy's."""
    y = energy._constant_gradient(homotopy, kernel.lattice)
    spectra = (
        d * np.fft.rfft2(kernel.kg_sq * (1.01 * y_i - j_i))
        for y_i, j_i, d in zip(y, kernel.jgrad_u, (kernel.d1, kernel.d2))
    )
    return np.fft.irfft2(sum(spectra))


@pytest.mark.parametrize("grid", ["16", "64"])
def test_verify_fails_a_source_that_is_not_the_energys_linear_term(capsys, monkeypatch, grid):
    # the kernel is untouched, so only half the difference of the energies at
    # theta +- beta, paired with P alpha - b, can see the source
    monkeypatch.setattr(conformal._Kernel, "source", _source_skewed)
    code, out = run(capsys, "verify", "--grid", grid, "--u", "0.2*sin(2pi*x)+0.1*cos(2pi*y)")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL variations-match-energy: ")
    assert out.splitlines()[-1] == "1 of 8 checks failed"


### stability


def test_stability_reports_nonnegative_directions(capsys):
    code, out = run(
        capsys, "stability", "--grid", "16", "--u", "0.2*sin(2pi*x)",
        "--class", "1", "0", "--samples", "2",
    )
    assert code == 0
    assert out.count("PASS direction") == 2


def test_stability_halving_ratio_is_clear_of_roundoff_on_a_strong_exponent(capsys):
    # both identities are exact, so on a strong exponent a correct kernel and
    # source still read gaps at roundoff of the energy scale (16^2
    # under-resolves this field, which warns)
    with pytest.warns(conformal.ResolutionWarning):
        code, out = run(
            capsys, "stability", "--grid", "16", "--u", "1.0*sin(2pi*x)+0.5*cos(2pi*(x+y))",
            "--class", "1", "0", "--samples", "8",
        )
    gaps = re.findall(r"relative gaps (\S+) and (\S+) \(", out)
    assert code == 0
    assert len(gaps) == 8
    assert all(float(gap) <= 1e3 * np.finfo(float).eps for pair in gaps for gap in pair)


def test_stability_gates_and_measures_its_base_point_once(capsys, monkeypatch):
    # every direction shares the solved field: one criticality gate per run
    # (counted at the roundoff floor only the gate reads), which also hands
    # back the flat residual, the base energy read from the solve's report,
    # then the two energies at theta +- beta per direction; the source is
    # assembled once by the solve and once by the gate
    counts = {"gate": 0, "energy": 0, "source": 0}

    def counting(key, call):
        def counted(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return counted

    monkeypatch.setattr(conformal._Kernel, "roundoff", counting("gate", conformal._Kernel.roundoff))
    # the variations take their energies through each module's bienergy
    for module in (cli, energy, stability):
        monkeypatch.setattr(module, "bienergy", counting("energy", module.bienergy))
    monkeypatch.setattr(conformal._Kernel, "source", counting("source", conformal._Kernel.source))
    code, out = run(
        capsys, "stability", "--grid", "16", "--u", "0.2*sin(2pi*x)",
        "--class", "1", "0", "--samples", "3",
    )
    assert code == 0
    assert out.count("PASS direction") == 3
    assert counts == {"gate": 1, "energy": 2 * 3, "source": 2}


def test_stability_fails_a_solve_against_a_wrong_source(capsys, monkeypatch):
    # Y0 scaled by 1.01 in the source alone: the solve and the criticality
    # gate both see the same wrong source and the second variation cannot see
    # it, but the energy's first variation along each direction no longer
    # vanishes
    monkeypatch.setattr(conformal._Kernel, "source", _source_skewed)
    code, out = run(
        capsys, "stability", "--grid", "16", "--u", "0.2*sin(2pi*x)",
        "--class", "1", "0", "--samples", "2",
    )
    assert code == 1
    assert out.count("FAIL direction") == 2
    assert out.splitlines()[-1] == "2 of 2 directions failed"


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_stability_rejects_a_nonpositive_sample_count(capsys, samples):
    code = main([
        "stability", "--grid", "16", "--u", "0.2*sin(2pi*x)",
        "--class", "1", "0", "--samples", samples,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "--samples" in captured.err
    assert "directions" not in captured.out


def test_stability_has_no_formulation_flag(capsys):
    # the formulation weighs only the solve report's residual, which
    # stability never prints
    code = main([
        "stability", "--grid", "16", "--u", "0.2*sin(2pi*x)",
        "--class", "1", "0", "--samples", "2", "--formulation", "curved",
    ])
    assert code == 2
    assert "--formulation" in capsys.readouterr().err


def test_stability_ignores_a_config_files_formulation(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("formulation = flat_weighted\n", encoding="utf-8")
    argv = ["--grid", "16", "--u", "0.2*sin(2pi*x)", "--class", "1", "0", "--samples", "2"]
    code, out = run(capsys, "stability", "--config", str(config), *argv)
    assert code == 0
    assert (code, out) == run(capsys, "stability", *argv)


### lie


def test_lie_compare_finds_both_offset_circles(capsys):
    code, out = run(
        capsys, "lie", "--model", "sol3", "--problem", "biharmonic-section",
        "--compare", "--resolution", "4000",
    )
    assert code == 0
    assert "matches the known solution set" in out
    assert "+0.7071" in out and "-0.7071" in out


def test_lie_classify_without_compare_lists_components(capsys):
    code, out = run(
        capsys, "lie", "--model", "su2", "--params", "2,2,1",
        "--problem", "biharmonic-section", "--resolution", "3000",
    )
    assert code == 0
    assert out.count("circle at coordinate 2") == 3
    assert out.count("point (") == 2


def test_lie_full_sphere_family(capsys):
    code, out = run(
        capsys, "lie", "--model", "su2", "--problem", "biharmonic-section",
        "--compare", "--resolution", "2000",
    )
    assert code == 0
    assert "full sphere" in out


def test_lie_sol3_full_problem_compare_is_usage_error(capsys):
    code, _ = run(
        capsys, "lie", "--model", "sol3",
        "--problem", "biharmonic-vector-field", "--compare",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("lie", "--model", "sol3", "--params", "1,2"),
        ("lie", "--model", "su2", "--params", "1,2"),
        ("lie", "--model", "hyperbolic", "--params", "3.5,1"),
        ("lie", "--model", "hyperbolic", "--params", "1,2,3"),
        ("lie", "--model", "su2", "--params", "a,b,c"),
        # an explicit --params with no number is not a request for the defaults
        ("lie", "--model", "su2", "--params", ","),
        ("lie", "--model", "su2", "--params", ""),
        ("lie", "--model", "hyperbolic", "--params", " , "),
        ("lie", "--model", "sol3", "--params", ","),
    ],
)
def test_lie_parameter_validation(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize(
    "model, params",
    [("hyperbolic", "inf,1"), ("hyperbolic", "1e400,1"), ("hyperbolic", "3,inf"), ("su2", "inf,1,1")],
)
def test_lie_rejects_nonfinite_parameters(capsys, model, params):
    # an infinite dimension used to overflow int(); an infinite scale built
    # a model of NaNs that classified as empty
    code = main(["lie", "--model", model, "--params", params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_running_out_of_memory_on_an_input_is_a_usage_error(capsys, monkeypatch):
    # hyperbolic(3000, 1) asks for a 201 GiB connection; the refusal is
    # raised here instead, so the test allocates nothing
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 201. GiB for an array with shape (3000, 3000, 3000)")

    monkeypatch.setattr(cli, "classify", refuse)
    code = main(["lie", "--model", "hyperbolic", "--params", "3,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: Unable to allocate 201. GiB for an array with shape (3000, 3000, 3000)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "family",
    [
        ("--model", "su2"),
        ("--model", "hyperbolic", "--params", "4,1", "--problem", "biharmonic-vector-field"),
    ],
)
@pytest.mark.parametrize("resolution", ["0", "-5"])
@pytest.mark.parametrize("compare", [(), ("--compare",)])
def test_lie_rejects_a_nonpositive_resolution(capsys, family, resolution, compare):
    code = main(["lie", *family, *compare, "--resolution", resolution])
    captured = capsys.readouterr()
    assert code == 2
    assert "resolution" in captured.err
    assert captured.out == ""


### usage errors across the board


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("solve", "--nonsense"),
        ("solve", "--grid", "banana"),
        ("solve", "--grid", "16", "--u", "tan(2pi*x)"),
        ("solve", "--grid", "16", "--u", "0", "--outputs", "csv,exe"),
        ("solve", "--grid", "16", "--u", "0", "--class", "1"),
        ("lie", "--model", "unknown-group"),
        ("energy",),
    ],
)
def test_unusable_input_exits_two(capsys, argv):
    assert main(list(argv)) == 2
    capsys.readouterr()


def _options(command: str) -> dict[str, argparse.Action]:
    subparsers = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {action.dest: action for action in subparsers.choices[command]._actions}


def test_the_command_line_offers_what_the_package_defines():
    lie, solve = _options("lie"), _options("solve")
    assert list(lie["problem"].choices) == [name.replace("_", "-") for name in _PROBLEMS]
    assert list(solve["formulation"].choices) == list(_FORMULATIONS)
    assert list(lie["model"].choices) == list(cli._MODELS)
    assert re.findall(r"\w+", solve["outputs"].help.partition(":")[2]) == list(runio.OUTPUT_KINDS)
    defaults = [(family, ",".join(f"{p:g}" for p in spec[1])) for family, spec in cli._MODELS.items() if spec[1]]
    assert re.findall(r"(\w+) wants [^(]*\(default ([\d.,]+)\)", lie["params"].help) == defaults


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "solve" in out and "verify" in out and "lie" in out


### determinism of the whole pipeline


def test_two_identical_solve_runs_write_identical_bytes(capsys, tmp_path):
    blobs = []
    for name in ("one", "two"):
        outdir = tmp_path / name
        code, _ = run(
            capsys, "solve", "--grid", "16", "--u", "0.2*sin(2pi*x)+0.1*cos(2pi*y)",
            "--class", "1", "1", "--outputs", "csv,pgm,json,quiver",
            "--outdir", str(outdir),
        )
        assert code == 0
        blobs.append(
            {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        )
    assert blobs[0] == blobs[1]


def test_csv_from_cli_reads_back_with_library(capsys, tmp_path):
    outdir = tmp_path / "run"
    run(
        capsys, "solve", "--grid", "16", "--u", "0.2*sin(2pi*x)",
        "--class", "1", "0", "--outputs", "csv", "--outdir", str(outdir),
    )
    cs, theta = read_field_csv(outdir / "field.csv")
    assert (theta.homotopy.m, theta.homotopy.n) == (1, 0)
    assert cs.lattice.shape == (16, 16)
    total = theta.total_samples()
    assert np.all(np.isfinite(total))
