"""The README's `solve` and `energy` examples print what the commands print,
and its `verify` and `stability` examples the same lines and verdicts."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from torusfield.cli import _VERIFY_CHECKS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_sessions(*commands: str) -> list[tuple[list[str], list[str]]]:
    """The README's ``$ torusfield <command> ...`` examples of the given
    commands, in order: each one's argv and the lines shown after it."""
    sessions = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        first, *shown = block.splitlines()
        if first.startswith("$ torusfield "):
            argv = shlex.split(first.removeprefix("$ torusfield "))
            if argv[0] in commands:
                sessions.append((argv, shown))
    return sessions


def test_solve_then_energy_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    # the energy example reads the field.csv that the first solve example writes
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TORUSFIELD_OUTDIR", raising=False)
    sessions = readme_sessions("solve", "energy")
    assert [argv[0] for argv, _ in sessions] == ["solve", "solve", "energy"]
    for argv, shown in sessions:
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == shown


def test_readme_solve_example_is_the_class_1_0_solve():
    argv, shown = readme_sessions("solve")[0]
    assert argv[argv.index("--class") + 1:argv.index("--class") + 3] == ["1", "0"]
    assert shown[0] == "class (1, 0): 10 iterations, relative residual 9.672e-11, bienergy 1376.90409514"


def test_verify_prints_the_checks_the_readme_shows(capsys):
    # the variation gaps sit at roundoff, so lines are compared by name and verdict
    [(argv, shown)] = readme_sessions("verify")
    assert main(argv) == 0
    expected = [f"PASS {name}" for name, _ in _VERIFY_CHECKS] + [f"all {len(_VERIFY_CHECKS)} checks passed"]
    for lines in (capsys.readouterr().out.splitlines(), shown):
        assert [line.split(":")[0] for line in lines] == expected


def test_stability_passes_every_direction_the_readme_shows(capsys):
    [(argv, shown)] = readme_sessions("stability")
    assert main(argv) == 0
    samples = int(argv[argv.index("--samples") + 1])
    expected = [f"PASS direction {index}" for index in range(samples)]
    expected.append(f"second variation nonnegative and both variations matched on all {samples} directions")
    for lines in (capsys.readouterr().out.splitlines(), shown):
        assert [line.split(":")[0] for line in lines] == expected
