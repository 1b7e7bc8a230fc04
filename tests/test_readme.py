"""The README's `solve` and `energy` examples print what the commands print,
its `verify` and `stability` examples the same lines and verdicts, its
exponent examples and config keys are the ones the parsers read, and its
library examples run against the package's façade."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import torusfield
from torusfield.cli import _VERIFY_CHECKS, main
from torusfield.io import _CONFIG_KEYS, parse_exponent
from torusfield.lattice import LatticeSpec

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


def _backticked(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def test_readme_exponent_examples_read_as_the_grammar_section_says():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## The exponent grammar"):text.index("## Output formats")]
    paragraph = lambda opening: section[section.index(opening):].split("\n\n")[0]
    lattice = LatticeSpec((1.0, 0.1), (0.35, 0.9), 8, 6)
    examples = _backticked(paragraph("Examples:"))
    assert len(examples) == 5
    for example in examples:
        parse_exponent(example, lattice)
    for rejected in _backticked(paragraph("Anything else is rejected")):
        with pytest.raises(ValueError):
            parse_exponent(rejected, lattice)
    # "`A` is `B`": equal fields; a bracketed A is a trig argument
    pairs = re.findall(r"`([^`]+)`\s+(?:is|reads as)\s+`([^`]+)`", section)
    assert len(pairs) == 5
    for pair in pairs:
        left, right = (f"sin(2pi*{t})" if t.startswith("(") else t for t in pair)
        values = [parse_exponent(side, lattice).values for side in (left, right)]
        assert np.array_equal(*values)


def test_readme_config_keys_are_the_key_table_in_order():
    readme = README.read_text(encoding="utf-8")
    listed = re.search(r"Keys are the same words as the flags \(([^)]*)\)", readme)
    assert _backticked(listed.group(1)) == [key for key, *_ in _CONFIG_KEYS]


def test_library_examples_run_on_the_facade(capsys):
    # the second block reuses the first block's ``tf``, as a reader's session would
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):text.index("## Conventions")]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    assert len(blocks) == 2
    used = set(re.findall(r"\btf\.(\w+)", "".join(blocks)))
    assert used <= set(torusfield.__all__)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    residual, energy = map(float, capsys.readouterr().out.split())
    assert 0.0 < residual <= 1e-10 and energy > 0.0
    assert namespace["report"].final_relative_residual <= 1e-10
    assert namespace["theta"].homotopy == namespace["tf"].HomotopyClass(1, 0)
