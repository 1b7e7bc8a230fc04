"""Golden text of ``torusfield lie`` and ``lie --compare``.

Pins the printed classification of the eight model-group cases of
acceptance criterion 7, plus ``sol3`` and the triaxial ``su2(2, 1.5, 1)``
on the full bienergy and the harmonic-section problems: the same
components in the same order, with the same kinds, axes, values and local
dimensions.  Regenerate with ``python tests/test_lie_golden.py``, after
checking that a change of the text is intended.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from torusfield.cli import main

GOLDEN = Path(__file__).parent / "golden" / "lie.txt"

CASES = [
    ("su2", "1,1,1", "biharmonic-section", 3000),
    ("su2", "2,2,1", "biharmonic-section", 4000),
    ("su2", "2,1,1", "biharmonic-section", 4000),
    ("su2", "2,1.5,1", "biharmonic-section", 4000),
    ("sol3", None, "biharmonic-section", 4000),
    ("hyperbolic", "3,1", "biharmonic-vector-field", 8000),
    ("hyperbolic", "4,1", "biharmonic-vector-field", 8000),
    ("hyperbolic", "3,2", "biharmonic-vector-field", 4000),
    ("sol3", None, "biharmonic-vector-field", 4000),
    ("sol3", None, "harmonic-section", 4000),
    ("su2", "2,1.5,1", "biharmonic-vector-field", 4000),
    ("su2", "2,1.5,1", "harmonic-section", 4000),
]


def render() -> str:
    """Every case as ``$ argv -> exit code`` followed by what it printed."""
    lines = []
    for model, params, problem, resolution in CASES:
        for compare in (False, True):
            argv = ["lie", "--model", model, "--problem", problem, "--resolution", str(resolution)]
            if params:
                argv += ["--params", params]
            if compare:
                argv.append("--compare")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            lines.append(f"$ {' '.join(argv)} -> {code}\n{out.getvalue()}{err.getvalue()}")
    return "".join(lines)


def test_lie_output_matches_golden_text():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
