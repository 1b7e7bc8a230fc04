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
import re
from pathlib import Path

import pytest

from torusfield import liegroups
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


def case_argv(model, params, problem, resolution, compare: bool) -> list[str]:
    argv = ["lie", "--model", model, "--problem", problem, "--resolution", str(resolution)]
    if params:
        argv += ["--params", params]
    if compare:
        argv.append("--compare")
    return argv


def render() -> str:
    """Every case as ``$ argv -> exit code`` followed by what it printed."""
    return "".join(capture(case_argv(*case, compare)) for case in CASES for compare in (False, True))


def capture(argv: list[str]) -> str:
    """``$ argv -> exit code`` followed by what the command printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"$ {' '.join(argv)} -> {code}\n{out.getvalue()}{err.getvalue()}"


def test_lie_output_matches_golden_text():
    assert render() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("damping", [1e-7, 1e-10])
def test_lie_text_does_not_sit_on_a_knife_edge_of_the_damping(monkeypatch, damping):
    # criterion 7's comparisons (the first eight cases) and sol3's full
    # bienergy, which has no reference set, print their golden blocks with
    # the Gauss-Newton damping a decade above and two decades below its value
    argvs = [case_argv(*case, compare=True) for case in CASES[:8]]
    argvs.append(case_argv("sol3", None, "biharmonic-vector-field", 4000, compare=False))
    blocks = re.split(r"(?m)^(?=\$ )", GOLDEN.read_text(encoding="utf-8"))
    golden = {block.split(" -> ")[0]: block for block in blocks if block}
    monkeypatch.setattr(liegroups, "_DAMPING", damping)
    for argv in argvs:
        assert capture(argv) == golden["$ " + " ".join(argv)]


def test_split_clusters_print_what_whole_clusters_print(monkeypatch):
    # every cluster cut into two interleaved halves: the fragments of one
    # component must merge back, so the printed classification cannot move
    cases = [
        ["lie", "--model", "su2", "--params", "2,2,1", "--resolution", "4000"],
        ["lie", "--model", "hyperbolic", "--params", "3,1",
         "--problem", "biharmonic-vector-field", "--resolution", "8000"],
        ["lie", "--model", "sol3", "--compare", "--resolution", "4000"],
        # hundreds of fragments of three hyperspheres, and sol3's unresolved clusters
        ["lie", "--model", "hyperbolic", "--params", "4,1",
         "--problem", "biharmonic-vector-field", "--resolution", "8000", "--compare"],
        ["lie", "--model", "sol3", "--problem", "biharmonic-vector-field", "--resolution", "4000"],
    ]
    whole = [capture(argv) for argv in cases]
    cluster_indices = liegroups._cluster_indices

    def halved(points):
        return [half for indices in cluster_indices(points)
                for half in (indices[0::2], indices[1::2]) if len(half)]

    def joined(text):
        # unresolved clusters never join, so each half prints its own line
        lines = text.splitlines(keepends=True)
        return "".join(line for previous, line in zip([""] + lines, lines)
                       if not (line.startswith("  unresolved cluster") and line == previous))

    monkeypatch.setattr(liegroups, "_cluster_indices", halved)
    assert [joined(capture(argv)) for argv in cases] == whole


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
