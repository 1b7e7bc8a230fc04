"""The traced benchmark's layer probes run against the package as it is.

``perfbench/layers.py`` is imported only by ``perfbench/run.py --trace 1``,
and it calls the solver, energy, stability and classifier layers by name and
keyword.  Running its probes here makes a renamed or removed name, or a
changed keyword, fail the suite instead of the traced benchmark run.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_probes_run_on_the_public_api(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    import workloads

    workload = workloads.SolveLadder(workloads.Inputs(0), tmp_path)
    workload.probe_grid = "16"
    tally = workloads.Tally()
    tracer = tracing.Tracer(tracing.FftCounter())
    metrics = layers.probe_torus(tracer, tally, workload)
    metrics.update(layers.probe_lie(tracer, tally, workload))
    assert tally.attempted > 0
    assert tally.failures == []
    assert metrics["solver.iterations"] >= 1
    assert metrics["liegroups.matched"] >= 1
