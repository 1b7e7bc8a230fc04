"""The torusfield benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` repeats rounds of the workload's jobs for about
``--seconds`` seconds and reports the end-to-end metrics of
``BENCHMARK.json``, times at nominal host speed (``speed.py``).
``--trace 1`` runs untraced and traced rounds in turn, then the per-layer
probes (``layers.py``), reports the per-layer metrics and writes its spans
to ``.perfbench_out/``.  Every operation's output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark's own processes run BLAS and OpenMP with one thread.
"""

import os

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# before numpy is first imported, here and in every child
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: fresh-interpreter set-ups before the first round and after each round;
#: their median is setup_s
SETUP_PER_ROUND = 2
#: rounds per untraced run, however long a round takes
MIN_ROUNDS = 2
#: untraced and traced rounds of a traced run, taken in turn
OVERHEAD_PAIRS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="torusfield benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import torusfield from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](workloads.Inputs(args.seed), workdir)
    tally = workloads.Tally()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    try:
        if args.trace:
            values, listed = traced(args, workload, tally), spec["per_layer"]
        else:
            values, listed = untraced(args, workload, tally), spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in tally.failures:
        print(f"FAILED {failure}")
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def untraced(args, workload, tally) -> dict[str, float]:
    from speed import Clock
    from tracing import NullTracer

    tracer = NullTracer()
    workload.setup(tracer)
    # set-ups run between rounds too, so that their median, like the rounds,
    # meets the host speed of the whole run
    setup = measure_setup(args.workload, args.seed, trace=False, repeats=SETUP_PER_ROUND)
    clock = Clock(workload.kind_kernels())
    walls = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        clock.new_round()
        workload.round(tracer, clock, tally)
        setup += measure_setup(args.workload, args.seed, trace=False, repeats=SETUP_PER_ROUND)
        walls.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        # another round may overrun the measuring time by half a round, so
        # that runs measure --seconds on average
        if len(walls) >= MIN_ROUNDS and elapsed + statistics.mean(walls) / 2 > args.seconds:
            break
    print(f"rounds {len(walls)} and set-ups {len(setup)} in {elapsed:.3f} s")
    kinds = report_jobs(workload, clock)
    return {
        "setup_s": statistics.median(setup),
        "round_s": sum(kinds.values()),
        "kinds_geomean_s": geomean(kinds.values()),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(args, workload, tally) -> dict[str, float]:
    import layers
    from speed import Clock
    from tracing import FftCounter, NullTracer, Tracer

    setup_plain = measure_setup(args.workload, args.seed, trace=False, repeats=3)
    setup_traced = measure_setup(args.workload, args.seed, trace=True, repeats=3)
    workload.setup(NullTracer())
    counter = FftCounter()
    tracer = Tracer(counter)
    # alternate untraced and traced rounds, so that drift in host speed
    # weighs on both sides of the overhead alike
    plain, with_spans = Clock(workload.kind_kernels()), Clock(workload.kind_kernels())
    for index in range(OVERHEAD_PAIRS):
        plain.new_round()
        workload.round(NullTracer(), plain, tally)
        if index == 0:
            rss_plain = peak_rss_mb()
        with_spans.new_round()
        with counter:
            ffts = counter.count
            workload.round(tracer, with_spans, tally)
            ffts_per_round = counter.count - ffts
        rss_traced = peak_rss_mb()

    with counter:
        values = layers.probe_torus(tracer, tally, workload)
        values.update(layers.probe_lie(tracer, tally, workload))
    kinds_traced = report_jobs(workload, with_spans)
    kinds_plain = plain.nominal()
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    values.update({
        "fft.transforms_per_round": ffts_per_round,
        "ops_failed": tally.failed,
        "trace.overhead_setup_s": statistics.median(setup_traced) - statistics.median(setup_plain),
        "trace.overhead_round_s": sum(kinds_traced.values()) - sum(kinds_plain.values()),
        "trace.overhead_geomean_s": geomean(kinds_traced.values()) - geomean(kinds_plain.values()),
        "trace.overhead_rss_mb": rss_traced - rss_plain,
    })
    return values


def measure_setup(name: str, seed: int, trace: bool, repeats: int) -> list[float]:
    """Set-up times of ``repeats`` fresh interpreters, run one at a time,
    each at nominal host speed by the reference kernel timed in that child."""
    samples = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed), str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.strip()[-500:]}")
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def geomean(values) -> float:
    """Geometric mean: a regression of the cheapest job kind moves it as
    much as one of the dearest."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def report_jobs(workload, clock) -> dict[str, float]:
    """Print each kind's measured and nominal times; returns ``clock.nominal()``."""
    from speed import KERNELS

    kinds = clock.nominal()
    for kernel, mean_ms in clock.reference_ms().items():
        print(f"reference kernel {kernel} mean {mean_ms:.4g} ms (nominal {KERNELS[kernel][1] * 1e3:.4g} ms)")
    for kind in workload.kinds:
        line = (
            f"job {kind} nominal {kinds[kind]:.6g} s measured {describe(clock.rounds[kind])}"
            f" kernel samples {len(clock.samples[kind])}"
        )
        if kind in workload.iterations:
            line += f" iterations {workload.iterations[kind]}"
        print(line)
    return kinds


def describe(samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    text = f"median {statistics.median(ordered):.6g} s"
    if len(ordered) > 10:
        rank = len(ordered) - 11
        text += f" p{100 * (rank + 1) // len(ordered)} {ordered[rank]:.6g} s"
    return text + f" n {len(ordered)}"


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = cache_sizes()
    largest_mb = 256 * 256 * 16 / 2**20
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
        "fft_threads": "numpy.fft runs on one thread",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "caches": caches,
        "seed": seed,
        "note": (
            f"the largest array, one 256x256 complex spectrum, is {largest_mb:.0f} MB; "
            f"all arrays fit in the {caches.get('L3', '?')} L3, so bytes moved are "
            "computed from array sizes, not measured bandwidth"
        ),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


if __name__ == "__main__":
    sys.exit(main())
