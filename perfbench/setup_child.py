"""One set-up in a fresh interpreter: ``setup_child.py WORKLOAD SEED TRACE``.

Times, from this script's first statement, importing torusfield, realizing
every geometry or model the workload uses and filling their lazy caches --
the cost a command-line user pays on every call -- then scales it to nominal
host speed by the reference kernel of ``speed.py`` timed right after.
Prints ``{"setup_s": ...}``.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

#: reference kernels timed after the set-up; their median sets the scale
REFERENCE_SAMPLES = 9


def main() -> int:
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    import workloads
    from tracing import FftCounter, NullTracer, Tracer

    counter = FftCounter()
    if trace:
        counter.install()
    tracer = Tracer(counter) if trace else NullTracer()
    workload = workloads.WORKLOADS[name](workloads.Inputs(seed), None)
    workload.setup(tracer)
    elapsed = time.perf_counter() - STARTED
    counter.uninstall()

    from speed import reference_seconds, speed_scale

    kernel = workload.speed_kernel
    reference_seconds(kernel)  # the first call pays for the transform plans
    scale = speed_scale([reference_seconds(kernel) for _ in range(REFERENCE_SAMPLES)], kernel)
    print(json.dumps({"setup_s": elapsed * scale}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
