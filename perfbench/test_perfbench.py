"""Tests of the benchmark's own machinery: ``python3 -m pytest perfbench``."""

import statistics
import time

import numpy as np
import pytest

import speed
import workloads
from run import describe
from torusfield import LatticeSpec, flat_laplacian, parse_exponent
from tracing import FftCounter, Tracer


def test_counter_sees_two_transforms_per_flat_laplacian():
    field = parse_exponent(workloads.Inputs(0).standard, LatticeSpec.unit_square(16))
    original = np.fft.fft2
    with FftCounter() as counter:
        flat_laplacian(field)
        assert counter.count == 2
    assert np.fft.fft2 is original


def test_spans_nest_and_count_their_own_transforms():
    field = parse_exponent("0.1*sin(2pi*x)", LatticeSpec.unit_square(8))
    counter = FftCounter()
    tracer = Tracer(counter)
    with counter:
        with tracer.span("outer"):
            with tracer.span("inner"):
                flat_laplacian(field)
            flat_laplacian(field)
        with tracer.span("next"):
            pass
    outer, inner, following = (tracer.named(n)[0] for n in ("outer", "inner", "next"))
    assert inner.parent == outer.id and outer.parent is None
    assert inner.job == outer.job != following.job
    assert (outer.ffts, inner.ffts, following.ffts) == (4, 2, 0)


def test_seed_zero_gives_the_fixed_exponents():
    inputs = workloads.Inputs(0)
    assert inputs.standard == "0.2*sin(2pi*x)+0.1*cos(2pi*y)"
    assert inputs.strong == "0.4*sin(2pi*x)+0.2*cos(2pi*y)"


@pytest.mark.parametrize("seed", [1, 7, 123])
def test_other_seeds_translate_the_exponents(seed):
    inputs = workloads.Inputs(seed)
    assert inputs.standard == workloads.Inputs(seed).standard
    assert inputs.standard != workloads.Inputs(seed + 1).standard
    lattice = LatticeSpec.unit_square(32)
    x, y = lattice.fractional_coords
    shift = np.random.default_rng(seed).random((2, 2))[0]
    expected = 0.2 * np.sin(2 * np.pi * (x - shift[0])) + 0.1 * np.cos(2 * np.pi * (y - shift[1]))
    assert np.allclose(parse_exponent(inputs.standard, lattice).values, expected, atol=1e-15)


def test_percentile_keeps_ten_samples_above_it():
    assert describe([1.0] * 10) == "median 1 s n 10"
    assert describe([float(i) for i in range(1, 21)]) == "median 10.5 s p50 10 s n 20"


def test_clock_samples_host_speed_during_jobs():
    clock = speed.Clock({"quick": "grid64", "slow": "tensor"})
    interval = speed.KERNELS["tensor"][2]
    for _ in range(2):
        clock.new_round()
        with clock.job("quick"):
            pass
        with clock.job("slow"):
            busy_until = time.perf_counter() + 2.5 * interval
            while time.perf_counter() < busy_until:
                pass
    # the quick job ends before its first alarm and is sampled once after it
    assert len(clock.samples["quick"]) == 1
    assert len(clock.samples["slow"]) >= 3
    # the time spent sampling is not the job's
    assert all(t < 2.5 * interval * 1.05 for t in clock.rounds["slow"])
    scale = speed.KERNELS["tensor"][1] / statistics.fmean(clock.samples["slow"])
    expected = statistics.fmean(clock.rounds["slow"]) * scale
    assert clock.nominal()["slow"] == pytest.approx(expected)


def test_share_splits_a_job_among_repeats():
    clock = speed.Clock({"solve": "grid64"})
    clock.new_round()
    for _ in range(4):
        with clock.job("solve", share=0.25):
            time.sleep(0.01)
    assert 0.01 <= clock.rounds["solve"][0] < 0.02


def test_reference_kernels_are_not_counted_as_package_transforms():
    with FftCounter() as counter:
        for kernel in speed.KERNELS:
            speed.reference_seconds(kernel)
    assert counter.count == 0
