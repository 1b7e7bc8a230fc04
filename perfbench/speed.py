"""Host speed, sampled during jobs with fixed reference kernels.

On a shared host the same solve can run half again as slow from one minute
to the next, and CPU time grows with wall time, so neither tells a slower
program from a slower host.  A small fixed kernel of the work a job spends
its time on, timed while the job runs, measures the host's speed at that
moment.  ``Clock`` interrupts each job with ``SIGALRM`` at a fixed interval
of job time and runs the job's kernel in the handler; the handler's time is
taken out of the job's.  Since the samples fall uniformly in job time, the
job time over the mean kernel time cancels the host speed however it moves
within the run, and the job's time at nominal host speed is its measured
time times the kernel's nominal time over the kernel's mean.  The kernels
are plain NumPy, bound before any transform counter is installed, so
neither changes to torusfield nor tracing move them.

The kernels resemble the jobs, because host interference slows small and
large transforms and small batched tensor work unequally: ``grid64`` and
``grid256`` run conjugate-gradient iterations of a spectral fourth-order
operator with a conformal weight, as the solver does, at 64^2 and 256^2;
``tensor`` runs batched einsum contractions and pseudo-inverses of small
matrices, as in the classifier's Gauss-Newton.  Tracking 256^2 solves with
the 64^2 kernel spread them 0.08 over 20 s windows, with the 256^2 kernel
0.02.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from functools import cache

import numpy as np
from numpy.fft import fft2, ifft2

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((2000, 3))
_CONNECTION = _rng.standard_normal((3, 3, 3))
_STACKS = _rng.standard_normal((300, 4, 3))


@cache
def _conjugate_gradients(n: int):
    """Iterations of preconditioned CG for ``L(L h) - div(k grad h)`` on an
    ``n``-by-``n`` unit torus, with a weight ``exp(2u)`` in every derivative."""
    p = np.fft.fftfreq(n, 1.0 / n)
    p[n // 2] = 0.0
    kx = 2j * np.pi * p[:, None] * np.ones((1, n))
    ky = 2j * np.pi * p[None, :] * np.ones((n, 1))
    s = np.arange(n) / n
    u = 0.2 * np.sin(2 * np.pi * s)[:, None] + 0.1 * np.cos(2 * np.pi * s)[None, :]
    e2u, em2u = np.exp(2 * u), np.exp(-2 * u)
    k = 1.0 + 0.5 * np.cos(2 * np.pi * s)[:, None] * np.ones((1, n))
    lap = -(kx * kx + ky * ky).real
    inverse = np.where(lap == 0.0, 0.0, 1.0 / np.where(lap == 0.0, 1.0, lap) ** 2)
    ones = np.ones((n, n))

    def grad(f):
        spectrum = fft2(f)
        return e2u * ifft2(kx * spectrum).real, e2u * ifft2(ky * spectrum).real

    def div(a, b):
        return e2u * ifft2(kx * fft2(em2u * a) + ky * fft2(em2u * b)).real

    def laplacian(f):
        return -div(*grad(f))

    def apply(h):
        gx, gy = grad(h)
        return laplacian(laplacian(h)) - div(k * gx, k * gy)

    def inner(x, y):
        return float(np.sum(x * y * em2u))

    def project(x):
        return x - inner(x, ones) / inner(ones, ones)

    def precondition(x):
        return e2u * ifft2(inverse * fft2(x)).real

    b = project(np.sin(2 * np.pi * s)[:, None] * np.cos(4 * np.pi * s)[None, :] + k)

    def kernel(iterations: int) -> tuple:
        x = np.zeros_like(b)
        r = b.copy()
        z = project(precondition(r))
        d = z.copy()
        rz = inner(r, z)
        for _ in range(iterations):
            ad = apply(d)
            step = rz / inner(d, ad)
            x += step * d
            r = project(r - step * ad)
            z = project(precondition(r))
            rz_next = inner(r, z)
            d = z + (rz_next / rz) * d
            rz = rz_next
        return (x,)

    return kernel


def _tensor_kernel() -> tuple:
    v = _POINTS
    for _ in range(3):
        dv = np.einsum("...m,iml->...il", v, _CONNECTION)
        v = np.einsum("iim,...ml->...l", _CONNECTION, dv) - np.einsum("...im,iml->...l", dv, _CONNECTION)
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return v, np.linalg.pinv(_STACKS)


#: kernel, a typical time of it on the host the benchmark was built on
#: (2-vCPU Intel Xeon, Python 3.11, NumPy 2.4), so that nominal times read
#: like seconds there, and the job time between two samples of it (a
#: twelfth or less of a job's time goes to the kernel); the nominal times
#: are in the ratio of the kernels' times measured in turn, so the kernels
#: share one host speed
KERNELS = {
    "grid64": (lambda: _conjugate_gradients(64)(3), 5.0e-3, 0.1),
    "grid256": (lambda: _conjugate_gradients(256)(1), 41.0e-3, 0.5),
    "tensor": (_tensor_kernel, 4.9e-3, 0.1),
}


def reference_seconds(kernel: str) -> float:
    """Time of one run of a reference kernel."""
    work = KERNELS[kernel][0]
    started = time.perf_counter()
    results = work()
    elapsed = time.perf_counter() - started
    if not all(np.isfinite(r).all() for r in results):
        raise FloatingPointError(f"reference kernel {kernel!r} produced non-finite values")
    return elapsed


def speed_scale(samples: list[float], kernel: str) -> float:
    """Factor that takes times measured alongside ``samples`` to nominal speed."""
    return KERNELS[kernel][1] / statistics.fmean(samples)


class Clock:
    """Times jobs by kind over a run's rounds and samples the host speed
    during them, each kind with its own kernel (``kernels``)."""

    def __init__(self, kernels: dict[str, str]) -> None:
        self.kernels = kernels
        #: per kind, its time in each round
        self.rounds: dict[str, list[float]] = {kind: [] for kind in kernels}
        #: per kind, the kernel times sampled during its jobs
        self.samples: dict[str, list[float]] = {kind: [] for kind in kernels}
        self._active: str | None = None
        self._in_handler = 0.0
        self._remaining = {kind: KERNELS[k][2] for kind, k in kernels.items()}
        for kernel in set(kernels.values()):
            reference_seconds(kernel)  # builds the kernel's operator
        # installed for good: an alarm still pending after a job must not
        # meet the default action, which ends the process
        signal.signal(signal.SIGALRM, self._sample)

    def new_round(self) -> None:
        for times in self.rounds.values():
            times.append(0.0)

    @contextmanager
    def job(self, kind: str, share: float = 1.0):
        """Time one job of ``kind``; ``share`` of its time adds to the
        current round's."""
        handled = self._in_handler
        self._active = kind
        signal.setitimer(signal.ITIMER_REAL, self._remaining[kind])
        started = time.perf_counter()
        try:
            yield
        finally:
            remaining = signal.setitimer(signal.ITIMER_REAL, 0)[0]
            elapsed = time.perf_counter() - started
            self._active = None
            self._remaining[kind] = remaining or KERNELS[self.kernels[kind]][2]
        self.rounds[kind][-1] += share * (elapsed - (self._in_handler - handled))
        if not self.samples[kind]:
            self.samples[kind].append(reference_seconds(self.kernels[kind]))

    def _sample(self, signum, frame) -> None:
        kind = self._active
        if kind is None:
            return
        started = time.perf_counter()
        kernel = self.kernels[kind]
        self.samples[kind].append(reference_seconds(kernel))
        self._in_handler += time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, KERNELS[kernel][2])

    def nominal(self) -> dict[str, float]:
        """Each kind's mean time per round at nominal host speed: its total
        job time over the run times the kernel's nominal over its mean."""
        return {
            kind: statistics.fmean(times) * speed_scale(self.samples[kind], self.kernels[kind])
            for kind, times in self.rounds.items()
        }

    def reference_ms(self) -> dict[str, float]:
        """Mean sampled time of each kernel in use, in ms."""
        pooled: dict[str, list[float]] = {}
        for kind, samples in self.samples.items():
            pooled.setdefault(self.kernels[kind], []).extend(samples)
        return {kernel: 1e3 * statistics.fmean(s) for kernel, s in pooled.items() if s}

