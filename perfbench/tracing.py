"""Spans and transform counts recorded around the benchmark's calls.

Spans stay in memory and are written out once, when the run ends.  The
transform counter wraps every ``numpy.fft`` transform entry point, so it
counts the transforms torusfield performs without any change to the
package: the package looks ``np.fft.<name>`` up at call time.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: every transform numpy.fft offers; helpers such as fftfreq are not counted
FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
)


class FftCounter:
    """Counts calls of the ``numpy.fft`` transforms while installed."""

    def __init__(self) -> None:
        self.count = 0
        self._originals: dict[str, object] = {}

    def install(self) -> None:
        if self._originals:
            return
        for name in FFT_ENTRY_POINTS:
            original = getattr(np.fft, name)
            self._originals[name] = original
            setattr(np.fft, name, self._wrap(original))

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(np.fft, name, original)
        self._originals.clear()

    def _wrap(self, original):
        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        return counted

    def __enter__(self) -> "FftCounter":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "end", "ffts", "attrs")

    def __init__(self, span_id, parent, job, name):
        self.id, self.parent, self.job, self.name = span_id, parent, job, name
        self.start, self.end, self.ffts, self.attrs = 0.0, 0.0, 0, {}

    def note(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "job": self.job, "name": self.name,
            "start": self.start, "end": self.end, "ffts": self.ffts, **self.attrs,
        }


class Tracer:
    """Records nested spans with the transforms each one covers.

    A span opened inside another records it as parent; spans of one job
    share the job identifier of the outermost span.
    """

    def __init__(self, counter: FftCounter) -> None:
        self.counter = counter
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._jobs = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        job = parent.job if parent else next(self._jobs)
        record = Span(next(self._ids), parent.id if parent else None, job, name)
        record.attrs.update(attrs)
        self._stack.append(record)
        ffts = self.counter.count
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            record.ffts = self.counter.count - ffts
            self._stack.pop()
            self.spans.append(record)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: s.id)
        path.write_text(json.dumps([s.as_dict() for s in ordered], indent=1) + "\n")


class _NullSpan:
    def note(self, **attrs) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    _span = _NullSpan()

    def span(self, name: str, **attrs):
        return self._span
