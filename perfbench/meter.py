"""Step timing in wall seconds and in reference seconds.

The benchmark shares its CPU with other tenants.  On the machine where it
was defined (2 vCPUs of an Intel Xeon virtual machine), steady stretches
alternated with stretches in which the same pure-Python code ran up to 1.8
times slower, each lasting from about a second to tens of seconds, so two
25-second runs of the same code differed by up to 60% in wall time.  A fixed
calibration kernel slows down with the program, so while a workload runs,
a wall-clock timer interrupts it every ``SAMPLE_EVERY_S`` and times the
kernel.  Each measured piece of work between two kernel runs also gets a
time at the kernel's reference speed:

    reference seconds = wall seconds * REFERENCE_S / latest kernel seconds

Kernel runs are cut out of both.  Reference seconds are what
``BENCHMARK.json`` gates; wall seconds are in every report too.  The kernel
is benchmark code and calls nothing of ``splfr``, so a change to the package
moves reference and wall seconds alike.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

#: kernel seconds that make reference seconds equal wall seconds; about the
#: kernel's time on the defining machine in its fast stretches
REFERENCE_S = 0.002
#: interval of the sampling timer: kernel runs take about a tenth of the time
SAMPLE_EVERY_S = 0.02

_EXP = tuple(range(1, 256)) * 2
_LOG = (0,) + tuple(range(255))
_GRID = tuple(
    tuple(None if (i + j) % 3 == 0 else (7 * i + j) % 40 + 1 for j in range(10))
    for i in range(60)
)


def kernel() -> tuple:
    """Fixed pure-Python work in the proportions the package itself uses.

    Modular multiply-accumulates, table-lookup tuple arithmetic, a grid
    scan, exact rationals and dictionary counting, about equal shares.
    """
    acc = 0
    for i in range(5000):
        acc = (acc + (i & 255) * i) % 65521
    vec = tuple(range(64))
    for c in range(1, 121):
        vec = tuple(a ^ (_EXP[_LOG[a] + _LOG[c & 255]] if a else 0) for a in vec)
    hits = 0
    for s in range(1, 16):
        hits += len([(i, j) for i, row in enumerate(_GRID) for j, e in enumerate(row) if e == s])
    best = Fraction(0)
    for i in range(1, 111):
        m = Fraction(i, 7)
        best = max(best, m / (m + 2))
    counts: dict[int, int] = {}
    for x in vec:
        counts[x] = counts.get(x, 0) + 1
    return acc, hits, best, len(counts)


class Meter:
    """Measured segments of work and the kernel samples taken around them.

    The timer's handler and ``segment`` only append to lists, which a signal
    handler cannot interleave with; ``take`` does the accounting afterwards.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of kernel runs
        self.segments: list[tuple[float, float]] = []  # (start, end) of measured work
        self._previous = None

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter()))

    def start(self) -> None:
        """Start sampling the kernel on a wall-clock timer."""
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextmanager
    def segment(self):
        """Measure the enclosed work as part of the current step."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.segments.append((t0, perf_counter()))

    def take(self) -> tuple[float, float]:
        """(wall, reference) seconds of the segments since the last take."""
        if not self.samples:
            self._sample()
        segments, self.segments = self.segments, []
        samples = list(self.samples)
        starts = [s for s, _ in samples]
        wall = ref = 0.0
        for begin, end in segments:
            # kernel runs inside the segment split it into pieces
            i = bisect_left(starts, begin)
            cuts = [(s, e) for s, e in samples[i:] if s < end]
            pos = begin
            for s, e in cuts + [(end, end)]:
                piece = max(0.0, s - pos)
                # the latest kernel run that ended before the piece began
                j = max(0, bisect_left(starts, pos) - 1)
                k0, k1 = samples[j]
                wall += piece
                ref += piece * REFERENCE_S / (k1 - k0)
                pos = max(pos, e)
        # keep the newest sample, which the next segments may need
        del self.samples[: max(0, len(samples) - 1)]
        return wall, ref
