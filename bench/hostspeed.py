"""Host speed, sampled while the workload runs, to scale wall time to a
reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by
a third within a second and drifts by up to 2x over minutes; CPU time
moves with it, so neither wall nor CPU time of one run says how fast the
program is.  A `Calibrator` measures the host instead: every `PERIOD_S`
of process CPU time, a SIGPROF handler runs a fixed reference kernel
(`reference`) and records how long it took.  The kernel does what the
program does most, exact arithmetic on dict-of-monomial polynomials, in
pure Python, so a host state that slows the program slows the kernel by
about as much.  The handler's own time is kept apart (`paused`), so the
program's time is measured without it.

`scale(samples)` turns the kernel's mean time over a stretch of the run
into the factor that maps seconds measured there to seconds at the
reference speed (`REFERENCE_S` per kernel call).  The kernel is the
benchmark's own code and never changes with the program, so a program
that does less work reads proportionally faster after scaling.

The same handler enforces an invocation's budget in reference seconds
(`arm`), so an abandoned invocation gets about equally far on a busy host
and an idle one.
"""
from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Process CPU seconds between two samples, and the kernel's time at the
# reference speed (about its time on the 2-vCPU host the benchmark was
# tuned on, where it takes 0.5-1.1 ms).  REFERENCE_S only sets the unit of
# the scaled times; it cancels from every comparison between two runs.
PERIOD_S = 0.05
REFERENCE_S = 0.001

_TERMS = [((i % 3, i % 4, i // 4), Fraction(i + 1, 2 * i + 3))
          for i in range(12)]


class OverBudget(BaseException):
    """Raised by a signal handler inside an invocation that ran out of
    budget; a BaseException so that no `except Exception` in the program
    absorbs it."""


def reference() -> int:
    """Fixed work: square a 12-term polynomial with rational coefficients
    and sum the result's coefficients."""
    acc = {}
    for a, x in _TERMS:
        for b, y in _TERMS:
            k = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            acc[k] = acc.get(k, 0) + x * y
    return sum(acc.values()).denominator


def scale(samples) -> float:
    """Factor from seconds measured while `samples` were taken to seconds
    at the reference speed."""
    return REFERENCE_S / statistics.mean(samples)


class Calibrator:
    """Samples the reference kernel on SIGPROF while installed."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        self._previous = None
        self._budget = None
        self._start = None

    def sample(self):
        """Time one kernel call; the time this takes goes to `paused`."""
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        try:
            t1 = perf_counter()
            reference()
            self.samples.append(perf_counter() - t1)
        finally:
            if enabled:
                gc.enable()
            self.paused += perf_counter() - t0

    def _on_signal(self, signum, frame):
        self.sample()
        if self._budget is not None and self._elapsed() >= self._budget:
            self._budget = None
            raise OverBudget

    def arm(self, budget: float):
        """Start timing an invocation; the handler raises OverBudget once
        it has run `budget` seconds at the reference speed."""
        self._start = (perf_counter(), self.paused, len(self.samples))
        self._budget = budget

    def disarm(self):
        self._budget = None

    def _elapsed(self) -> float:
        """Seconds since `arm`, without the handler's time, at the
        reference speed of the samples taken since."""
        t0, paused, first = self._start
        return (perf_counter() - t0 - (self.paused - paused)) \
            * scale(self.samples[first:])

    def install(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
