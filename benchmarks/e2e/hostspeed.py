"""Host speed, sampled with a fixed reference loop while work is timed.

The benchmark shares its host with other work, which slows every
instruction by up to 1.7x for seconds at a time; CPU time slows just as
much as wall time, so neither cancels it.  Each host time the benchmark
reports is therefore in *reference seconds*: how long the work would take
on a host where a fixed pure-Python reference loop takes its nominal time
(``SAMPLE_S``; a quiet 2-vCPU x86-64 cloud host under CPython 3.11 takes
about that long).

Timed work runs while a :class:`Sampler` is active: a timer signal every
``INTERVAL_S`` runs the reference loop in the middle of the work, so the
samples live through the same slow spells as the work.  With
``speed_i = SAMPLE_S / sample_i`` the host's speed at each sample::

    reference seconds = (measured seconds - sampling time) * mean(speed_i)

Samples are evenly spaced in time and the work done in an interval is its
length times the host's speed, so the plain mean of the speeds converts
elapsed time into work.  A change to the simulator moves reference
seconds exactly as it moves measured seconds; a slower or busier host
moves neither much.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Nominal reference-loop time: where the loop takes this long, reference
#: seconds equal host seconds.
SAMPLE_S = 0.002
#: Loop length, chosen so one loop takes about ``SAMPLE_S``.
_ITERATIONS = 3_200
#: Seconds between two samples.  Sampling costs about
#: ``SAMPLE_S / INTERVAL_S`` (4%) of the timed work, and reference seconds
#: leave it out.
INTERVAL_S = 0.05


def _loop() -> float:
    """One reference loop: heap, dict and tuple work of the same kind as
    the simulator's event loop."""
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(_ITERATIONS):
        push(heap, ((i * 7919) & 4095, i))
        if len(heap) > 64:
            when, seq = pop(heap)
            table[seq & 1023] = table.get(when & 1023, 0) + 1
    return time.perf_counter() - start


class Sampler:
    """Host speed sampled between :meth:`start` and :meth:`stop` (or
    during a ``with`` block).

    Owns ``SIGALRM`` while active; the benchmarked program uses no
    signals."""

    def __init__(self) -> None:
        #: Seconds of each sample loop.
        self.samples: list = []
        #: Seconds spent sampling, signal handling included.
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append(_loop())
        self.spent += time.perf_counter() - start

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # Work shorter than one interval: sample right after it.
            self.samples.append(_loop())

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def speed(self) -> float:
        """Mean host speed while sampling, 1.0 where the loop takes its
        nominal time."""
        return statistics.fmean(SAMPLE_S / s for s in self.samples)

    def to_reference(self, seconds: float) -> float:
        """``seconds`` timed while sampling, in reference seconds."""
        return to_reference(seconds, self.speed, self.spent)


def to_reference(seconds: float, speed: float, spent: float) -> float:
    """``seconds`` measured while the host ran at mean ``speed``, of which
    ``spent`` went to sampling, in reference seconds."""
    return (seconds - spent) * speed
