"""Deterministic discrete-event kernel.

The whole simulator is driven by one :class:`EventQueue`. Events at the same
timestamp fire in insertion order (a monotonically increasing sequence number
breaks ties), which makes every simulation fully deterministic.

Hot-path layout: the heap holds plain ``(time, seq, callback, arg)`` tuples
and firing one is ``callback(arg)`` — no per-event object, no ``partial``.
Ordering is C-level integer-tuple comparison (``seq`` is unique, so the
callback is never compared).  :meth:`EventQueue.drain` is the tight
pop-and-fire loop the simulator runs in; :meth:`step` remains as the
single-step API for tests and drivers.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError


class EventQueue:
    """A time-ordered queue of callbacks with a current-time cursor."""

    def __init__(self) -> None:
        self._heap: list = []  # (time, seq, callback, arg) entries
        self._seq = 0
        self._now = 0
        self._executed = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def executed(self) -> int:
        """Number of events executed so far (useful for runaway detection)."""
        return self._executed

    def schedule(self, delay: int, callback: Callable[[Any], None],
                 arg: Any = None) -> None:
        """Schedule ``callback(arg)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, callback, arg))

    def schedule_at(self, time: int, callback: Callable[[Any], None],
                    arg: Any = None) -> None:
        """Schedule ``callback(arg)`` at absolute ``time`` (>= now).

        Pushes onto the heap itself rather than calling :meth:`schedule`:
        every network message lands here, so the saved frame counts.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, "
                f"now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, arg))

    def close(self) -> None:
        """Drop every pending event (their callbacks are bound to the
        objects that scheduled them).  The clock and executed count stay
        readable; idempotent."""
        self._heap.clear()

    def empty(self) -> bool:
        """True when no events remain."""
        return not self._heap

    def step(self) -> bool:
        """Execute the next event. Return False if none left."""
        if not self._heap:
            return False
        time, _seq, callback, arg = heapq.heappop(self._heap)
        self._now = time
        self._executed += 1
        callback(arg)
        return True

    def drain(self, max_events: Optional[int] = None) -> int:
        """Pop-and-fire until the queue is exhausted; the simulator's loop.

        Executes at most ``max_events`` events (None = unlimited) and
        returns how many ran.  This is :meth:`step` folded inline: one
        C-level heappop per event, no per-event method call, with the
        ``now``/``executed`` cursors kept live for callbacks that read them.
        """
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        limit = max_events if max_events is not None else -1
        while heap and executed != limit:
            time, _seq, callback, arg = pop(heap)
            self._now = time
            self._executed += 1
            executed += 1
            callback(arg)
        return executed

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` cycles pass, or
        ``max_events`` events execute (whichever comes first).

        ``until`` may not lie before :attr:`now`: the clock never moves
        backwards."""
        if until is None:
            self.drain(max_events)
            return
        if until < self._now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self._now}")
        executed = 0
        heap = self._heap
        while heap:
            if heap[0][0] > until:
                self._now = until
                return
            if max_events is not None and executed >= max_events:
                return
            self.step()
            executed += 1
