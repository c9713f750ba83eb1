"""In-order core model.

One outstanding memory operation; COMPUTE ops advance local time; the core
blocks on every load/store until it is globally performed — the Table II
"in-order CPU" configuration the paper's primary results use.

A core executes a *thread program*: a generator yielding :class:`Op` values
and receiving each op's result back (see :mod:`repro.cpu.ops`).

Snapshot support: generators cannot be pickled, so a core built with
``keep_history=True`` records the replay trace of its program — whether
the first ``next`` happened and every result passed to ``send`` — and
drops the generator from its pickled state.  :meth:`rebind_program`
rebuilds an equivalent generator from a fresh program instance by
fast-forwarding it through the recorded trace (the program is
deterministic given the results it received).  Only machines attached
with a ``program_factory`` (the prefix-replay cache's) keep the history;
every other core keeps nothing per op, so its memory stays flat in
program length.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional

from repro.common.errors import WorkloadError
from repro.common.events import EventQueue
from repro.cpu.ops import OP_COMPUTE, Op

ThreadProgram = Generator[Op, int, None]


class InOrderCore:
    """Drives one thread program against one L1 controller."""

    def __init__(
        self,
        core_id: int,
        queue: EventQueue,
        l1,
        program: ThreadProgram,
        on_done: Optional[Callable[[int], None]] = None,
        keep_history: bool = False,
    ) -> None:
        self.core_id = core_id
        self.queue = queue
        self.l1 = l1
        self.program = program
        self.on_done = on_done
        self.done = False
        self.finish_cycle: Optional[int] = None
        self.ops_executed = 0
        self.mem_ops = 0
        self.compute_cycles = 0
        self.mem_stall_cycles = 0
        self._issue_cycle = 0
        # Program replay trace (snapshot support): whether the initial
        # ``next`` has run and every result successfully ``send``-ed
        # (nothing per op without ``keep_history``).
        self._started = False
        self._sent = new_send_history(keep_history)
        self._exhausted = False

    def start(self) -> None:
        self.queue.schedule(0, self._advance)

    def _advance(self, result: Optional[int]) -> None:
        """Resume the program with the previous op's result and issue next
        (the first call, before the program has started, pulls its first op).

        This is also the L1 completion callback: the stall since issue is
        charged here, and non-memory ops set ``_issue_cycle`` to the cycle
        they resume at, so they charge nothing.
        """
        now = self.queue._now  # read directly: runs once per op
        self.mem_stall_cycles += now - self._issue_cycle
        try:
            if self._started:
                op = self.program.send(result)
                self._sent.append(result)
            else:
                self._started = True
                op = next(self.program)
        except StopIteration:
            self._exhausted = True
            self._finish()
            return
        if not isinstance(op, Op):
            raise WorkloadError(
                f"thread program yielded a non-Op: {op!r}")
        self.ops_executed += 1
        if op.is_memory:
            self.mem_ops += 1
            self._issue_cycle = now
            self.l1.access(op, self._advance)
        elif op.kind is OP_COMPUTE:
            self.compute_cycles += op.cycles
            self._issue_cycle = now + op.cycles
            self.queue.schedule(op.cycles, self._advance, 0)
        else:
            # FENCE — in-order, one outstanding op: a timing no-op.
            self._issue_cycle = now
            self.queue.schedule(0, self._advance, 0)

    def _finish(self) -> None:
        self.done = True
        self.finish_cycle = self.queue.now
        if self.on_done is not None:
            self.on_done(self.core_id)

    # -- snapshot support --------------------------------------------------

    def __getstate__(self):
        state = dict(self.__dict__)
        state["program"] = None  # generators cannot be pickled
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def rebind_program(self, program: Optional[ThreadProgram]) -> None:
        """Attach ``program`` in place of the current one: before the core
        starts, a plain swap; after unpickling, the recorded trace is
        replayed so the generator's cursor matches the captured core
        state.  Exhausted programs need no generator at all."""
        if not self._exhausted and self._started:
            fast_forward(program, self._sent)
        self.program = program


def new_send_history(keep_history: bool):
    """A core's send history: the list of results sent into its program,
    or — without ``keep_history`` — a ``deque(maxlen=0)`` that discards
    every append, so the core's ``_advance`` stays branch-free either
    way."""
    return [] if keep_history else deque(maxlen=0)


def fast_forward(program: ThreadProgram, sent) -> None:
    """Advance a fresh ``program`` to where a started, not yet exhausted
    core left its predecessor: the first ``next`` plus one ``send`` per
    recorded result."""
    next(program)
    for result in sent:
        program.send(result)
