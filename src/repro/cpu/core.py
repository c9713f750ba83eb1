"""In-order core model.

One outstanding memory operation; COMPUTE ops advance local time; the core
blocks on every load/store until it is globally performed — the Table II
"in-order CPU" configuration the paper's primary results use.

A core executes a *thread program*: a generator yielding :class:`Op` values
and receiving each op's result back (see :mod:`repro.cpu.ops`).

The core keeps nothing per op, so its memory stays flat in program
length.
"""

from __future__ import annotations

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
        #: ``_advance`` bound once: the L1 completion callback and every
        #: resume event pass this one object instead of binding a new
        #: method per op.  :meth:`Machine.close
        #: <repro.system.builder.Machine.close>` drops it (it points back at
        #: the core).
        self._resume = self._advance

    def start(self) -> None:
        self.queue.schedule(0, self._resume)

    def _advance(self, result: Optional[int]) -> None:
        """Resume the program with the previous op's result and issue next
        (the first call, from :meth:`start`, sends None: a fresh generator
        takes that as its first ``next``).

        This is also the L1 completion callback: the stall since issue is
        charged here, and non-memory ops set ``_issue_cycle`` to the cycle
        they resume at, so they charge nothing.
        """
        now = self.queue._now  # read directly: runs once per op
        self.mem_stall_cycles += now - self._issue_cycle
        try:
            op = self.program.send(result)
        except StopIteration:
            self._finish()
            return
        if not isinstance(op, Op):
            raise WorkloadError(
                f"thread program yielded a non-Op: {op!r}")
        self.ops_executed += 1
        if op.is_memory:
            self.mem_ops += 1
            self._issue_cycle = now
            self.l1.access(op, self._resume)
        elif op.kind is OP_COMPUTE:
            self.compute_cycles += op.cycles
            self._issue_cycle = now + op.cycles
            self.queue.schedule(op.cycles, self._resume, 0)
        else:
            # FENCE — in-order, one outstanding op: a timing no-op.
            self._issue_cycle = now
            self.queue.schedule(0, self._resume, 0)

    def _finish(self) -> None:
        self.done = True
        self.finish_cycle = self.queue.now
        if self.on_done is not None:
            self.on_done(self.core_id)

    def rebind_program(self, program: ThreadProgram) -> None:
        """Attach ``program`` in place of the current one before the core
        starts (trace capture wraps each program in a recording tap)."""
        self.program = program
