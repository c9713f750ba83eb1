"""Out-of-order core approximation.

The paper's Section VIII-B OoO study uses 8-wide gem5 cores in SE mode; the
claim reproduced here is first-order: dynamic scheduling hides part of the
false-sharing stall, and FSLite removes most of what remains.

The model keeps a bounded window of in-flight memory operations:

* COMPUTE advances the issue cursor without blocking retirement;
* a LOAD whose value the program consumes (``need_value=True``) blocks
  issue until the value returns — true data dependences still serialize;
* other memory ops issue and retire in order through a reorder window of
  ``window`` entries; when the window is full, issue stalls;
* RMW and FENCE drain the window (atomics and ordering points).

Commit-stall accounting mirrors the paper's metric: cycles the oldest
in-flight op spends blocking retirement beyond the issue-side cost.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Optional

from repro.common.errors import WorkloadError
from repro.common.events import EventQueue
from repro.cpu.core import ThreadProgram
from repro.cpu.ops import OP_COMPUTE, OP_FENCE, OP_RMW, Op


class _WindowSlot:
    __slots__ = ("op", "issued_at", "done", "completed_at")

    def __init__(self, op: Op, issued_at: int) -> None:
        self.op = op
        self.issued_at = issued_at
        self.done = False
        self.completed_at = 0


class OutOfOrderCore:
    """Bounded-window core with in-order retirement."""

    def __init__(
        self,
        core_id: int,
        queue: EventQueue,
        l1,
        program: ThreadProgram,
        window: int = 8,
        on_done: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.core_id = core_id
        self.queue = queue
        self.l1 = l1
        self.program = program
        self.window = window
        self.on_done = on_done
        self.done = False
        self.finish_cycle: Optional[int] = None
        self.ops_executed = 0
        self.mem_ops = 0
        self.compute_cycles = 0
        self.commit_stall_cycles = 0
        self._slots: Deque[_WindowSlot] = deque()
        self._waiting_value = False
        self._draining = False
        self._program_exhausted = False
        self._retire_cursor = 0

    def start(self) -> None:
        self.queue.schedule(0, self._advance)

    # -- issue side -------------------------------------------------------------

    def _advance(self, result: Optional[int]) -> None:
        try:
            op = self.program.send(result)
        except StopIteration:
            self._program_exhausted = True
            self._maybe_finish()
            return
        if not isinstance(op, Op):
            raise WorkloadError(f"thread program yielded a non-Op: {op!r}")
        self.ops_executed += 1
        self._issue(op)

    def _issue(self, op: Op) -> None:
        if op.kind is OP_COMPUTE:
            self.compute_cycles += op.cycles
            self.queue.schedule(op.cycles, self._advance, 0)
            return
        if op.kind is OP_FENCE:
            self._draining = True
            self._try_resume_after_drain()
            return
        if len(self._slots) >= self.window:
            # Window full: stall issue until the oldest slot retires.
            self.queue.schedule(1, self._issue, op)
            return
        self.mem_ops += 1
        slot = _WindowSlot(op, self.queue.now)
        self._slots.append(slot)
        blocking = op.need_value or op.kind is OP_RMW
        self.l1.access(op, partial(self._complete_slot, slot, blocking))
        if blocking:
            self._waiting_value = True
        else:
            self.queue.schedule(1, self._advance, 0)

    def _complete_slot(self, slot: _WindowSlot, blocking: bool,
                       result: int) -> None:
        slot.done = True
        slot.completed_at = self.queue.now
        self._retire()
        if blocking:
            self._waiting_value = False
            self.queue.schedule(0, self._advance, result)
        self._try_resume_after_drain()

    def _try_resume_after_drain(self) -> None:
        if self._draining and not self._slots:
            self._draining = False
            self.queue.schedule(0, self._advance, 0)

    # -- retire side ------------------------------------------------------------

    def _retire(self) -> None:
        while self._slots and self._slots[0].done:
            slot = self._slots.popleft()
            # Commit stall: latency beyond a one-cycle pipelined retire.
            stall = max(0, slot.completed_at - slot.issued_at - 1)
            self.commit_stall_cycles += stall
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._program_exhausted and not self._slots and not self.done:
            self.done = True
            self.finish_cycle = self.queue.now
            if self.on_done is not None:
                self.on_done(self.core_id)

    def rebind_program(self, program: ThreadProgram) -> None:
        """Attach ``program`` in place of the current one (see
        InOrderCore)."""
        self.program = program
