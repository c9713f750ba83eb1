"""Deterministic whole-machine snapshot and restore.

The prefix-replay cache (:mod:`repro.check.replay`) is the one client: it
snapshots fuzz-schedule machines mid-run and resumes shrink candidates
from them.  Only a machine attached with a ``program_factory`` can be
snapshotted; spec runs attach plain programs and keep no send history.

A snapshot is one pickle of the entire wired object graph — event queue
(heap of pending ``(time, seq, callback, arg)`` events), network (handlers,
FIFO floors, stats, hooks), L1 controllers (lines, MSHRs, write buffers),
directory slices (LLC entries, SAM/PAM tables, FC/IC/HC counter metas,
busy contexts), main memory, cores (architectural state, op cursors, and
the record-and-replay send history), and every attached auxiliary the
machine carries in :attr:`Machine.extras` (sanitizer, observers, fault
injector).

The one thing that cannot be pickled is a running generator, i.e. each
core's thread program.  Cores therefore drop the generator on pickling
(``__getstate__``) and record enough to rebuild it: whether it was
started, how many items were pulled, and the exact sequence of values
sent into it.  :func:`restore_snapshot` re-creates fresh generators from
the machine's ``program_factory`` and replays that send history through
:meth:`rebind_program`, which fast-forwards each generator to the same
suspension point.  This is exact because thread programs are pure
functions of the values sent into them (they never read simulator state
directly).

Determinism contract
--------------------

* Restoring a snapshot and resuming is **bit-for-bit identical** to never
  having snapshotted: same event order, same cycle counts, same stats,
  same reports (``tests/test_snapshot.py`` checks it across modes, with
  the sanitizer and with armed fault injectors, and pins the replay
  cache's resumed reports to cold ones).
* Snapshotting is **read-only**: taking a snapshot does not perturb the
  machine (pickling mutates nothing in this graph).
* :meth:`MachineSnapshot.digest` is a stable fingerprint of the payload
  bytes.  Two machines at the same point of the same deterministic run
  produce the same digest within a process.

Known benign staleness: the sanitizer's shadow line-age map is keyed by
``id()`` and does not survive a restore; ages restart from the restore
point.  This only affects the *reporting detail* of a would-be sanitizer
failure, never whether a passing run passes.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Callable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import ThreadProgram
    from repro.system.builder import Machine

#: Pinned pickle protocol so payload bytes (and digests) are stable for a
#: given interpreter rather than drifting with pickle defaults.
SNAPSHOT_PROTOCOL = 4


class SnapshotError(RuntimeError):
    """A machine could not be snapshotted or restored."""


class MachineSnapshot:
    """An immutable captured machine state.

    ``payload`` is the pickle of the whole machine graph; ``cycle`` and
    ``executed`` record the queue position at capture time (also inside
    the payload — duplicated here so callers can inspect a snapshot
    without unpickling it).
    """

    __slots__ = ("payload", "cycle", "executed")

    def __init__(self, payload: bytes, cycle: int, executed: int) -> None:
        self.payload = payload
        self.cycle = cycle
        self.executed = executed

    def digest(self) -> str:
        """sha256 hex fingerprint of the captured state."""
        return hashlib.sha256(self.payload).hexdigest()

    def size_bytes(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MachineSnapshot(cycle={self.cycle}, "
                f"executed={self.executed}, bytes={len(self.payload)})")


def take_snapshot(machine: "Machine") -> MachineSnapshot:
    """Capture ``machine`` (read-only; the machine keeps running)."""
    if machine.cores and machine.program_factory is None:
        raise SnapshotError(
            "machine has attached programs but no program_factory; "
            "attach with attach_programs(program_factory=...) to make "
            "it snapshot-capable")
    try:
        payload = pickle.dumps(machine, protocol=SNAPSHOT_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - surface what failed to pickle
        raise SnapshotError(f"machine graph is not picklable: {exc!r}") from exc
    return MachineSnapshot(payload=payload, cycle=machine.queue.now,
                           executed=machine.queue.executed)


def restore_snapshot(
    snap: MachineSnapshot,
    program_factory: Optional[Callable[[], List["ThreadProgram"]]] = None,
) -> "Machine":
    """Rebuild an independent machine from ``snap``.

    ``program_factory`` overrides the factory pickled with the machine
    (used by prefix-reuse replay, where the *suffix* schedule differs
    from the one the snapshot was taken under but shares its consumed
    prefix — see ``repro.check.replay`` for the soundness argument).
    """
    try:
        machine = pickle.loads(snap.payload)
    except Exception as exc:  # noqa: BLE001
        raise SnapshotError(f"corrupt snapshot payload: {exc!r}") from exc
    factory = program_factory if program_factory is not None \
        else machine.program_factory
    if machine.cores:
        if factory is None:
            raise SnapshotError("snapshot has cores but no program_factory")
        machine.program_factory = factory
        programs = factory()
        if len(programs) < len(machine.cores):
            raise SnapshotError(
                f"program_factory produced {len(programs)} programs for "
                f"{len(machine.cores)} cores")
        for core, program in zip(machine.cores, programs):
            core.rebind_program(program)
    return machine


def snapshot_digest(machine: "Machine") -> str:
    """Fingerprint of the machine's current state (captures a throwaway
    snapshot)."""
    return take_snapshot(machine).digest()
