"""Atomic reference model: an independent executable specification.

The detailed simulator models timing — MSHRs, busy directory contexts,
virtual-channel races, privatized episodes. This module models none of it:
:class:`AtomicMachine` is a single flat memory in which every operation
executes instantaneously and in full, plus *truth* bookkeeping of who
touched which bytes: per block, each core's cumulative read and write
granule masks, the last writer of every granule and the set of accessing
cores.  A granule's reader and writer sets are derived from the masks.

That makes it a second, independent implementation of the protocol's
*observable* semantics — what the paper's correctness claims quantify over:

* the final memory image (sequential consistency of committed data, and
  FSLite's byte-merge reconstructing exactly what a conventional machine
  would produce), and
* the ground-truth access sets that detection metadata (PAM/SAM) and the
  FC/IC counters may only ever under-approximate.

It is also the one semantics of a fuzz schedule:
:func:`repro.check.fuzz.schedule_to_ops` executes every translated
:class:`~repro.cpu.ops.Op` on an :class:`AtomicMachine` in schedule list
order while it translates — one legal interleaving, and for the fuzzer's
single-writer/commutative schedule families the *unique* final image of
every legal interleaving.  The campaigns' load assertions and final-image
check read their expected values off that execution, and the
differential driver (:mod:`repro.check.diff`) compares the detailed
machine against it; :func:`run_reference` returns it alone.

For workload generators (whose control flow reacts to loaded values —
spinlocks, CAS loops), :func:`run_programs_atomic` drives the programs
round-robin, one operation per live thread per turn; the fair schedule
guarantees spin loops terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.common.bitvec import iter_set_bits
from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.core.pam import granule_mask
from repro.cpu.ops import Op, OpKind


class BlockTruth:
    """Ground-truth access bookkeeping for one block.

    Everything detection metadata claims must be a sub-approximation of
    this: SAM last-writers must be real granule writers, SAM/PAM reader
    and writer bits must be real accesses, and a block can only be flagged
    as falsely shared if at least two cores really touched it.

    The per-core granule masks are the whole access record: a granule's
    readers (writers) are the cores whose read (write) mask has its bit
    set, derived on demand by :meth:`readers` / :meth:`writers`.
    """

    __slots__ = ("num_granules", "accessors", "last_writer", "read_bits",
                 "write_bits")

    def __init__(self, num_granules: int) -> None:
        self.num_granules = num_granules
        #: Cores that executed any memory op on the block.
        self.accessors: Set[int] = set()
        #: Final (schedule-order) writer per granule, None if never written.
        self.last_writer: List[Optional[int]] = [None] * num_granules
        #: Per-core cumulative granule masks (the idealized PAM).
        self.read_bits: Dict[int, int] = {}
        self.write_bits: Dict[int, int] = {}

    def record(self, core: int, gmask: int, is_write: bool) -> None:
        self.accessors.add(core)
        if not is_write:
            self.read_bits[core] = self.read_bits.get(core, 0) | gmask
            return
        self.write_bits[core] = self.write_bits.get(core, 0) | gmask
        last_writer = self.last_writer
        for granule in iter_set_bits(gmask):
            last_writer[granule] = core

    def readers(self, granule: int) -> Set[int]:
        """Cores that ever read ``granule``."""
        return {core for core, bits in self.read_bits.items()
                if bits >> granule & 1}

    def writers(self, granule: int) -> Set[int]:
        """Cores that ever wrote ``granule``."""
        return {core for core, bits in self.write_bits.items()
                if bits >> granule & 1}


class AtomicImage(dict):
    """Dict-like view of the atomic machine's memory with the same ``get``
    fallback semantics as :class:`repro.system.simulator.MemoryImage`:
    blocks never touched read as zeros."""

    def __init__(self, mem: Dict[int, bytearray], block_size: int) -> None:
        super().__init__({addr: bytes(data) for addr, data in mem.items()})
        self._zero = bytes(block_size)

    def __missing__(self, block_addr: int) -> bytes:
        return self._zero

    def get(self, block_addr: int, default=None):
        data = dict.get(self, block_addr)
        return data if data is not None else self._zero


class AtomicMachine:
    """Timing-agnostic, transient-state-free executor of :class:`Op`\\ s.

    One flat memory, zero-initialized; every operation completes atomically
    at the instant it executes.  RMWs are indivisible (read, modify, write
    as one step) and, mirroring the detailed L1 controller's PAM
    accounting, count as both a read and a write of the touched granules.
    """

    def __init__(self, config: SystemConfig, num_threads: int) -> None:
        self.config = config
        self.block_size = config.block_size
        self.granularity = config.protocol.tracking_granularity
        self.num_granules = self.block_size // self.granularity
        self.num_threads = num_threads
        self.mem: Dict[int, bytearray] = {}
        self.truth: Dict[int, BlockTruth] = {}
        self.ops_executed = 0

    # -- memory ---------------------------------------------------------------

    def _block(self, block_addr: int) -> bytearray:
        data = self.mem.get(block_addr)
        if data is None:
            data = self.mem[block_addr] = bytearray(self.block_size)
        return data

    def _truth(self, block_addr: int) -> BlockTruth:
        truth = self.truth.get(block_addr)
        if truth is None:
            truth = self.truth[block_addr] = BlockTruth(self.num_granules)
        return truth

    # -- execution -------------------------------------------------------------

    def execute(self, tid: int, op: Op) -> Optional[int]:
        """Execute one operation for thread ``tid``; returns the loaded
        value for LOAD and the *old* value for RMW (the generator-program
        contract of :mod:`repro.cpu.ops`)."""
        self.ops_executed += 1
        if not op.is_memory:
            return None
        block_addr = op.addr & ~(self.block_size - 1)
        off = op.addr - block_addr
        data = self._block(block_addr)
        gmask = granule_mask(((1 << op.size) - 1) << off,
                             self.granularity, self.block_size)
        truth = self._truth(block_addr)
        if op.kind is OpKind.LOAD:
            truth.record(tid, gmask, is_write=False)
            return int.from_bytes(data[off:off + op.size], "little")
        if op.kind is OpKind.STORE:
            truth.record(tid, gmask, is_write=True)
            data[off:off + op.size] = op.value.to_bytes(op.size, "little")
            return None
        # RMW: indivisible read-modify-write; reads and writes the granules.
        truth.record(tid, gmask, is_write=False)
        truth.record(tid, gmask, is_write=True)
        old = int.from_bytes(data[off:off + op.size], "little")
        new = op.modify(old) & ((1 << (8 * op.size)) - 1)
        data[off:off + op.size] = new.to_bytes(op.size, "little")
        return old

    # -- results ----------------------------------------------------------------

    def image(self) -> AtomicImage:
        return AtomicImage(self.mem, self.block_size)

    def blocks(self) -> List[int]:
        return sorted(self.mem)

    def multi_core_blocks(self) -> Set[int]:
        """Blocks genuinely accessed by two or more cores — the only blocks
        the detector may legitimately flag (IC > 0 requires a second
        requesting core)."""
        return {addr for addr, truth in self.truth.items()
                if len(truth.accessors) >= 2}

    def single_accessor_granules(self, block_addr: int) -> List[Tuple[int, int]]:
        """``(granule, core)`` pairs where exactly one core ever touched the
        granule — race-free locations whose final bytes are deterministic.

        One fold over the per-core masks: ``once`` collects granules some
        core touched, ``multi`` those a second core touched as well."""
        truth = self.truth.get(block_addr)
        if truth is None:
            return []
        read_bits, write_bits = truth.read_bits, truth.write_bits
        touched = [(core, read_bits.get(core, 0) | write_bits.get(core, 0))
                   for core in truth.accessors]
        once = multi = 0
        for _core, bits in touched:
            multi |= once & bits
            once |= bits
        single = once & ~multi
        out = [(granule, core) for core, bits in touched
               for granule in iter_set_bits(bits & single)]
        out.sort()
        return out


@dataclass
class RefResult:
    """Outcome of one atomic reference execution."""

    machine: AtomicMachine

    @cached_property
    def image(self) -> AtomicImage:
        """The final memory image, built once (the machine is finished)."""
        return self.machine.image()

    @property
    def truth(self) -> Dict[int, BlockTruth]:
        return self.machine.truth

    def blocks(self) -> List[int]:
        return self.machine.blocks()

    def multi_core_blocks(self) -> Set[int]:
        return self.machine.multi_core_blocks()


def run_reference(
    schedule,
    num_threads: int,
    config: Optional[SystemConfig] = None,
) -> RefResult:
    """Execute a fuzz schedule on the atomic machine, in schedule list
    order (a legal interleaving: the list interleaves per-thread program
    order, which dropping elements preserves — the same property that makes
    ddmin over schedules sound).

    The reference :func:`repro.check.fuzz.schedule_to_ops` runs while it
    translates the schedule; this returns it and drops the op stream.
    """
    # Imported here: fuzz imports this module for its reference machine.
    from repro.check.fuzz import fuzz_config, schedule_to_ops

    config = config or fuzz_config(num_threads)
    return schedule_to_ops(schedule, num_threads, config,
                           check_loads=False)[1]


def run_programs_atomic(
    programs,
    config: SystemConfig,
    max_ops: int = 50_000_000,
) -> AtomicMachine:
    """Drive generator thread programs to completion on the atomic machine.

    Round-robin, one operation per live thread per turn: a fair schedule,
    so value-dependent control flow (spinlocks, CAS retry loops) always
    makes progress — the lock holder gets a turn every round.  ``max_ops``
    bounds runaway programs (a livelock under fair scheduling is a real
    workload bug).
    """
    machine = AtomicMachine(config, num_threads=len(programs))
    live: List[Tuple[int, object]] = []
    for tid, program in enumerate(programs):
        try:
            op = next(program)
        except StopIteration:
            continue
        live.append((tid, program, op))
    live = [list(entry) for entry in live]
    while live:
        finished = []
        for entry in live:
            tid, program, op = entry
            result = machine.execute(tid, op)
            if machine.ops_executed > max_ops:
                raise SimulationError(
                    f"atomic reference exceeded {max_ops} ops; "
                    f"livelock under fair scheduling")
            try:
                entry[2] = program.send(result)
            except StopIteration:
                finished.append(entry)
        for entry in finished:
            live.remove(entry)
    return machine
