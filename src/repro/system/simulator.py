"""Top-level simulation driver.

Runs a :class:`~repro.system.builder.Machine` until all cores finish and the
protocol fully drains, then assembles a :class:`RunResult` with statistics,
an energy breakdown, and (optionally) a coherence self-check that verifies
the final memory image against a reference computed from the workload's
byte-ownership map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.bitvec import iter_set_bits
from repro.common.errors import SimulationError
from repro.common.statkeys import (
    CORE_LOADS,
    CORE_PAM_ACCESSES,
    CORE_RMWS,
    CORE_STORES,
    SLICE_LLC_DATA_ACCESSES,
    SLICE_METADATA_RESETS,
    SLICE_REQUESTS,
    SLICE_SAM_ACCESSES,
    SLICE_SAM_ALLOCATIONS,
    SLICE_SAM_VALID_REPLACEMENTS,
    SLICE_TRUE_SHARING_DETECTIONS,
)
from repro.core.merge import merge_block
from repro.energy.model import EnergyModel
from repro.system.builder import Machine
from repro.system.stats import SimStats


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    cycles: int
    stats: SimStats
    #: None only for hand-built records (e.g. deserialized from a cache);
    #: every :meth:`Simulator.run` result carries its machine.
    machine: Optional[Machine] = field(repr=False, default=None)

    @property
    def reports(self):
        return self.stats.reports


class Simulator:
    """Drives a machine's event queue to completion."""

    #: Hard ceiling on executed events to catch protocol livelock in tests.
    DEFAULT_MAX_EVENTS = 200_000_000

    def __init__(self, machine: Machine,
                 max_events: Optional[int] = None) -> None:
        self.machine = machine
        self.max_events = max_events or self.DEFAULT_MAX_EVENTS

    def run(self) -> RunResult:
        """Start every core, drive the machine to completion and collect
        statistics."""
        machine = self.machine
        if not machine.cores:
            raise SimulationError("no programs attached (attach_programs)")
        for core in machine.cores:
            core.start()
        queue = machine.queue
        # The queue's drain() is the folded-inline step loop: one heap pop
        # per event with no per-event method call.  Executing more than
        # max_events means runaway/livelock.
        queue.drain(self.max_events + 1)
        if queue.executed > self.max_events:
            raise SimulationError(
                f"exceeded {self.max_events} events; livelock suspected "
                f"(cores done: {[c.done for c in machine.cores]})")
        for core in machine.cores:
            if not core.done:
                raise SimulationError(
                    f"core {core.core_id} never finished (deadlock)")
        for l1 in machine.l1s:
            if not l1.drain_complete():
                raise SimulationError(
                    f"L1 {l1.core_id} left transactions in flight")
        for sl in machine.slices:
            if not sl.drain_complete():
                raise SimulationError(
                    f"slice {sl.slice_id} left busy contexts")
        cycles = max((core.finish_cycle or 0) for core in machine.cores)
        stats = self._collect(cycles)
        return RunResult(cycles=cycles, stats=stats, machine=machine)

    # -- statistics -----------------------------------------------------------

    def _collect(self, cycles: int) -> SimStats:
        machine = self.machine
        stats = SimStats(cycles=cycles)
        stats.per_core = [dict(l1.stats) for l1 in machine.l1s]
        stats.per_slice = []
        for sl in machine.slices:
            slice_stats = dict(sl.stats)
            if sl.detector is not None:
                slice_stats[SLICE_SAM_ALLOCATIONS] = \
                    sl.detector.sam.allocations
                slice_stats[SLICE_SAM_VALID_REPLACEMENTS] = \
                    sl.detector.sam.valid_replacements
                slice_stats[SLICE_METADATA_RESETS] = \
                    sl.detector.metadata_resets
                slice_stats[SLICE_TRUE_SHARING_DETECTIONS] = \
                    sl.detector.true_sharing_detections
            stats.per_slice.append(slice_stats)
        stats.network = machine.network.stats.as_dict()
        stats.reports = machine.all_reports()
        contended = []
        conflicts = []
        for sl in machine.slices:
            if sl.detector is not None:
                contended.extend(sl.detector.contended_lines)
                conflicts.extend(sl.detector.conflict_log)
        stats.extra["contended_lines"] = contended
        stats.extra["true_sharing_conflicts"] = conflicts
        stats.extra["core_stats"] = [
            {
                "ops": core.ops_executed,
                "mem_ops": core.mem_ops,
                "compute_cycles": core.compute_cycles,
                "finish_cycle": core.finish_cycle,
                "mem_stall_cycles": getattr(core, "mem_stall_cycles", None),
                "commit_stall_cycles": getattr(core, "commit_stall_cycles",
                                               None),
            }
            for core in machine.cores
        ]
        stats.energy = self._energy(cycles, stats)
        return stats

    def _energy(self, cycles: int, stats: SimStats) -> Dict[str, float]:
        machine = self.machine
        model = EnergyModel(machine.config.energy,
                            metadata_enabled=machine.mode.detects)
        l1_reads = sum(c.get(CORE_LOADS, 0) for c in stats.per_core)
        l1_writes = sum(
            c.get(CORE_STORES, 0) + c.get(CORE_RMWS, 0)
            for c in stats.per_core)
        llc_accesses = sum(
            s.get(SLICE_LLC_DATA_ACCESSES, 0) for s in stats.per_slice)
        pam_accesses = sum(
            c.get(CORE_PAM_ACCESSES, 0) for c in stats.per_core)
        sam_accesses = sum(
            s.get(SLICE_SAM_ACCESSES, 0) for s in stats.per_slice)
        counter_accesses = sum(
            s.get(SLICE_REQUESTS, 0) for s in stats.per_slice)
        dram = machine.memory.reads + machine.memory.writes
        breakdown = model.compute(
            cycles=cycles,
            l1_reads=l1_reads,
            l1_writes=l1_writes,
            llc_accesses=llc_accesses,
            pam_accesses=pam_accesses,
            sam_accesses=sam_accesses if machine.mode.detects else 0,
            counter_accesses=counter_accesses if machine.mode.detects else 0,
            network_bytes=stats.total_bytes,
            dram_accesses=dram,
        )
        return breakdown.as_dict()


class MemoryImage(dict):
    """Coherent final memory image: cached-block overlays on top of main
    memory. Lookups for blocks that were never cached fall through to the
    backing store, so callers can read any address."""

    def __init__(self, memory) -> None:
        super().__init__()
        self._memory = memory

    def __missing__(self, block_addr: int) -> bytes:
        return self._memory.peek_block(block_addr)

    def get(self, block_addr: int, default=None):
        # One dict probe: overlay values are bytes, never None, so dict.get
        # (which does not trigger __missing__) distinguishes presence.
        data = dict.get(self, block_addr)
        if data is not None:
            return data
        return self._memory.peek_block(block_addr)


def flush_machine_memory(machine: Machine) -> "MemoryImage":
    """Return the *coherent* final memory image: main memory overlaid with
    LLC and private dirty copies (merged by SAM last-writer for PRV blocks,
    with the one termination merge rule, :func:`repro.core.merge.merge_block`).

    Used by tests and the built-in self-check to compare against a reference
    execution.  It binds ``merge_block`` from :mod:`repro.core.merge`, not
    through the directory, so a mutation of the directory's merge never
    reaches the image it is checked against.
    """
    from repro.coherence.states import DirState, L1State

    image: Dict[int, bytearray] = {}

    def block_of(addr: int) -> bytearray:
        block = image.get(addr)
        if block is None:
            block = image[addr] = bytearray(machine.memory.peek_block(addr))
        return block

    for sl in machine.slices:
        for entry in sl.llc.iter_valid():
            addr = sl.llc.addr_of(entry)
            line = entry.payload
            block_of(addr)[:] = line.data
            if line.state == DirState.PRV and sl.detector is not None:
                sam_entry = sl.detector.sam.peek(addr)
                if sam_entry is None:
                    continue
                lw = sam_entry.last_writer_map()
                for core_id in iter_set_bits(line.prv_sharers):
                    l1_entry = machine.l1s[core_id].cache.peek(addr)
                    if l1_entry is not None:
                        merge_block(block_of(addr), l1_entry.payload.data,
                                    core_id, lw, sl.granularity)
    for l1 in machine.l1s:
        for entry in l1.cache.iter_valid():
            addr = l1.cache.addr_of(entry)
            line = entry.payload
            if line.state in (L1State.M, L1State.E) and line.dirty:
                block_of(addr)[:] = line.data
    result = MemoryImage(machine.memory)
    for addr, data in image.items():
        result[addr] = bytes(data)
    return result
