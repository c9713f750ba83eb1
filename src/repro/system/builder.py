"""Machine assembly: cores, L1s, network, directory slices, memory."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.common.addr import slice_index
from repro.common.config import SystemConfig
from repro.common.events import EventQueue
from repro.coherence.directory import DirectorySlice
from repro.coherence.l1_controller import L1Controller
from repro.coherence.states import ProtocolMode
from repro.cpu.core import InOrderCore, ThreadProgram
from repro.cpu.ooo import OutOfOrderCore
from repro.interconnect.network import Network
from repro.memsys.main_memory import MainMemory


@dataclass
class Machine:
    """A fully wired simulated multicore.

    Lifetime: a wired machine is a reference cycle (the network's handler
    table, observer hooks and fault seam, the queue's pending events,
    :attr:`extras`, and the completion callbacks an unfinished run leaves
    parked in the L1s all point back into the graph).  Call :meth:`close`
    once a finished machine has been read so reference counting frees it
    at once instead of leaving it to the cyclic garbage collector.
    """

    config: SystemConfig
    mode: ProtocolMode
    queue: EventQueue
    network: Network
    memory: MainMemory
    l1s: List[L1Controller]
    slices: List[DirectorySlice]
    cores: list = field(default_factory=list)
    #: Attached auxiliaries (sanitizer, observers, fault injector), keyed
    #: by role: the executors that attach them read them back from here,
    #: and :meth:`close` drops them with the rest of the graph.
    extras: dict = field(default_factory=dict)

    def home_slice(self, block_addr: int) -> DirectorySlice:
        return self.slices[slice_index(
            block_addr, self.config.block_size, len(self.slices))]

    def attach_programs(
        self,
        programs: Optional[List[ThreadProgram]] = None,
        core_model: str = "inorder",
        ooo_window: int = 8,
        program_factory: Optional[Callable[[], List[ThreadProgram]]] = None,
    ) -> None:
        """Bind one thread program per core (programs may be fewer than
        cores; extra cores stay idle).  ``program_factory``, a
        zero-argument callable, only supplies ``programs`` when they are
        not given."""
        if programs is None:
            if program_factory is None:
                raise ValueError("need programs or a program_factory")
            programs = program_factory()
        if len(programs) > self.config.num_cores:
            raise ValueError(
                f"{len(programs)} programs for {self.config.num_cores} cores")
        self.cores = []
        for core_id, program in enumerate(programs):
            if core_model == "inorder":
                core = InOrderCore(core_id, self.queue, self.l1s[core_id],
                                   program)
            elif core_model == "ooo":
                core = OutOfOrderCore(core_id, self.queue, self.l1s[core_id],
                                      program, window=ooo_window)
            else:
                raise ValueError(f"unknown core model {core_model!r}")
            self.cores.append(core)

    def close(self) -> None:
        """Drop the machine's back-references so it is freed by reference
        counting: the network's handlers, observer hooks and fault seam,
        the pending events, :attr:`extras`, and each core's link to its L1
        (whose in-flight transactions hold the core's completion
        callbacks) and its bound completion callback (which points back
        at the core).  Caches, tables, stats and reports stay readable.
        Idempotent; the machine cannot run afterwards (a send raises
        :class:`~repro.common.errors.SimulationError`)."""
        self.network.close()
        self.queue.close()
        self.extras.clear()
        for core in self.cores:
            core.l1 = None
            core._resume = None

    def all_reports(self):
        reports = []
        for sl in self.slices:
            reports.extend(sl.reports)
        return reports

    def attach_observer(self, observer):
        """Attach an :class:`~repro.obs.observer.Observer` built for this
        machine; returns the attached observer."""
        if observer.machine is not self:
            raise ValueError("observer was built for a different machine")
        return observer.attach()


class _HomeMap:
    """Block-address -> home-node-id mapping for L1 controllers."""

    __slots__ = ("num_cores", "block_size", "num_slices")

    def __init__(self, num_cores: int, block_size: int,
                 num_slices: int) -> None:
        self.num_cores = num_cores
        self.block_size = block_size
        self.num_slices = num_slices

    def __call__(self, block_addr: int) -> int:
        return self.num_cores + slice_index(
            block_addr, self.block_size, self.num_slices)


def build_machine(config: SystemConfig, mode: ProtocolMode = ProtocolMode.MESI,
                  queue: Optional[EventQueue] = None) -> Machine:
    """Construct a machine per ``config`` running protocol ``mode``."""
    queue = queue or EventQueue()
    network = Network(queue, latency=config.network_latency,
                      ordered_source_min=config.num_cores)
    memory = MainMemory(block_size=config.block_size,
                        latency=config.memory_latency)

    home_of = _HomeMap(config.num_cores, config.block_size,
                       config.num_llc_slices)
    l1s = [
        L1Controller(core_id, config, mode, queue, network, home_of)
        for core_id in range(config.num_cores)
    ]
    slices = [
        DirectorySlice(
            slice_id=i, node_id=config.num_cores + i, config=config,
            mode=mode, queue=queue, network=network, memory=memory,
            num_slices=config.num_llc_slices)
        for i in range(config.num_llc_slices)
    ]
    return Machine(config=config, mode=mode, queue=queue, network=network,
                   memory=memory, l1s=l1s, slices=slices)
