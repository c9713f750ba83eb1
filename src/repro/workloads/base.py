"""Workload abstraction.

A workload builds one thread program per worker thread plus (optionally) a
verification predicate over the final coherent memory image. The ``layout``
knob selects the buggy original (``"packed"``), the manual fix
(``"padded"``), or a Huron-style partial fix (``"huron"``, see
:mod:`repro.harness.baselines`).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List

from repro.common.errors import ReproError
from repro.cpu.core import ThreadProgram
from repro.cpu.ops import Op, load
from repro.workloads.layout import MemoryLayout

LAYOUTS = ("packed", "padded", "huron")


class WorkloadResultError(ReproError):
    """The final memory image does not match the workload's expected result."""


class Workload(ABC):
    """Base class for all benchmark proxies."""

    #: Two-letter tag used in the paper's figures (e.g. "RC").
    tag: str = "??"
    #: Whether the benchmark is known to suffer from false sharing.
    has_false_sharing: bool = False
    #: Fraction of falsely-shared structures a Huron-style static repair
    #: pads (Figure 17 discussion: Huron misses instances in RC).
    huron_efficacy: float = 1.0

    def __init__(self, num_threads: int = 4, scale: float = 1.0,
                 layout: str = "packed", seed: int = 0,
                 block_size: int = 64) -> None:
        if layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
        self.num_threads = num_threads
        self.scale = scale
        self.layout_kind = layout
        self.seed = seed
        self.block_size = block_size
        self.layout = MemoryLayout(block_size=block_size)
        self._rngs = [random.Random((seed << 8) | t)
                      for t in range(num_threads)]
        self._build_layout()

    # -- knobs -----------------------------------------------------------------

    @property
    def padded(self) -> bool:
        return self.layout_kind == "padded"

    def _slots_padded(self, structure_index: int = 0) -> bool:
        """Whether slot group ``structure_index`` is padded in this layout.

        The Huron layout pads only the structures its static analysis found;
        we model that as the first ``huron_efficacy`` fraction of the
        workload's falsely-shared structures.
        """
        if self.layout_kind == "padded":
            return True
        if self.layout_kind == "huron":
            total = max(1, self.num_fs_structures())
            return structure_index < round(self.huron_efficacy * total)
        return False

    def num_fs_structures(self) -> int:
        """How many independently falsely-shared structures the workload has."""
        return 1

    def iterations(self, default: int) -> int:
        return max(1, int(default * self.scale))

    # -- interface ---------------------------------------------------------------

    @abstractmethod
    def _build_layout(self) -> None:
        """Allocate this workload's memory (runs once at construction)."""

    @abstractmethod
    def thread_program(self, tid: int) -> ThreadProgram:
        """Build the generator program for thread ``tid``."""

    def programs(self) -> List[ThreadProgram]:
        return [self.thread_program(t) for t in range(self.num_threads)]

    def verify(self, image: Dict[int, bytes]) -> None:
        """Check the final coherent memory image; raise
        :class:`WorkloadResultError` on mismatch. Default: no check."""

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def scan_loads(base: int, count: int, stride: int = 8) -> List[Op]:
        """The 8-byte LOAD ops (result unused) of a window of ``count``
        words ``stride`` bytes apart from ``base``.

        A thread that re-scans a private window builds this once and
        indexes it, instead of looking up an interned load per op."""
        return [load(base + stride * w, size=8, need_value=False)
                for w in range(count)]

    @staticmethod
    def read_u32(image: Dict[int, bytes], addr: int,
                 block_size: int = 64) -> int:
        block = addr & ~(block_size - 1)
        off = addr - block
        data = image.get(block, bytes(block_size))
        return int.from_bytes(data[off:off + 4], "little")

    @staticmethod
    def read_u64(image: Dict[int, bytes], addr: int,
                 block_size: int = 64) -> int:
        block = addr & ~(block_size - 1)
        off = addr - block
        data = image.get(block, bytes(block_size))
        return int.from_bytes(data[off:off + 8], "little")

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            raise WorkloadResultError(f"{self.tag}: {message}")
