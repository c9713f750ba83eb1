"""PARSEC-suite proxies.

SC (streamcluster) carries a small amount of false sharing; BL, BO, CA,
FA, FL and SW do not and exist to show FSDetect/FSLite overheads are
negligible (Figure 15).
"""

from __future__ import annotations

from typing import Dict

from repro.cpu.ops import cas, compute, fetch_add, load, store
from repro.workloads.base import Workload


class StreamCluster(Workload):
    """SC — streaming clustering with a lightly falsely-shared work-flag
    line. The FS volume is too small to matter (paper: ~1.0X; dropped from
    the later studies, as we do in the harness)."""

    tag = "SC"
    has_false_sharing = True

    DEFAULT_POINTS = 300
    POINT_WORDS = 1024     # resident window (8 KB, L1-friendly)
    STREAM_WORDS = 16384   # streamed point store (128 KB: capacity misses)
    FLAG_EVERY = 32

    def _build_layout(self) -> None:
        self.flags = self.layout.alloc_slots(
            "work_flags", self.num_threads, 4, padded=self._slots_padded(0))
        self.points = [
            self.layout.alloc_private(f"points{t}", self.POINT_WORDS * 8)
            for t in range(self.num_threads)
        ]
        self.stream = [
            self.layout.alloc_private(f"stream{t}", self.STREAM_WORDS * 8)
            for t in range(self.num_threads)
        ]

    def thread_program(self, tid: int):
        iters = self.iterations(self.DEFAULT_POINTS)
        flags = self.flags[tid]
        words = self.POINT_WORDS
        resident = self.scan_loads(self.points[tid], words)
        stream = self.stream[tid]

        def prog():
            acc = 0
            for i in range(iters):
                # Resident centres (hits)...
                for k in range(12):
                    yield resident[(i * 12 + k) % words]
                # ...plus a streamed point read (capacity misses, which
                # FSLite cannot and should not remove).  Each run touches a
                # few hundred of its 16K words, so these stay per-op loads.
                for k in range(2):
                    w = (i * 2 + k) % self.STREAM_WORDS
                    yield load(stream + 8 * w, size=8, need_value=False)
                yield compute(25)
                if i % self.FLAG_EVERY == 0:
                    yield store(flags, i + 1)
        return prog()


class _PrivateStreaming(Workload):
    """Shared base for the no-false-sharing proxies: thread-private
    streaming/compute with optional read-only shared data."""

    has_false_sharing = False

    DEFAULT_ITERS = 300
    WORK_WORDS = 512
    COMPUTE = 20
    LOADS_PER_ITER = 8
    STORES_PER_ITER = 2
    SHARED_TABLE_WORDS = 0  # read-only shared loads per iteration if > 0

    def _build_layout(self) -> None:
        self.work = [
            self.layout.alloc_private(f"work{t}", self.WORK_WORDS * 8)
            for t in range(self.num_threads)
        ]
        if self.SHARED_TABLE_WORDS:
            self.table = self.layout.alloc_private(
                "shared_table", self.SHARED_TABLE_WORDS * 8)

    def thread_program(self, tid: int):
        iters = self.iterations(self.DEFAULT_ITERS)
        work = self.work[tid]

        def prog():
            acc = 0
            for i in range(iters):
                for k in range(self.LOADS_PER_ITER):
                    w = (i * self.LOADS_PER_ITER + k) % self.WORK_WORDS
                    yield load(work + 8 * w, size=8, need_value=False)
                if self.SHARED_TABLE_WORDS:
                    w = (i * 5 + tid) % self.SHARED_TABLE_WORDS
                    acc = (acc + (yield load(self.table + 8 * w,
                                             size=8))) & 0xFFFF
                yield compute(self.COMPUTE)
                for k in range(self.STORES_PER_ITER):
                    w = (i * self.STORES_PER_ITER + k) % self.WORK_WORDS
                    yield store(work + 8 * w, (acc + k) & 0xFFFF, size=8)
        return prog()


class Blackscholes(_PrivateStreaming):
    """BL — embarrassingly parallel option pricing: private in/out arrays,
    compute-heavy, no sharing at all."""

    tag = "BL"
    COMPUTE = 40
    LOADS_PER_ITER = 6
    STORES_PER_ITER = 1


class Bodytrack(_PrivateStreaming):
    """BO — particle filter: private particles plus a read-only shared
    body-model table (S-state sharing, no invalidations)."""

    tag = "BO"
    COMPUTE = 15
    SHARED_TABLE_WORDS = 256


class Canneal(_PrivateStreaming):
    """CA — cache-unfriendly random netlist walks over a large private
    region (capacity misses) plus rare lock-protected element swaps
    (genuine, infrequent true sharing)."""

    tag = "CA"
    COMPUTE = 8
    WORK_WORDS = 16 * 1024  # 128 KB per thread: spills the L1D
    SWAP_EVERY = 64

    def _build_layout(self) -> None:
        super()._build_layout()
        self.swap_lock = self.layout.alloc_line("swap_lock")
        self.swap_cell = self.layout.alloc_line("swap_cell")

    def thread_program(self, tid: int):
        iters = self.iterations(self.DEFAULT_ITERS)
        work = self.work[tid]
        rng = self._rngs[tid]
        picks = [rng.randrange(self.WORK_WORDS) for _ in range(iters * 4)]

        def prog():
            acc = 0
            for i in range(iters):
                for k in range(4):
                    w = picks[i * 4 + k]
                    yield load(work + 8 * w, size=8, need_value=False)
                yield compute(self.COMPUTE)
                if i % self.SWAP_EVERY == self.SWAP_EVERY - 1:
                    while True:
                        old = yield cas(self.swap_lock, 0, 1)
                        if old == 0:
                            break
                        yield compute(10)
                    yield fetch_add(self.swap_cell, 1)
                    yield store(self.swap_lock, 0)
        return prog()


class Facesim(_PrivateStreaming):
    """FA — mesh relaxation: heavy private streaming with long compute."""

    tag = "FA"
    COMPUTE = 35
    LOADS_PER_ITER = 10
    STORES_PER_ITER = 4
    WORK_WORDS = 1024


class Fluidanimate(_PrivateStreaming):
    """FL — particle grid with per-cell locks that live on thread-private
    lines (the app pads its cell locks), so lock traffic stays local."""

    tag = "FL"
    COMPUTE = 12

    def _build_layout(self) -> None:
        super()._build_layout()
        self.cell_locks = [
            self.layout.alloc_private(f"cell_lock{t}", self.block_size)
            for t in range(self.num_threads)
        ]

    def thread_program(self, tid: int):
        iters = self.iterations(self.DEFAULT_ITERS)
        work = self.work[tid]
        lock = self.cell_locks[tid]

        def prog():
            acc = 0
            for i in range(iters):
                old = yield cas(lock, 0, 1)
                assert old == 0  # private lock: never contended
                for k in range(6):
                    w = (i * 6 + k) % self.WORK_WORDS
                    yield load(work + 8 * w, size=8, need_value=False)
                yield store(work + 8 * (i % self.WORK_WORDS), acc, size=8)
                yield store(lock, 0)
                yield compute(self.COMPUTE)
        return prog()


class Swaptions(_PrivateStreaming):
    """SW — Monte-Carlo pricing: almost pure compute, tiny memory traffic."""

    tag = "SW"
    COMPUTE = 60
    LOADS_PER_ITER = 3
    STORES_PER_ITER = 1
    WORK_WORDS = 256
