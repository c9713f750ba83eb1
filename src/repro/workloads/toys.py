"""The Huron-artifact toy benchmarks: RC, LL, LT, BS.

These four dominate the paper's speedup figures; their sharing patterns are
documented per class. Iteration counts and private-work mixes are calibrated
so the baseline L1D miss fractions land near Figure 13 (RC 0.18, LL 0.05,
LT 0.06, BS 0.01).
"""

from __future__ import annotations

from typing import Dict

from repro.cpu.ops import cas, compute, fetch_add, load, store
from repro.workloads.base import Workload


class ReferenceCount(Workload):
    """RC — per-thread reference counters packed into one cache line.

    Each iteration atomically increments the thread's own counter and does a
    little private work. The counter line ping-pongs under MESI (the paper's
    worst case: 18% L1D miss rate, 3.9X FSLite speedup). The manual fix pads
    the counter array, which changes the data layout and costs extra
    address-computation instructions (modelled as added compute), so FSLite
    beats it.
    """

    tag = "RC"
    has_false_sharing = True
    #: Huron fails to mitigate all RC instances (Fig. 17): it repairs the
    #: primary counter array but misses the secondary one.
    huron_efficacy = 0.5

    DEFAULT_ITERS = 600
    PRIVATE_WORDS = 64

    def num_fs_structures(self) -> int:
        return 2

    def _build_layout(self) -> None:
        # Two falsely-shared counter arrays (object refcounts + weak refs).
        self.slots = self.layout.alloc_slots(
            "refcounts", self.num_threads, 8,
            padded=self._slots_padded(0))
        self.weak_slots = self.layout.alloc_slots(
            "weak_refcounts", self.num_threads, 8,
            padded=self._slots_padded(1))
        self.private = [
            self.layout.alloc_private(f"priv{t}", self.PRIVATE_WORDS * 8)
            for t in range(self.num_threads)
        ]

    def thread_program(self, tid: int):
        iters = self.iterations(self.DEFAULT_ITERS)
        slot = self.slots[tid]
        weak = self.weak_slots[tid]
        priv = self.private[tid]
        # Padding the array turns constant offsets into computed strides
        # (paper: extra arithmetic for address computation in manual-fix RC).
        addr_cost = 8 if self._slots_padded(0) else 0

        def prog():
            for i in range(iters):
                if addr_cost:
                    yield compute(addr_cost)
                yield fetch_add(slot, 1, size=8)
                if i % 2 == 0:
                    if addr_cost:
                        yield compute(addr_cost)
                    yield fetch_add(weak, 1, size=8)
                # Touch the object payload (private words).
                for k in range(3):
                    w = (i * 3 + k) % self.PRIVATE_WORDS
                    v = yield load(priv + 8 * w, size=8)
                    yield store(priv + 8 * w, (v + 1) & ((1 << 64) - 1),
                                size=8)
                yield compute(6)
        return prog()

    def verify(self, image: Dict[int, bytes]) -> None:
        iters = self.iterations(self.DEFAULT_ITERS)
        for tid in range(self.num_threads):
            got = self.read_u64(image, self.slots[tid])
            self.expect(got == iters, f"refcount[{tid}]={got}, want {iters}")
            want_weak = (iters + 1) // 2
            got = self.read_u64(image, self.weak_slots[tid])
            self.expect(got == want_weak,
                        f"weak[{tid}]={got}, want {want_weak}")


class LocklessToy(Workload):
    """LL — lock-free per-thread slot updates in one cache line.

    Threads publish progress into their own 8-byte slot with plain
    store/load pairs between stretches of private work (paper: 5% baseline
    miss rate, ~1.5X speedup).
    """

    tag = "LL"
    has_false_sharing = True

    DEFAULT_ITERS = 500
    PRIVATE_WORDS = 128

    def _build_layout(self) -> None:
        self.slots = self.layout.alloc_slots(
            "progress", self.num_threads, 8, padded=self._slots_padded(0))
        self.private = [
            self.layout.alloc_private(f"priv{t}", self.PRIVATE_WORDS * 8)
            for t in range(self.num_threads)
        ]

    def thread_program(self, tid: int):
        iters = self.iterations(self.DEFAULT_ITERS)
        slot = self.slots[tid]
        words = self.PRIVATE_WORDS
        scan = self.scan_loads(self.private[tid], words)

        def prog():
            acc = 0
            for i in range(iters):
                # Private work: scan a stretch of own words.
                for k in range(30):
                    yield scan[(i * 30 + k) % words]
                # Publish progress (falsely shared).
                yield store(slot, i + 1, size=8)
                v = yield load(slot, size=8)
                assert v == i + 1
                yield compute(45)
        return prog()

    def verify(self, image: Dict[int, bytes]) -> None:
        iters = self.iterations(self.DEFAULT_ITERS)
        for tid in range(self.num_threads):
            got = self.read_u64(image, self.slots[tid])
            self.expect(got == iters, f"progress[{tid}]={got}, want {iters}")


class LockedToy(Workload):
    """LT — an array of lock+counter cells striped across threads.

    Cell i = {4-byte spinlock, 4-byte counter}; thread t owns cells with
    ``i % threads == t``, so packed cells falsely share lines both on the
    lock and the counter bytes. The manual fix pads every cell to a full
    line, inflating the per-thread footprint past the L1 (the paper's 4X
    working-set story: manual fix 1.31X but FSLite 1.44X).
    """

    tag = "LT"
    has_false_sharing = True

    DEFAULT_VISITS = 1800
    #: 512 packed cells = 4 KB (64 falsely-shared lines, revisited many
    #: times per run). The padded layout inflates the array 8X; each
    #: thread's 128 cell lines then collide in 16 L1D sets (the 256-byte
    #: visit stride), so roughly half the padded cell revisits become
    #: conflict/capacity misses. That is the paper's working-set-inflation
    #: story: the manual fix trades false-sharing misses for cache misses,
    #: so FSLite beats it (paper: 1.44X vs 1.31X; miss 6.4% -> 2.4%).
    CELLS = 512
    PRIVATE_WORDS = 256  # 2 KB hot private region per thread

    def num_fs_structures(self) -> int:
        return 1

    def _build_layout(self) -> None:
        padded = self._slots_padded(0)
        stride = self.block_size if padded else 8
        self.cell_stride = stride
        self.cells = self.layout.alloc(
            "cells", self.CELLS * stride, align=self.block_size)
        self.private = [
            self.layout.alloc_private(f"priv{t}", self.PRIVATE_WORDS * 8)
            for t in range(self.num_threads)
        ]

    def thread_program(self, tid: int):
        visits = self.iterations(self.DEFAULT_VISITS)
        stride = self.cell_stride
        threads = self.num_threads
        words = self.PRIVATE_WORDS
        scan = self.scan_loads(self.private[tid], words)

        def prog():
            acc = 0
            cell = tid
            for i in range(visits):
                lock = self.cells + cell * stride
                counter = lock + 4
                while True:
                    old = yield cas(lock, 0, 1)
                    if old == 0:
                        break
                    yield compute(8)
                v = yield load(counter)
                yield store(counter, v + 1)
                yield store(lock, 0)
                # Per-visit bookkeeping over the hot private region.
                for k in range(16):
                    yield scan[(i * 16 + k) % words]
                yield compute(70)
                cell = (cell + threads) % self.CELLS
        return prog()

    def verify(self, image: Dict[int, bytes]) -> None:
        visits = self.iterations(self.DEFAULT_VISITS)
        # Thread t increments cell (t + k*threads) % CELLS for REPEATS
        # consecutive visits before advancing.
        expected = [0] * self.CELLS
        for t in range(self.num_threads):
            cell = t
            for i in range(visits):
                expected[cell] += 1
                cell = (cell + self.num_threads) % self.CELLS
        # Spot-check the first 64 cells (full check is O(CELLS) block reads).
        for i in range(64):
            addr = self.cells + i * self.cell_stride + 4
            got = self.read_u32(image, addr)
            self.expect(got == expected[i],
                        f"cell[{i}]={got}, want {expected[i]}")


class BoostSpinlock(Workload):
    """BS — boost::detail::spinlock_pool: spinlocks packed into cache lines.

    Each thread guards its own (private) objects with a pool lock chosen by
    address hash; different threads mostly hit different locks that share a
    line. Critical sections are tiny and private work dominates, so the
    impact is mild (paper: 1% miss rate, ~1.04X).
    """

    tag = "BS"
    has_false_sharing = True

    DEFAULT_ITERS = 400
    POOL_SIZE = 16
    PRIVATE_WORDS = 256

    def _build_layout(self) -> None:
        self.pool = self.layout.alloc_slots(
            "spinlock_pool", self.POOL_SIZE, 4, padded=self._slots_padded(0))
        self.private = [
            self.layout.alloc_private(f"priv{t}", self.PRIVATE_WORDS * 8)
            for t in range(self.num_threads)
        ]

    def thread_program(self, tid: int):
        iters = self.iterations(self.DEFAULT_ITERS)
        priv = self.private[tid]
        words = self.PRIVATE_WORDS
        scan = self.scan_loads(priv, words)
        rng = self._rngs[tid]
        # boost hashes the object address; threads map to mostly-distinct
        # locks, with occasional collisions (true contention).
        lock_seq = [self.pool[(tid + 4 * rng.randrange(0, 4))
                              % self.POOL_SIZE]
                    for _ in range(iters)]

        def prog():
            acc = 0
            for i in range(iters):
                # A big stretch of private work between lock operations.
                for k in range(25):
                    yield scan[(i * 25 + k) % words]
                yield compute(160)
                if i % 4 == 0:
                    lock = lock_seq[i]
                    while True:
                        old = yield cas(lock, 0, 1)
                        if old == 0:
                            break
                        yield compute(12)
                    w = i % self.PRIVATE_WORDS
                    v = yield load(priv + 8 * w, size=8)
                    yield store(priv + 8 * w, (v + 1) & ((1 << 64) - 1),
                                size=8)
                    yield store(lock, 0)
        return prog()
