"""Synchrobench proxy: SF (ESTM-SFtree).

A software-transactional-memory tree: per-thread transaction descriptors
(version/status words) land adjacent in memory and falsely share lines,
but every K-th operation commits through a *shared* global clock word —
genuine true sharing interspersed with the false sharing. This is the
pattern the hysteresis counter (Section VI) exists for: naive FSLite would
privatize, hit the true-sharing conflict, terminate, and repeat.

Paper: 1% baseline miss rate, 1.02-1.03X speedup.
"""

from __future__ import annotations

from typing import Dict

from repro.cpu.ops import compute, fetch_add, load, store
from repro.workloads.base import Workload


class EstmSfTree(Workload):
    tag = "SF"
    has_false_sharing = True

    DEFAULT_OPS = 400
    #: One in COMMIT_EVERY operations bumps the shared commit clock.
    COMMIT_EVERY = 16
    NODE_WORDS = 384

    def _build_layout(self) -> None:
        self.descriptors = self.layout.alloc_slots(
            "tx_descriptors", self.num_threads, 8,
            padded=self._slots_padded(0))
        self.clock = self.layout.alloc_line("commit_clock")
        self.nodes = [
            self.layout.alloc_private(f"nodes{t}", self.NODE_WORDS * 8)
            for t in range(self.num_threads)
        ]

    def thread_program(self, tid: int):
        ops = self.iterations(self.DEFAULT_OPS)
        desc = self.descriptors[tid]
        words = self.NODE_WORDS
        scan = self.scan_loads(self.nodes[tid], words)

        def prog():
            acc = 0
            for i in range(ops):
                # Tree traversal over (mostly) thread-local nodes.
                for k in range(45):
                    yield scan[(i * 45 + k) % words]
                yield compute(150)
                # Update the transaction descriptor (falsely shared).
                yield store(desc, i + 1, size=8)
                v = yield load(desc, size=8)
                assert v == i + 1
                # Conflict detection reads a *peer's* descriptor — genuine
                # read-write true sharing interspersed with the false
                # sharing (the hysteresis stressor of Section VI).
                if i % 8 == 7:
                    peer = (tid + 1 + (i // 8)) % self.num_threads
                    yield load(self.descriptors[peer], size=8)
                # Periodic commit through the global clock (true sharing).
                if i % self.COMMIT_EVERY == self.COMMIT_EVERY - 1:
                    yield fetch_add(self.clock, 1, size=8)
        return prog()

    def verify(self, image: Dict[int, bytes]) -> None:
        ops = self.iterations(self.DEFAULT_OPS)
        for tid in range(self.num_threads):
            got = self.read_u64(image, self.descriptors[tid])
            self.expect(got == ops, f"descriptor[{tid}]={got}, want {ops}")
        commits = self.num_threads * (ops // self.COMMIT_EVERY)
        got = self.read_u64(image, self.clock)
        self.expect(got == commits, f"clock={got}, want {commits}")
