"""PHOENIX-suite proxies: LR (linear-regression) and SM (string-match)."""

from __future__ import annotations

from typing import Dict

from repro.cpu.ops import compute, load, store
from repro.workloads.base import Workload


class LinearRegression(Workload):
    """LR — per-thread partial-sum accumulators adjacent in memory.

    Phoenix's linear_regression keeps one accumulator struct (SX, SY, SXY)
    per worker; adjacent structs straddle cache lines (the known instance
    GCC hides at some optimization levels). Thread 0 *initializes* all
    accumulators before the workers start — the data-initialization pattern
    of Section VI that the τR1/τR2 metadata reset exists for.

    Paper: 8% baseline miss rate; manual 1.56X / FSLite 1.54X.
    """

    tag = "LR"
    has_false_sharing = True

    DEFAULT_POINTS = 400
    FIELDS = 3          # SX, SY, SXY
    INPUT_POINTS = 256  # private input window, fits the L1

    def _build_layout(self) -> None:
        self.acc = self.layout.alloc_slots(
            "accumulators", self.num_threads, self.FIELDS * 8,
            padded=self._slots_padded(0))
        self.start_flag = self.layout.alloc_line("start_flag")
        self.inputs = [
            self.layout.alloc_private(f"input{t}", self.INPUT_POINTS * 16)
            for t in range(self.num_threads)
        ]

    def _point(self, tid: int, i: int):
        """Deterministic input point (x, y) for thread ``tid``."""
        x = (i * 7 + tid * 13) % 97
        y = (3 * x + 11 + (i % 5)) % 251
        return x, y

    def expected_sums(self, tid: int):
        points = self.iterations(self.DEFAULT_POINTS)
        sx = sy = sxy = 0
        for i in range(points):
            x, y = self._point(tid, i)
            sx += x
            sy += y
            sxy += x * y
        mask = (1 << 64) - 1
        return sx & mask, sy & mask, sxy & mask

    def thread_program(self, tid: int):
        points = self.iterations(self.DEFAULT_POINTS)
        acc = self.acc[tid]
        inp = self.inputs[tid]
        npoints = self.INPUT_POINTS
        scan = self.scan_loads(inp, npoints, stride=16)
        mask = (1 << 64) - 1

        def prog():
            if tid == 0:
                # Main-thread data initialization: zero every worker's
                # accumulator (a short-lived write-write "true sharing"),
                # then release the workers.
                for t in range(self.num_threads):
                    for f in range(self.FIELDS):
                        yield store(self.acc[t] + 8 * f, 0, size=8)
                yield compute(20)
                yield store(self.start_flag, 1)
            else:
                while True:
                    flag = yield load(self.start_flag)
                    if flag:
                        break
                    yield compute(20)
            for i in range(points):
                slot = (i % self.INPUT_POINTS) * 16
                x, y = self._point(tid, i)
                # Streaming read of the input point (private, L1-resident)
                # plus map-side hashing work.
                yield load(inp + slot, size=8)
                yield load(inp + slot + 8, size=8)
                for k in range(22):
                    yield scan[(i + k) % npoints]
                # Update the three falsely-shared accumulator fields.
                sx = yield load(acc, size=8)
                yield store(acc, (sx + x) & mask, size=8)
                sy = yield load(acc + 8, size=8)
                yield store(acc + 8, (sy + y) & mask, size=8)
                sxy = yield load(acc + 16, size=8)
                yield store(acc + 16, (sxy + x * y) & mask, size=8)
                yield compute(140)
        return prog()

    def verify(self, image: Dict[int, bytes]) -> None:
        for tid in range(self.num_threads):
            want = self.expected_sums(tid)
            got = tuple(self.read_u64(image, self.acc[tid] + 8 * f)
                        for f in range(self.FIELDS))
            self.expect(got == want, f"acc[{tid}]={got}, want {want}")


class StringMatch(Workload):
    """SM — per-thread match-count slots adjacent in one line.

    Workers scan private key windows (L1-resident) and only occasionally
    bump their falsely-shared result counter, so the FS episodes are short
    and the miss rate tiny (paper: <0.5% misses, 1.02-1.05X).
    """

    tag = "SM"
    has_false_sharing = True

    DEFAULT_KEYS = 500
    KEY_WORDS = 24
    WINDOW_WORDS = 512
    MATCH_EVERY = 32
    COMPUTE = 95

    def _build_layout(self) -> None:
        self.counts = self.layout.alloc_slots(
            "match_counts", self.num_threads, 8,
            padded=self._slots_padded(0))
        self.windows = [
            self.layout.alloc_private(f"window{t}", self.WINDOW_WORDS * 8)
            for t in range(self.num_threads)
        ]

    def matches(self, tid: int) -> int:
        keys = self.iterations(self.DEFAULT_KEYS)
        return sum(1 for i in range(keys)
                   if (i * 7 + tid) % self.MATCH_EVERY == 0)

    def thread_program(self, tid: int):
        keys = self.iterations(self.DEFAULT_KEYS)
        counts = self.counts[tid]
        words = self.WINDOW_WORDS
        scan = self.scan_loads(self.windows[tid], words)

        def prog():
            acc = 0
            for i in range(keys):
                # Scan the key against the private window (hash comparisons).
                for k in range(self.KEY_WORDS):
                    yield scan[(i * 7 + k) % words]
                yield compute(self.COMPUTE)
                if (i * 7 + tid) % self.MATCH_EVERY == 0:
                    v = yield load(counts, size=8)
                    yield store(counts, v + 1, size=8)
        return prog()

    def verify(self, image: Dict[int, bytes]) -> None:
        for tid in range(self.num_threads):
            want = self.matches(tid)
            got = self.read_u64(image, self.counts[tid])
            self.expect(got == want, f"count[{tid}]={got}, want {want}")
