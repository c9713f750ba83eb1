"""System-level tests of the baseline MESI protocol."""

import pytest

from repro.coherence.states import DirState, L1State, ProtocolMode
from repro.common.statkeys import (
    CORE_MISSES,
    CORE_UPGRADE_SENT,
    CORE_WRITEBACKS,
    SLICE_RECALLS,
)
from repro.cpu.ops import compute, fetch_add, load, store

from _helpers import memory_image, read_u, run_programs, small_config


def single(ops):
    """One-thread program from a list of ops (results discarded)."""
    def prog():
        for op in ops:
            yield op
    return prog()


class TestSingleCore:
    def test_read_fills_exclusive(self):
        def prog():
            v = yield load(0x1000)
            assert v == 0
        result, machine = run_programs([prog()])
        entry = machine.l1s[0].cache.peek(0x1000)
        assert entry.payload.state == L1State.E
        line = machine.home_slice(0x1000).llc.peek(0x1000).payload
        assert line.state == DirState.EM
        assert line.owner == 0

    def test_silent_e_to_m_on_store(self):
        def prog():
            yield load(0x1000)
            yield store(0x1000, 7)
        result, machine = run_programs([prog()])
        entry = machine.l1s[0].cache.peek(0x1000)
        assert entry.payload.state == L1State.M
        assert entry.payload.dirty
        # No extra coherence request for the silent upgrade.
        assert machine.l1s[0].stats[CORE_MISSES] == 1

    def test_store_then_load_returns_value(self):
        def prog():
            yield store(0x2000, 0xDEAD)
            v = yield load(0x2000)
            assert v == 0xDEAD
        run_programs([prog()])

    def test_rmw_returns_old_value(self):
        def prog():
            yield store(0x2000, 5)
            old = yield fetch_add(0x2000, 3, size=4)
            assert old == 5
            v = yield load(0x2000)
            assert v == 8
        run_programs([prog()])

    def test_writeback_on_eviction(self):
        cfg = small_config()
        sets = cfg.l1.num_sets
        way_span = cfg.l1.associativity + 1
        addrs = [0x10000 + i * sets * 64 for i in range(way_span)]

        def prog():
            for a in addrs:
                yield store(a, 0xAB)
            for a in addrs:
                v = yield load(a)
                assert v == 0xAB
        result, machine = run_programs([prog()], config=cfg)
        assert machine.l1s[0].stats[CORE_WRITEBACKS] >= 1
        img = memory_image(machine)
        for a in addrs:
            assert read_u(img, a) == 0xAB

    def test_mixed_sizes_on_one_line(self):
        def prog():
            yield store(0x3000, 0x11, size=1)
            yield store(0x3001, 0x22, size=1)
            yield store(0x3002, 0x3344, size=2)
            v = yield load(0x3000, size=4)
            assert v == 0x33442211
        run_programs([prog()])


class TestTwoCoreSharing:
    def test_read_sharing(self):
        def reader():
            for _ in range(5):
                v = yield load(0x1000)
                assert v == 0
                yield compute(3)
        result, machine = run_programs([reader(), reader()])
        line = machine.home_slice(0x1000).llc.peek(0x1000).payload
        assert line.state == DirState.S
        assert line.sharers == 0b11

    def test_ownership_migrates(self):
        log = []

        def writer(val, delay):
            def prog():
                yield compute(delay)
                yield store(0x1000, val)
                log.append(val)
            return prog()
        result, machine = run_programs([writer(1, 0), writer(2, 500)])
        line = machine.home_slice(0x1000).llc.peek(0x1000).payload
        assert line.state == DirState.EM
        assert line.owner == 1
        img = memory_image(machine)
        assert read_u(img, 0x1000) == 2

    def test_producer_consumer(self):
        def producer():
            yield store(0x1000, 99)
            yield store(0x1040, 1)  # flag on another line

        def consumer():
            while True:
                flag = yield load(0x1040)
                if flag:
                    break
                yield compute(20)
            v = yield load(0x1000)
            assert v == 99
        run_programs([producer(), consumer()])

    def test_upgrade_path(self):
        def reader_then_writer():
            yield load(0x1000)
            yield compute(50)
            yield store(0x1000, 5)

        def reader():
            yield load(0x1000)
        result, machine = run_programs([reader_then_writer(), reader()])
        assert machine.l1s[0].stats[CORE_UPGRADE_SENT] >= 1

    def test_atomic_increments_are_atomic(self):
        n = 100

        def incrementer():
            for _ in range(n):
                yield fetch_add(0x5000, 1, size=8)
        result, machine = run_programs([incrementer() for _ in range(4)])
        img = memory_image(machine)
        assert read_u(img, 0x5000, size=8) == 4 * n


class TestInclusionAndRecall:
    def test_llc_eviction_recalls_owner(self):
        # Tiny LLC: force LLC evictions of blocks still cached in L1s.
        cfg = small_config(
            llc=__import__("repro.common.config",
                           fromlist=["CacheConfig"]).CacheConfig(
                size_bytes=8 * 1024, associativity=2, tag_latency=2,
                data_latency=8),
            num_llc_slices=1)
        # Touch more blocks than the LLC holds, all dirty.
        blocks = cfg.llc.num_blocks + 8

        def prog():
            for i in range(blocks):
                yield store(0x10000 + i * 64, i + 1)
            for i in range(blocks):
                v = yield load(0x10000 + i * 64)
                assert v == i + 1
        result, machine = run_programs([prog()], config=cfg)
        assert machine.slices[0].stats[SLICE_RECALLS] >= 1
        img = memory_image(machine)
        for i in range(blocks):
            assert read_u(img, 0x10000 + i * 64) == i + 1

    def test_llc_eviction_with_sharers(self):
        cfg = small_config(
            llc=__import__("repro.common.config",
                           fromlist=["CacheConfig"]).CacheConfig(
                size_bytes=8 * 1024, associativity=2, tag_latency=2,
                data_latency=8),
            num_llc_slices=1)
        blocks = cfg.llc.num_blocks + 8

        def prog():
            for i in range(blocks):
                v = yield load(0x10000 + i * 64)
                assert v == 0
        run_programs([prog(), prog()], config=cfg)


class TestDrainInvariants:
    @pytest.mark.parametrize("mode", list(ProtocolMode))
    def test_clean_drain(self, mode):
        def prog(tid):
            def inner():
                for i in range(50):
                    yield store(0x9000 + 4 * tid, i)
                    yield compute(2)
            return inner()
        result, machine = run_programs([prog(t) for t in range(4)],
                                       mode=mode)
        for l1 in machine.l1s:
            assert l1.drain_complete()
        for sl in machine.slices:
            assert sl.drain_complete()
