"""System-level tests of FSDetect detection and FSLite repair."""

import pytest

from repro.coherence.states import DirState, ProtocolMode, TerminationCause
from repro.common.config import CacheConfig
from repro.cpu.ops import compute, fetch_add, load, store

from _helpers import memory_image, read_u, run_programs, small_config

LINE = 0x10000


def slot_writer(off, n, pause=3):
    def prog():
        for i in range(n):
            yield store(LINE + off, i + 1)
            yield compute(pause)
    return prog()


def true_sharer(n, pause=3):
    def prog():
        for _ in range(n):
            yield fetch_add(LINE, 1, size=8)
            yield compute(pause)
    return prog()


class TestDetection:
    def test_false_sharing_detected_and_reported(self):
        result, machine = run_programs(
            [slot_writer(4 * t, 200) for t in range(4)],
            mode=ProtocolMode.FSDETECT)
        reports = result.stats.reports
        assert reports, "no false-sharing reports"
        assert all(r.block_addr == LINE for r in reports)
        assert not any(r.privatized for r in reports)
        # Detection must see the real set of cores.
        assert reports[0].cores <= {0, 1, 2, 3}

    def test_true_sharing_not_reported(self):
        result, machine = run_programs(
            [true_sharer(200) for _ in range(4)],
            mode=ProtocolMode.FSDETECT)
        assert result.stats.reports == []

    def test_fsdetect_does_not_privatize(self):
        result, machine = run_programs(
            [slot_writer(4 * t, 200) for t in range(4)],
            mode=ProtocolMode.FSDETECT)
        assert result.stats.privatizations == 0
        line = machine.home_slice(LINE).llc.peek(LINE).payload
        assert line.state != DirState.PRV

    def test_detection_negligible_overhead(self):
        base, _ = run_programs([slot_writer(4 * t, 150) for t in range(4)],
                               mode=ProtocolMode.MESI)
        det, _ = run_programs([slot_writer(4 * t, 150) for t in range(4)],
                              mode=ProtocolMode.FSDETECT)
        assert det.cycles <= base.cycles * 1.06

    def test_read_write_false_sharing_detected(self):
        def reader(off, n):
            def prog():
                for _ in range(n):
                    yield load(LINE + off)
                    yield compute(3)
            return prog()
        result, _ = run_programs(
            [slot_writer(0, 200), reader(4, 200), reader(8, 200)],
            mode=ProtocolMode.FSDETECT)
        assert result.stats.reports


class TestRepair:
    def test_privatization_eliminates_misses(self):
        base, _ = run_programs([slot_writer(4 * t, 300) for t in range(4)])
        fsl, machine = run_programs(
            [slot_writer(4 * t, 300) for t in range(4)],
            mode=ProtocolMode.FSLITE)
        assert fsl.stats.privatizations >= 1
        assert fsl.cycles < base.cycles * 0.5
        assert fsl.stats.l1_miss_rate < base.stats.l1_miss_rate / 5

    def test_merged_values_correct(self):
        result, machine = run_programs(
            [slot_writer(4 * t, 300) for t in range(4)],
            mode=ProtocolMode.FSLITE)
        img = memory_image(machine)
        for t in range(4):
            assert read_u(img, LINE + 4 * t) == 300

    def test_true_sharing_never_privatized(self):
        result, machine = run_programs([true_sharer(300) for _ in range(4)],
                                       mode=ProtocolMode.FSLITE)
        assert result.stats.privatizations == 0
        img = memory_image(machine)
        assert read_u(img, LINE, size=8) == 1200

    def test_prv_state_at_directory(self):
        def forever_writer(off):
            def prog():
                for i in range(400):
                    yield store(LINE + off, i)
                    yield compute(2)
            return prog()
        result, machine = run_programs(
            [forever_writer(8 * t) for t in range(4)],
            mode=ProtocolMode.FSLITE)
        line = machine.home_slice(LINE).llc.peek(LINE).payload
        assert line.state == DirState.PRV
        assert line.prv_sharers & ~0b1111 == 0

    def test_mixed_rmw_and_plain_slots(self):
        def rmw_writer(off, n):
            def prog():
                for _ in range(n):
                    yield fetch_add(LINE + off, 1, size=8)
                    yield compute(2)
            return prog()
        result, machine = run_programs(
            [rmw_writer(8 * t, 250) for t in range(4)],
            mode=ProtocolMode.FSLITE)
        img = memory_image(machine)
        for t in range(4):
            assert read_u(img, LINE + 8 * t, size=8) == 250


class TestTerminationCauses:
    def test_conflict_terminates(self):
        """Privatize on disjoint slots, then introduce a true conflict."""
        def worker(tid):
            def prog():
                for i in range(150):
                    yield store(LINE + 8 * tid, i + 1, size=8)
                    yield compute(2)
                # Phase 2: everyone writes slot 0 -> byte conflict.
                yield fetch_add(LINE, 1, size=8)
                for i in range(20):
                    yield store(LINE + 8 * tid, 999, size=8)
                    yield compute(2)
            return prog()
        result, machine = run_programs([worker(t) for t in range(4)],
                                       mode=ProtocolMode.FSLITE)
        assert result.stats.privatizations >= 1
        terms = result.stats.terminations
        assert terms["conflict"] + terms["init_abort"] >= 1
        img = memory_image(machine)
        # Slot 0 got 150 stores from t0 (last value 999) + 4 atomic adds in
        # between; the final value must be 999 (t0's phase-2 store).
        assert read_u(img, LINE, size=8) == 999

    def test_sam_eviction_terminates(self):
        cfg = small_config().with_protocol(sam_sets=1, sam_ways=2)

        def sweeper(tid):
            def prog():
                # Falsely share many lines so SAM entries get displaced.
                for i in range(400):
                    line = LINE + (i % 16) * 128  # slice-0 lines
                    yield store(line + 8 * tid, i + 1, size=8)
                    yield compute(2)
            return prog()
        result, machine = run_programs([sweeper(t) for t in range(4)],
                                       mode=ProtocolMode.FSLITE, config=cfg)
        assert result.stats.terminations["sam_eviction"] >= 1

    def test_llc_eviction_terminates_and_merges(self):
        cfg = small_config(
            llc=CacheConfig(size_bytes=4 * 1024, associativity=2,
                            tag_latency=2, data_latency=8),
            num_llc_slices=1)

        def worker(tid):
            def prog():
                # Privatize one hot line...
                for i in range(120):
                    yield store(LINE + 8 * tid, i + 1, size=8)
                    yield compute(2)
                # ...then stream enough blocks to evict it from the LLC.
                base = 0x80000 + tid * 0x8000
                for i in range(80):
                    yield store(base + i * 64, tid + 1)
                # Come back and keep writing: value continuity must hold.
                for i in range(20):
                    yield store(LINE + 8 * tid, 1000 + i, size=8)
                    yield compute(2)
            return prog()
        result, machine = run_programs([worker(t) for t in range(4)],
                                       mode=ProtocolMode.FSLITE, config=cfg)
        assert result.stats.terminations["llc_eviction"] >= 1
        img = memory_image(machine)
        for t in range(4):
            assert read_u(img, LINE + 8 * t, size=8) == 1019

    def test_external_socket_hook(self):
        def worker(tid):
            def prog():
                for i in range(200):
                    yield store(LINE + 8 * tid, i + 1, size=8)
                    yield compute(2)
            return prog()
        cfg = small_config()
        from repro.system.builder import build_machine
        from repro.system.simulator import Simulator
        machine = build_machine(cfg, ProtocolMode.FSLITE)
        machine.attach_programs([worker(t) for t in range(4)])
        home = machine.home_slice(LINE)
        # Trigger the external-socket termination mid-run.
        machine.queue.schedule(20000, home.external_access, LINE)
        result = Simulator(machine).run()
        stats_terms = result.stats.terminations
        assert (stats_terms["external_socket"] >= 1
                or result.stats.privatizations == 0)

    def test_l1_eviction_of_prv_merges_per_core(self):
        """A PRV copy evicted from one L1 merges that core's bytes only."""
        cfg = small_config(
            l1=CacheConfig(size_bytes=1024, associativity=2))

        def worker(tid):
            def prog():
                for i in range(100):
                    yield store(LINE + 8 * tid, i + 1, size=8)
                    yield compute(2)
                # Force L1 evictions by touching conflicting lines.
                span = cfg.l1.num_sets * 64
                for i in range(6):
                    yield load(0x40000 + tid * 0x4000 + i * span)
                for i in range(50):
                    yield store(LINE + 8 * tid, 200 + i, size=8)
                    yield compute(2)
            return prog()
        result, machine = run_programs([worker(t) for t in range(4)],
                                       mode=ProtocolMode.FSLITE, config=cfg)
        img = memory_image(machine)
        for t in range(4):
            assert read_u(img, LINE + 8 * t, size=8) == 249


class TestJoinAndRejoin:
    def test_late_joiner_gets_private_copy(self):
        def early(tid):
            def prog():
                for i in range(250):
                    yield store(LINE + 8 * tid, i + 1, size=8)
                    yield compute(2)
            return prog()

        def late():
            def prog():
                yield compute(8000)
                for i in range(60):
                    yield store(LINE + 24, i + 1, size=8)
                    yield compute(2)
            return prog()
        result, machine = run_programs([early(0), early(1), early(2),
                                        late()], mode=ProtocolMode.FSLITE)
        assert result.stats.privatizations >= 1
        joins = sum(s["prv_joins"] for s in result.stats.per_slice)
        assert joins >= 1
        img = memory_image(machine)
        assert read_u(img, LINE + 24, size=8) == 60


class TestGranularityModes:
    @pytest.mark.parametrize("gran", [1, 2, 4])
    def test_correctness_at_all_granularities(self, gran):
        cfg = small_config().with_protocol(tracking_granularity=gran)
        result, machine = run_programs(
            [slot_writer(8 * t, 200) for t in range(4)],
            mode=ProtocolMode.FSLITE, config=cfg)
        img = memory_image(machine)
        for t in range(4):
            assert read_u(img, LINE + 8 * t) == 200

    def test_subgranule_conflict_detected_at_coarse_grain(self):
        """Two cores writing different bytes of the SAME 4-byte granule
        must be treated as (conservative) true sharing at 4-byte grain."""
        cfg = small_config().with_protocol(tracking_granularity=4)

        def byte_writer(off):
            def prog():
                for i in range(200):
                    yield store(LINE + off, i & 0xFF, size=1)
                    yield compute(2)
            return prog()
        result, machine = run_programs([byte_writer(0), byte_writer(1)],
                                       mode=ProtocolMode.FSLITE, config=cfg)
        # Bytes 0 and 1 share granule 0: never privatizable at this grain.
        line = machine.home_slice(LINE).llc.peek(LINE).payload
        assert line.state != DirState.PRV


class TestReaderOptMode:
    def test_reader_opt_same_privatizations(self):
        progs = lambda: [slot_writer(8 * t, 250) for t in range(4)]
        full, _ = run_programs(progs(), mode=ProtocolMode.FSLITE)
        cfg = small_config().with_protocol(reader_metadata_opt=True)
        opt, machine = run_programs(progs(), mode=ProtocolMode.FSLITE,
                                    config=cfg)
        assert full.stats.privatizations == opt.stats.privatizations
        img = memory_image(machine)
        for t in range(4):
            assert read_u(img, LINE + 8 * t) == 250
