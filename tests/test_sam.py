"""Unit and property tests for the SAM table (Section IV/VI, Fig. 5b)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitvec import iter_set_bits
from repro.core.sam import SamEntry, SamTable


def entry(reader_opt=False, granules=8, cores=4):
    return SamEntry(num_granules=granules, num_cores=cores,
                    reader_opt=reader_opt)


class TestUpdateFromMd:
    """The Section IV true-sharing conditions."""

    def test_disjoint_writers_no_conflict(self):
        e = entry()
        assert not e.update_from_md(0, read_bits=0, write_bits=0b0001)
        assert not e.update_from_md(1, read_bits=0, write_bits=0b0010)
        assert not e.ts

    def test_write_write_same_byte_conflicts(self):
        e = entry()
        e.update_from_md(0, 0, 0b0001)
        assert e.update_from_md(1, 0, 0b0001)
        assert e.ts

    def test_read_after_foreign_write_conflicts(self):
        e = entry()
        e.update_from_md(0, 0, 0b0001)
        assert e.update_from_md(1, 0b0001, 0)
        assert e.ts

    def test_write_after_foreign_read_conflicts(self):
        e = entry()
        e.update_from_md(0, 0b0001, 0)
        assert e.update_from_md(1, 0, 0b0001)
        assert e.ts

    def test_own_read_write_no_conflict(self):
        e = entry()
        assert not e.update_from_md(0, 0b0011, 0b0011)
        assert not e.update_from_md(0, 0b0011, 0b0011)

    def test_shared_readonly_no_conflict(self):
        e = entry()
        for core in range(4):
            assert not e.update_from_md(core, 0b1111, 0)
        assert not e.ts

    def test_same_core_rewrite_no_conflict(self):
        e = entry()
        e.update_from_md(2, 0, 0b0100)
        assert not e.update_from_md(2, 0, 0b0100)


class TestPrvChecks:
    """The Section V-B GetCHK/GetXCHK predicates."""

    def test_write_ok_untouched(self):
        assert entry().check_write(0, 0b0001)

    def test_write_ok_own_last_writer(self):
        e = entry()
        e.record_write(0, 0b0001)
        assert e.check_write(0, 0b0001)

    def test_write_blocked_foreign_writer(self):
        e = entry()
        e.record_write(1, 0b0001)
        assert not e.check_write(0, 0b0001)

    def test_write_blocked_foreign_reader(self):
        e = entry()
        e.record_read(1, 0b0001)
        assert not e.check_write(0, 0b0001)

    def test_write_ok_self_reader(self):
        e = entry()
        e.record_read(0, 0b0001)
        assert e.check_write(0, 0b0001)

    def test_read_ok_no_writer(self):
        e = entry()
        e.record_read(1, 0b0001)  # readers don't block reads
        assert e.check_read(0, 0b0001)

    def test_read_blocked_foreign_writer(self):
        e = entry()
        e.record_write(1, 0b0001)
        assert not e.check_read(0, 0b0001)

    def test_read_ok_own_writer(self):
        e = entry()
        e.record_write(0, 0b0001)
        assert e.check_read(0, 0b0001)

    def test_multigranule_mask_all_must_pass(self):
        e = entry()
        e.record_write(1, 0b0010)
        assert not e.check_write(0, 0b0011)
        assert e.check_write(0, 0b0001)


class TestReaderOptEncoding:
    """Last-reader + overflow (Section VI) must be conservative: it may
    report spurious conflicts, never miss a real one."""

    def test_single_reader_tracked(self):
        e = entry(reader_opt=True)
        e.record_read(1, 0b0001)
        # The single tracked reader may write its own byte...
        assert e.check_write(1, 0b0001)
        # ...but a different core may not.
        assert not e.check_write(0, 0b0001)

    def test_overflow_blocks_everyone(self):
        e = entry(reader_opt=True)
        e.record_read(1, 0b0001)
        e.record_read(2, 0b0001)
        # Overflow set: even core 2 (the last reader) now sees a foreign
        # reader, which is the conservative behaviour.
        assert not e.check_write(3, 0b0001)

    def test_same_reader_twice_no_overflow(self):
        e = entry(reader_opt=True)
        e.record_read(1, 0b0001)
        e.record_read(1, 0b0001)
        assert e.check_write(1, 0b0001)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                              st.integers(1, 0xFF)),
                    min_size=1, max_size=20),
           st.integers(0, 3), st.integers(1, 0xFF))
    def test_property_opt_conservative(self, history, core, mask):
        """Whenever the full encoding flags a conflict, the optimized one
        must too (on identical access histories)."""
        full, opt = entry(reader_opt=False), entry(reader_opt=True)
        for actor, is_write, m in history:
            if is_write:
                full.record_write(actor, m)
                opt.record_write(actor, m)
            else:
                full.record_read(actor, m)
                opt.record_read(actor, m)
        if not full.check_write(core, mask):
            assert not opt.check_write(core, mask)
        if not full.check_read(core, mask):
            assert not opt.check_read(core, mask)
        # Reads are writer-based only: identical in both encodings.
        assert full.check_read(core, mask) == opt.check_read(core, mask)


def reference_update_from_md(e, core, read_bits, write_bits):
    """The all-granule REP_MD merge :meth:`SamEntry.update_from_md` must
    reproduce: check every granule of the block, then merge every granule."""
    conflict = False
    e.last_conflict_mask = 0
    e.last_conflict_write = False
    for granule in range(e.num_granules):
        bit = 1 << granule
        was_read = bool(read_bits & bit)
        was_written = bool(write_bits & bit)
        if not (was_read or was_written):
            continue
        writer = e.last_writer[granule]
        if was_written:
            if writer is not None and writer != core:
                conflict = True
                e.last_conflict_mask |= bit
                e.last_conflict_write = True
            if e._has_foreign_reader(granule, core):
                conflict = True
                e.last_conflict_mask |= bit
                e.last_conflict_write = True
        elif was_read:
            if writer is not None and writer != core:
                conflict = True
                e.last_conflict_mask |= bit
    for granule in range(e.num_granules):
        bit = 1 << granule
        if write_bits & bit:
            e.last_writer[granule] = core
        if read_bits & bit:
            e._add_reader(granule, core)
    if conflict:
        e.ts = True
    return conflict


_MD = st.tuples(st.integers(0, 7), st.integers(0, (1 << 64) - 1),
                st.integers(0, (1 << 64) - 1))
_HISTORY_STEP = st.tuples(st.sampled_from(["md", "read", "write"]),
                          st.integers(0, 7), st.integers(0, (1 << 64) - 1),
                          st.integers(0, (1 << 64) - 1))


def _sparse_mask(bits):
    """Masks with few set bits, like a REP_MD for a word or two."""
    return st.lists(st.integers(0, bits - 1), max_size=6).map(
        lambda gs: sum(1 << g for g in set(gs)))


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(_HISTORY_STEP, max_size=12),
       st.lists(st.one_of(_MD, st.tuples(st.integers(0, 7), _sparse_mask(64),
                                         _sparse_mask(64))),
                min_size=1, max_size=8))
def test_property_update_from_md_matches_all_granule_loop(
        reader_opt, history, merges):
    """Over random prior histories (REP_MD merges and PRV-state record_*
    calls) and both reader encodings, the touched-granule merge returns
    the same verdict and leaves the same TS bit, conflict mask/kind, last
    writers and reader state as the all-granule reference loop."""
    fast = SamEntry(num_granules=64, num_cores=8, reader_opt=reader_opt)
    ref = SamEntry(num_granules=64, num_cores=8, reader_opt=reader_opt)
    for kind, core, a, b in history:
        for e in (fast, ref):
            if kind == "md":
                reference_update_from_md(e, core, a, b)
            elif kind == "read":
                e.record_read(core, a)
            else:
                e.record_write(core, a)
    for core, read_bits, write_bits in merges:
        got = fast.update_from_md(core, read_bits, write_bits)
        want = reference_update_from_md(ref, core, read_bits, write_bits)
        assert got is want
        assert fast.ts == ref.ts
        assert fast.last_conflict_mask == ref.last_conflict_mask
        assert fast.last_conflict_write == ref.last_conflict_write
        assert fast.last_writer == ref.last_writer
        assert fast.readers == ref.readers
        assert fast.last_reader == ref.last_reader
        assert fast.overflow == ref.overflow


def reference_accessor_cores(e):
    """The per-granule loop ``FalseSharingDetector.report`` and
    ``_record_contended`` ran before ``SamEntry.accessor_cores``."""
    cores = set()
    for granule in range(e.num_granules):
        writer = e.last_writer[granule]
        if writer is not None:
            cores.add(writer)
        if e.reader_opt:
            if e.last_reader[granule] is not None:
                cores.add(e.last_reader[granule])
        else:
            cores.update(iter_set_bits(e.readers[granule]))
    return cores


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(_HISTORY_STEP, max_size=16),
       st.booleans())
def test_property_accessor_cores_matches_per_granule_loop(
        reader_opt, history, cleared_midway):
    """Over random histories of REP_MD merges, PRV-state record_* calls
    and resets, in both reader encodings, the one-pass accessor set equals
    the union of every granule's last writer and reader set."""
    e = SamEntry(num_granules=64, num_cores=8, reader_opt=reader_opt)
    assert e.accessor_cores() == set()
    for step, (kind, core, a, b) in enumerate(history):
        if kind == "md":
            e.update_from_md(core, a, b)
        elif kind == "read":
            e.record_read(core, a)
        else:
            e.record_write(core, a)
        if cleared_midway and step == len(history) // 2:
            e.clear()
        assert e.accessor_cores() == reference_accessor_cores(e)


class TestLifecycle:
    def test_clear_resets_everything(self):
        e = entry()
        e.update_from_md(0, 0b1, 0b10)
        e.update_from_md(1, 0, 0b10)
        assert e.ts
        e.clear()
        assert not e.ts
        assert e.check_write(3, 0xFF)

    def test_remove_core_clears_writer(self):
        e = entry()
        e.record_write(1, 0b0001)
        e.remove_core(1)
        assert e.check_write(0, 0b0001)

    def test_remove_core_clears_reader_full_mode(self):
        e = entry()
        e.record_read(1, 0b0001)
        e.remove_core(1)
        assert e.check_write(0, 0b0001)

    def test_remove_core_conservative_in_opt_mode(self):
        e = entry(reader_opt=True)
        e.record_read(1, 0b0001)
        e.remove_core(1)
        # The encoding cannot remove readers; the spurious block is allowed.
        assert not e.check_write(0, 0b0001)

    def test_last_writer_map_snapshot(self):
        e = entry()
        e.record_write(2, 0b0101)
        snap = e.last_writer_map()
        e.record_write(3, 0b0101)
        assert snap[0] == 2 and snap[2] == 2
        assert e.last_writer[0] == 3


class TestEntryBits:
    def test_paper_basic_size(self):
        # 8 cores, 64 byte-granules: (8+1+3)*64 + 1 = 769 bits.
        e = SamEntry(num_granules=64, num_cores=8)
        assert e.entry_bits() == 769

    def test_paper_optimized_size(self):
        # (3+2 + 1+3)*64 + 1 = 577 bits, a 25% saving.
        e = SamEntry(num_granules=64, num_cores=8, reader_opt=True)
        assert e.entry_bits() == 577
        full = SamEntry(num_granules=64, num_cores=8).entry_bits()
        assert 1 - e.entry_bits() / full == pytest.approx(0.25, abs=0.01)


class TestSamTable:
    def make(self, sets=2, ways=2):
        return SamTable(sets=sets, ways=ways, block_size=64, num_granules=64,
                        num_cores=4)

    def test_allocate_get(self):
        t = self.make()
        e, evb, eve = t.allocate(0x1000)
        assert evb is None
        assert t.get(0x1000) is e

    def test_allocate_existing_returns_same(self):
        t = self.make()
        e1, _, _ = t.allocate(0)
        e2, _, _ = t.allocate(0)
        assert e1 is e2
        assert t.allocations == 1

    def test_eviction_reported(self):
        t = self.make(sets=1, ways=1)
        t.allocate(0)
        _, evicted_block, evicted_entry = t.allocate(64)
        assert evicted_block == 0
        assert evicted_entry is not None
        assert t.valid_replacements == 1

    def test_replacement_rate(self):
        t = self.make(sets=1, ways=1)
        t.allocate(0)
        t.allocate(64)
        assert t.replacement_rate == 0.5

    def test_invalidate(self):
        t = self.make()
        t.allocate(0)
        assert t.invalidate(0) is not None
        assert t.peek(0) is None
