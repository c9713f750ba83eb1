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


class ReferenceSam:
    """Per-granule model of a SAM entry: one last-writer slot and one
    reader record per granule, every predicate a loop over the granules.

    The reader record is a core bit-vector in the basic design and a last
    reader plus overflow flag under ``reader_opt`` (Section VI).  A
    REP_MD is checked on every granule of the block first and merged
    afterwards, so a core's own accesses never conflict with its fresh
    metadata.
    """

    def __init__(self, num_granules, num_cores, reader_opt):
        self.num_granules = num_granules
        self.num_cores = num_cores
        self.reader_opt = reader_opt
        self.last_conflict_mask = 0
        self.last_conflict_write = False
        self.clear()

    def clear(self):
        n = self.num_granules
        self.ts = False
        self.last_writer = [None] * n
        self.readers = [0] * n
        self.last_reader = [None] * n
        self.overflow = [False] * n

    def _add_reader(self, granule, core):
        if self.reader_opt:
            last = self.last_reader[granule]
            if last is not None and last != core:
                self.overflow[granule] = True
            self.last_reader[granule] = core
        else:
            self.readers[granule] |= 1 << core

    def _has_foreign_reader(self, granule, core):
        if self.reader_opt:
            last = self.last_reader[granule]
            return self.overflow[granule] or (last is not None
                                              and last != core)
        return bool(self.readers[granule] & ~(1 << core))

    def update_from_md(self, core, read_bits, write_bits):
        mask = 0
        conflict_write = False
        for granule in range(self.num_granules):
            writer = self.last_writer[granule]
            foreign_writer = writer is not None and writer != core
            if write_bits >> granule & 1:
                if foreign_writer or self._has_foreign_reader(granule, core):
                    mask |= 1 << granule
                    conflict_write = True
            elif read_bits >> granule & 1 and foreign_writer:
                mask |= 1 << granule
        for granule in range(self.num_granules):
            if write_bits >> granule & 1:
                self.last_writer[granule] = core
            if read_bits >> granule & 1:
                self._add_reader(granule, core)
        self.last_conflict_mask = mask
        self.last_conflict_write = conflict_write
        if mask:
            self.ts = True
        return mask != 0

    def check_write(self, core, gmask):
        for granule in iter_set_bits(gmask):
            writer = self.last_writer[granule]
            if writer is None:
                if self._has_foreign_reader(granule, core):
                    return False
            elif writer != core:
                return False
        return True

    def check_read(self, core, gmask):
        return all(self.last_writer[g] in (None, core)
                   for g in iter_set_bits(gmask))

    def record_write(self, core, gmask):
        for granule in iter_set_bits(gmask):
            self.last_writer[granule] = core

    def record_read(self, core, gmask):
        for granule in iter_set_bits(gmask):
            self._add_reader(granule, core)

    def last_writer_map(self):
        return list(self.last_writer)

    def accessor_cores(self):
        cores = {w for w in self.last_writer if w is not None}
        for granule in range(self.num_granules):
            if self.reader_opt:
                if self.last_reader[granule] is not None:
                    cores.add(self.last_reader[granule])
            else:
                cores.update(iter_set_bits(self.readers[granule]))
        return cores

    def reader_state(self):
        """Per granule, the recorded readers and whether more than one
        core has read it (the overflow bit, under ``reader_opt``)."""
        if self.reader_opt:
            return [(set() if last is None else {last}, overflow)
                    for last, overflow in zip(self.last_reader,
                                              self.overflow)]
        return [(set(iter_set_bits(bits)), bits.bit_count() > 1)
                for bits in self.readers]

    def entry_bits(self):
        log_c = max(1, (self.num_cores - 1).bit_length())
        readers = log_c + 2 if self.reader_opt else self.num_cores
        return (1 + log_c + readers) * self.num_granules + 1


def check_matrix(e, granules):
    """Per core, the granules of ``granules`` that pass GetXCHK and GetCHK
    on their own: the public view of every granule's writer and readers."""
    return [(sum(1 << g for g in granules if e.check_write(core, 1 << g)),
             sum(1 << g for g in granules if e.check_read(core, 1 << g)))
            for core in range(e.num_cores)]


def assert_same_views(e, ref, gmask):
    """Every public view of ``e`` equals the reference's.  The per-granule
    GetXCHK/GetCHK verdicts cover the granules of ``gmask``."""
    assert e.ts == ref.ts
    assert e.last_conflict_mask == ref.last_conflict_mask
    assert e.last_conflict_write == ref.last_conflict_write
    assert e.last_writer_map() == ref.last_writer_map()
    assert e.accessor_cores() == ref.accessor_cores()
    granules = list(iter_set_bits(gmask))
    assert check_matrix(e, granules) == check_matrix(ref, granules)


def reader_state(e):
    """:meth:`ReferenceSam.reader_state` read off a SAM entry's masks."""
    return [({core for core, reads in enumerate(e.read_masks)
              if reads >> granule & 1}, bool(e.read_multi >> granule & 1))
            for granule in range(e.num_granules)]


def apply_step(e, step):
    """Run one history step; returns the call's result."""
    kind, core, a, b = step
    if kind == "md":
        return e.update_from_md(core, a, b)
    if kind == "read":
        return e.record_read(core, a)
    if kind == "write":
        return e.record_write(core, a)
    if kind == "chk_write":
        return e.check_write(core, a)
    if kind == "chk_read":
        return e.check_read(core, a)
    return e.clear()


def _mask(bits):
    """A random granule mask, or one or two granules like a REP_MD or a
    PRV access to a word."""
    granule = st.integers(0, bits - 1)
    return st.one_of(st.integers(0, (1 << bits) - 1),
                     st.builds(lambda a, b: 1 << a | 1 << b, granule,
                               granule))


def _history(kinds=("md", "read", "write", "chk_write", "chk_read",
                    "clear")):
    """Steps ``(kind, core, mask_a, mask_b)`` over 8 cores and 64
    granules; :func:`fit` folds them onto smaller shapes."""
    return st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 7),
                              _mask(64), _mask(64)),
                    max_size=16)


def fit(step, granules, cores):
    kind, core, a, b = step
    full = (1 << granules) - 1
    return kind, core % cores, a & full, b & full


SHAPES = [(g, c) for g in (64, 32, 16) for c in (2, 4, 8)]


@pytest.mark.parametrize("reader_opt", [False, True],
                         ids=["full", "reader_opt"])
@pytest.mark.parametrize("granules,cores", SHAPES,
                         ids=[f"{g}g{c}c" for g, c in SHAPES])
@settings(max_examples=25, deadline=None)
@given(history=_history())
def test_property_matches_per_granule_reference(granules, cores, reader_opt,
                                                history):
    """Over random histories of REP_MD merges, PRV-state checks and
    records, and resets, every call returns what the per-granule
    reference returns, and afterwards every public view matches: TS bit,
    conflict mask and kind, last-writer map, accessor set, storage bits,
    and each core's single-granule GetXCHK/GetCHK verdicts (checked on
    the step's granules after each step, on all granules at the end)."""
    e = SamEntry(granules, cores, reader_opt)
    ref = ReferenceSam(granules, cores, reader_opt)
    assert e.entry_bits() == ref.entry_bits()
    for step in history:
        step = fit(step, granules, cores)
        assert apply_step(e, step) == apply_step(ref, step)
        assert_same_views(e, ref, step[2] | step[3])
    assert_same_views(e, ref, (1 << granules) - 1)


_MD = st.tuples(st.integers(0, 7), _mask(64), _mask(64))


@settings(max_examples=200, deadline=None)
@given(st.booleans(), _history(("md", "read", "write")),
       st.lists(_MD, min_size=1, max_size=8))
def test_property_update_from_md_matches_all_granule_loop(
        reader_opt, history, merges):
    """Over random prior histories (REP_MD merges and PRV-state record_*
    calls) and both reader encodings, the bit-sliced merge returns the
    same verdict and leaves the same TS bit, conflict mask/kind, last
    writers and reader state as the all-granule reference loop."""
    e = SamEntry(num_granules=64, num_cores=8, reader_opt=reader_opt)
    ref = ReferenceSam(64, 8, reader_opt)
    for step in history:
        apply_step(e, step)
        apply_step(ref, step)
    for core, read_bits, write_bits in merges:
        assert (e.update_from_md(core, read_bits, write_bits)
                is ref.update_from_md(core, read_bits, write_bits))
        assert_same_views(e, ref, read_bits | write_bits)
        assert reader_state(e) == ref.reader_state()


@settings(max_examples=200, deadline=None)
@given(st.booleans(), _history(("md", "read", "write")),
       st.booleans())
def test_property_accessor_cores_matches_per_granule_loop(
        reader_opt, history, cleared_midway):
    """Over random histories of REP_MD merges, PRV-state record_* calls
    and resets, in both reader encodings, the mask-derived accessor set
    equals the union of every granule's last writer and reader set."""
    e = SamEntry(num_granules=64, num_cores=8, reader_opt=reader_opt)
    ref = ReferenceSam(64, 8, reader_opt)
    assert e.accessor_cores() == set()
    for index, step in enumerate(history):
        apply_step(e, step)
        apply_step(ref, step)
        if cleared_midway and index == len(history) // 2:
            e.clear()
            ref.clear()
        assert e.accessor_cores() == ref.accessor_cores()
    assert reader_state(e) == ref.reader_state()


class TestLifecycle:
    def test_clear_resets_everything(self):
        e = entry()
        e.update_from_md(0, 0b1, 0b10)
        e.update_from_md(1, 0, 0b10)
        assert e.ts
        e.clear()
        assert not e.ts
        assert e.check_write(3, 0xFF)

    def test_last_writer_map_snapshot(self):
        e = entry()
        e.record_write(2, 0b0101)
        snap = e.last_writer_map()
        e.record_write(3, 0b0101)
        assert snap[0] == 2 and snap[2] == 2
        assert e.last_writer_map()[0] == 3


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
