"""Unit tests for the directory-entry counters (Fig. 5c)."""

from repro.core.counters import DirEntryMeta


class TestFcIc:
    def test_bump_and_crossed(self):
        m = DirEntryMeta()
        for _ in range(16):
            m.bump_fc()
        assert m.fc == 16
        assert not m.crossed(16)  # IC still zero
        m.bump_ic(16)
        assert m.crossed(16)

    def test_saturation_resets_both(self):
        # "The directory controller also resets both FC and IC of a
        # directory entry if any of them saturates" (Section IV).
        m = DirEntryMeta(counter_max=127)
        m.bump_ic(50)
        for _ in range(127):
            m.bump_fc()
        assert m.fc == 0
        assert m.ic == 0

    def test_ic_saturation_resets_both(self):
        m = DirEntryMeta(counter_max=127)
        m.bump_fc()
        m.bump_ic(127)
        assert m.fc == 0 and m.ic == 0

    def test_manual_reset(self):
        m = DirEntryMeta()
        m.bump_fc()
        m.bump_ic(3)
        m.reset_fc_ic()
        assert m.fc == 0 and m.ic == 0


class TestHysteresis:
    def test_saturates_at_max(self):
        m = DirEntryMeta(hysteresis_max=3)
        for _ in range(10):
            m.bump_hc()
        assert m.hc == 3

    def test_decay_floors_at_zero(self):
        m = DirEntryMeta()
        m.decay_hc()
        assert m.hc == 0
        m.bump_hc()
        m.decay_hc()
        m.decay_hc()
        assert m.hc == 0


class TestPmmc:
    def test_expect_and_arrive(self):
        m = DirEntryMeta()
        m.expect_md(0b111)
        assert m.pmmc == 3
        assert m.md_arrived(1)
        assert m.pmmc == 2
        assert m.pending_md == 0b101

    def test_duplicate_arrival_idempotent(self):
        m = DirEntryMeta()
        m.expect_md(0b1)
        assert m.md_arrived(0)
        assert not m.md_arrived(0)
        assert m.pmmc == 0
        assert m.pending_md == 0

    def test_unexpected_arrival_ignored(self):
        m = DirEntryMeta()
        assert not m.md_arrived(5)
        assert m.pmmc == 0

    def test_expect_is_a_union(self):
        m = DirEntryMeta()
        m.expect_md(0b0011)
        m.expect_md(0b0110)
        assert m.pending_md == 0b0111
        assert m.pmmc == 3

    def test_no_instance_dict(self):
        assert not hasattr(DirEntryMeta(), "__dict__")
