"""Unit tests for the PAM table (Section IV, Fig. 5a)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ProtocolError
from repro.core.pam import PamTable, expand_granule_mask, granule_mask
from repro.cpu.ops import load, store
from repro.interconnect.message import MessageType

from _helpers import L1Harness


class TestGranuleMask:
    def test_byte_granularity_identity(self):
        assert granule_mask(0xF0, 1, 64) == 0xF0

    def test_four_byte_granules(self):
        # Bytes 4-7 -> granule 1 of 16.
        assert granule_mask(0xF0, 4, 64) == 0b10

    def test_partial_granule_touch_sets_granule(self):
        assert granule_mask(0x10, 4, 64) == 0b10

    def test_expand_roundtrip(self):
        g = granule_mask(0xFF00, 4, 64)
        expanded = expand_granule_mask(g, 4, 64)
        assert expanded == 0xFF00

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.sampled_from([1, 2, 4]))
    def test_expansion_covers_original(self, byte_mask, gran):
        g = granule_mask(byte_mask, gran, 64)
        expanded = expand_granule_mask(g, gran, 64)
        assert expanded & byte_mask == byte_mask


#: The block the L1-driven tests below fill.
BLOCK = 0x1000


def _filled(response=MessageType.DATA_E, first=None, granularity=1):
    """An L1 whose first access (default: a 4-byte load of byte 0) missed
    and was filled by ``response``."""
    h = L1Harness(granularity=granularity)
    h.issue(first or load(BLOCK))
    h.inject(response, BLOCK, data=bytes(64))
    h.sent_types()
    return h


class TestPamTable:
    """The table's own bookkeeping, and (driving an L1, the only code that
    sets PAM bits) the bits accesses leave and the coverage they give."""

    def make(self, capacity=8, granularity=1):
        return PamTable(capacity=capacity, granularity=granularity,
                        block_size=64)

    def test_allocate_and_record(self):
        h = L1Harness()
        assert h.l1.pam.get(BLOCK) is None
        h.issue(load(BLOCK))
        h.inject(MessageType.DATA_E, BLOCK, data=bytes(64))
        assert h.l1.pam.allocations == 1
        h.issue(store(BLOCK + 4, 1))
        assert h.pam_bits(BLOCK) == (0x0F, 0xF0)

    def test_double_allocate_rejected(self):
        pam = self.make()
        pam.allocate(0)
        with pytest.raises(ProtocolError):
            pam.allocate(0)

    def test_capacity_enforced(self):
        pam = self.make(capacity=2)
        pam.allocate(0)
        pam.allocate(64)
        with pytest.raises(ProtocolError):
            pam.allocate(128)

    def test_invalidate_frees_capacity(self):
        pam = self.make(capacity=1)
        pam.allocate(0)
        assert pam.invalidate(0) is not None
        pam.allocate(64)

    def test_access_without_entry_rejected(self):
        h = _filled()
        h.l1.pam.invalidate(BLOCK)
        with pytest.raises(ProtocolError, match="no PAM entry"):
            h.issue(load(BLOCK))
        h = _filled(MessageType.DATA_PRV)
        h.l1.pam.invalidate(BLOCK)
        with pytest.raises(ProtocolError, match="without a PAM entry"):
            h.issue(load(BLOCK))

    def test_covered_for_read_accepts_either_bit(self):
        h = _filled(MessageType.DATA_PRV, load(BLOCK, size=1))
        h.issue(store(BLOCK + 1, 1, size=1))
        h.sent_types()
        h.inject(MessageType.ACK_PRV, BLOCK)
        assert h.pam_bits(BLOCK) == (0x1, 0x2)
        h.issue(load(BLOCK, size=2))
        assert h.sent_types() == []
        h.issue(load(BLOCK, size=4))
        assert h.sent_types() == [MessageType.GETCHK]

    def test_covered_for_write_needs_write_bit(self):
        h = _filled(MessageType.DATA_PRV, load(BLOCK, size=1))
        h.issue(store(BLOCK, 1, size=1))
        assert h.sent_types() == [MessageType.GETXCHK]
        h.inject(MessageType.ACK_PRV, BLOCK)
        h.issue(store(BLOCK, 2, size=1))
        assert h.sent_types() == []

    def test_coarse_granularity_collapses(self):
        # Byte 0 -> granule 0: the whole granule is now write-covered.
        h = _filled(MessageType.DATA_PRV, store(BLOCK, 1, size=1),
                    granularity=4)
        assert h.pam_bits(BLOCK) == (0, 0b1)
        h.issue(store(BLOCK, 2, size=4))
        assert h.sent_types() == []

    def test_entry_bits_table2(self):
        # 64-byte lines at byte granularity: 2*64 + 1 = 129 bits (paper).
        pam = PamTable(capacity=512, granularity=1, block_size=64)
        assert pam.entry_bits() == 129

    def test_entry_bits_coarse(self):
        pam = PamTable(capacity=512, granularity=4, block_size=64)
        assert pam.entry_bits() == 33

    def test_clear(self):
        # TR_PRV starts a privatized episode with empty PAM bits.
        h = _filled(first=store(BLOCK, 0xFF, size=8))
        assert not h.l1.pam.get(BLOCK).empty
        h.inject(MessageType.TR_PRV, BLOCK)
        assert h.l1.pam.get(BLOCK).empty
