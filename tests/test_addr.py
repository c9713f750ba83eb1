"""Unit tests for address arithmetic helpers."""

from hypothesis import given, strategies as st

from repro.common.addr import (
    block_base,
    block_index,
    block_offset,
    slice_index,
)


class TestBlockArithmetic:
    def test_block_base_aligned(self):
        assert block_base(0x1000, 64) == 0x1000

    def test_block_base_unaligned(self):
        assert block_base(0x1033, 64) == 0x1000

    def test_block_offset(self):
        assert block_offset(0x1033, 64) == 0x33

    def test_block_index(self):
        assert block_index(0x1000, 64) == 0x40

    @given(st.integers(min_value=0, max_value=2**48),
           st.sampled_from([32, 64, 128]))
    def test_base_plus_offset_roundtrip(self, addr, bs):
        assert block_base(addr, bs) + block_offset(addr, bs) == addr

    @given(st.integers(min_value=0, max_value=2**48))
    def test_base_is_aligned(self, addr):
        assert block_base(addr, 64) % 64 == 0


class TestSliceIndex:
    def test_consecutive_blocks_interleave(self):
        slices = [slice_index(i * 64, 64, 8) for i in range(16)]
        assert slices == list(range(8)) * 2

    def test_single_slice(self):
        assert slice_index(0xABC0, 64, 1) == 0

    @given(st.integers(min_value=0, max_value=2**40),
           st.integers(min_value=1, max_value=16))
    def test_slice_in_range(self, addr, n):
        assert 0 <= slice_index(addr, 64, n) < n

