"""Unit tests for configuration dataclasses and validation."""

import pytest

from repro.common.config import (
    CacheConfig,
    EnergyConfig,
    ProtocolConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError


class TestCacheConfig:
    def test_table2_l1_geometry(self):
        l1 = CacheConfig(size_bytes=32 * 1024, associativity=8)
        assert l1.num_blocks == 512
        assert l1.num_sets == 64

    def test_table2_llc_geometry(self):
        llc = CacheConfig(size_bytes=16 * 1024 * 1024, associativity=16)
        assert llc.num_blocks == 256 * 1024

    def test_rejects_non_pow2_block(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, associativity=2, block_size=48)

    @pytest.mark.parametrize("block_size", [1, 2, 4])
    def test_rejects_block_smaller_than_widest_access(self, block_size):
        # An aligned 8-byte access must never straddle a block.
        with pytest.raises(ConfigError, match="at least 8"):
            CacheConfig(size_bytes=1024, associativity=2,
                        block_size=block_size)

    def test_accepts_eight_byte_block(self):
        assert CacheConfig(size_bytes=1024, associativity=2,
                           block_size=8).num_blocks == 128

    def test_rejects_fractional_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, associativity=3)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, associativity=1, tag_latency=-1)


class TestProtocolConfig:
    def test_paper_defaults(self):
        p = ProtocolConfig()
        assert p.tau_p == 16
        assert p.tau_r1 == 16
        assert p.tau_r2 == 127
        assert p.counter_max == 127
        assert p.sam_entries == 128

    def test_rejects_tau_r2_below_r1(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(tau_r1=50, tau_r2=20)

    def test_rejects_unreachable_threshold(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(tau_p=200, counter_max=127)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(tracking_granularity=3)

    @pytest.mark.parametrize("gran", [1, 2, 4])
    def test_valid_granularities(self, gran):
        assert ProtocolConfig(tracking_granularity=gran)


class TestSystemConfig:
    def test_defaults_match_table2(self):
        cfg = SystemConfig()
        d = cfg.describe()
        assert d["cores"] == 8
        assert d["l1d_kb"] == 32
        assert d["llc_mb"] == 16
        assert d["block_size"] == 64
        assert d["tau_p"] == 16

    def test_with_protocol_replaces(self):
        cfg = SystemConfig().with_protocol(tau_p=32)
        assert cfg.protocol.tau_p == 32
        assert SystemConfig().protocol.tau_p == 16  # original untouched

    def test_with_l1_size(self):
        cfg = SystemConfig().with_l1_size(128 * 1024)
        assert cfg.l1.size_bytes == 128 * 1024
        assert cfg.l1.associativity == 8

    def test_rejects_mismatched_block_sizes(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                l1=CacheConfig(size_bytes=1024, associativity=1,
                               block_size=32),
                llc=CacheConfig(size_bytes=4096, associativity=1,
                                block_size=64))

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=0)


class TestEnergyConfig:
    def test_defaults_positive(self):
        e = EnergyConfig()
        assert e.l1_read_nj > 0
        assert e.dram_access_nj > e.llc_read_nj > e.l1_read_nj
