"""Shared utilities: addresses, bit vectors, configuration, events, errors."""

from repro.common.addr import (
    block_base,
    block_index,
    block_offset,
    slice_index,
)
from repro.common.bitvec import (
    bit_count,
    bits_set,
    iter_set_bits,
    mask_for_range,
)
from repro.common.config import (
    CacheConfig,
    EnergyConfig,
    ProtocolConfig,
    SystemConfig,
)
from repro.common.errors import (
    ConfigError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.common.events import EventQueue

__all__ = [
    "block_base",
    "block_index",
    "block_offset",
    "slice_index",
    "bit_count",
    "bits_set",
    "iter_set_bits",
    "mask_for_range",
    "CacheConfig",
    "EnergyConfig",
    "ProtocolConfig",
    "SystemConfig",
    "ConfigError",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "EventQueue",
]
