"""Memory-system building blocks: LRU set-associative arrays, DRAM, buffers."""

from repro.memsys.cache_array import CacheArray, CacheEntry, LruPolicy
from repro.memsys.main_memory import MainMemory
from repro.memsys.write_buffer import WriteBuffer

__all__ = [
    "CacheArray",
    "CacheEntry",
    "MainMemory",
    "LruPolicy",
    "WriteBuffer",
]
