"""A small write buffer.

L1 controllers park evicted dirty blocks here until the directory
acknowledges the writeback — this is what makes the *phantom message* race
of Section V-D possible (a late intervention finds the block in the
writeback buffer, not the cache).
"""

from __future__ import annotations

from typing import Dict, Optional


class WriteBufferEntry:
    """One buffered writeback (built once per dirty eviction)."""

    __slots__ = ("block_addr", "data", "meta")

    def __init__(self, block_addr: int, data: bytearray, meta: dict) -> None:
        self.block_addr = block_addr
        self.data = data
        #: Per-entry annotations: ``prv`` (a PRV block's writeback) and
        #: ``pending_ops`` (accesses parked until the WB_ACK).
        self.meta = meta


class WriteBuffer:
    """Address-indexed buffer of in-flight block writebacks."""

    def __init__(self, capacity: int = 16) -> None:
        self.capacity = capacity
        self._entries: Dict[int, WriteBufferEntry] = {}
        self.inserts = 0
        self.peak_occupancy = 0

    def insert(self, block_addr: int, data: bytearray, **meta) -> WriteBufferEntry:
        if block_addr in self._entries:
            raise ValueError(f"block {block_addr:#x} already buffered")
        if len(self._entries) >= self.capacity:
            raise OverflowError("write buffer full")
        entry = WriteBufferEntry(block_addr, data, meta)
        self._entries[block_addr] = entry
        self.inserts += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return entry

    def get(self, block_addr: int) -> Optional[WriteBufferEntry]:
        return self._entries.get(block_addr)

    def remove(self, block_addr: int) -> WriteBufferEntry:
        return self._entries.pop(block_addr)

    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._entries

    def __len__(self) -> int:
        return len(self._entries)
