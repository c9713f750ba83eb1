"""Private access metadata (PAM) table — Section IV, Figure 5a.

One PAM table per core, one entry per resident L1D block. An entry holds one
read bit and one write bit per tracking granule (a byte by default; 2- or
4-byte granules under the coarse-tracking optimization of Section VIII-B)
plus the SEND_MD bit that gates metadata transmission on eviction.

The L1 cache controller allocates an entry when a block fills and
invalidates it when the block leaves the cache, so occupancy can never
exceed the number of L1D blocks (512 for the Table II configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ProtocolError


def granule_mask(byte_mask: int, granularity: int, block_size: int) -> int:
    """Collapse a per-byte mask to a per-granule mask."""
    if granularity == 1:
        return byte_mask
    out = 0
    granules = block_size // granularity
    for g in range(granules):
        chunk = (byte_mask >> (g * granularity)) & ((1 << granularity) - 1)
        if chunk:
            out |= 1 << g
    return out


def expand_granule_mask(gmask: int, granularity: int, block_size: int) -> int:
    """Expand a per-granule mask back to a per-byte mask."""
    if granularity == 1:
        return gmask
    out = 0
    full = (1 << granularity) - 1
    granules = block_size // granularity
    for g in range(granules):
        if gmask & (1 << g):
            out |= full << (g * granularity)
    return out


class PamEntry:
    """Per-block read/write granule bits plus the SEND_MD bit.

    A ``__slots__`` class: entries are touched on every detected-mode
    memory access, and the hot path reads/ORs the bit fields directly.
    """

    __slots__ = ("read_bits", "write_bits", "send_md")

    def __init__(self, read_bits: int = 0, write_bits: int = 0,
                 send_md: bool = False) -> None:
        self.read_bits = read_bits
        self.write_bits = write_bits
        self.send_md = send_md

    def record_read(self, gmask: int) -> None:
        self.read_bits |= gmask

    def record_write(self, gmask: int) -> None:
        self.write_bits |= gmask

    def covered_for_read(self, gmask: int) -> bool:
        """True if every granule has its read *or* write bit set (Section V-B:
        a load needs a GetCHK only for bytes with neither bit set)."""
        return ((self.read_bits | self.write_bits) & gmask) == gmask

    def covered_for_write(self, gmask: int) -> bool:
        """True if every granule already has its write bit set."""
        return (self.write_bits & gmask) == gmask

    def clear(self) -> None:
        self.read_bits = 0
        self.write_bits = 0
        self.send_md = False

    @property
    def empty(self) -> bool:
        return self.read_bits == 0 and self.write_bits == 0


class PamTable:
    """Address-indexed PAM entries, capacity-bounded to the L1D block count."""

    def __init__(self, capacity: int, granularity: int, block_size: int) -> None:
        self.capacity = capacity
        self.granularity = granularity
        self.block_size = block_size
        self._entries: Dict[int, PamEntry] = {}
        self.allocations = 0
        self.md_sends = 0

    @property
    def num_granules(self) -> int:
        return self.block_size // self.granularity

    def allocate(self, block_addr: int) -> PamEntry:
        """Create a fresh entry for a newly filled block."""
        if block_addr in self._entries:
            raise ProtocolError(
                f"PAM entry for block {block_addr:#x} already exists")
        if len(self._entries) >= self.capacity:
            raise ProtocolError("PAM table over capacity: L1 fill without evict")
        entry = PamEntry()
        self._entries[block_addr] = entry
        self.allocations += 1
        return entry

    def get(self, block_addr: int) -> Optional[PamEntry]:
        return self._entries.get(block_addr)

    def invalidate(self, block_addr: int) -> Optional[PamEntry]:
        """Drop the entry (block evicted/invalidated); return its last state."""
        return self._entries.pop(block_addr, None)

    def record_access(self, block_addr: int, byte_mask: int, is_write: bool) -> None:
        """Set R/W bits for an access; the entry must exist (block resident)."""
        entry = self._entries.get(block_addr)
        if entry is None:
            raise ProtocolError(
                f"access to block {block_addr:#x} with no PAM entry")
        gmask = (byte_mask if self.granularity == 1
                 else granule_mask(byte_mask, self.granularity,
                                   self.block_size))
        if is_write:
            entry.write_bits |= gmask
        else:
            entry.read_bits |= gmask

    def to_granule_mask(self, byte_mask: int) -> int:
        return granule_mask(byte_mask, self.granularity, self.block_size)

    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry_bits(self) -> int:
        """Storage cost of one entry in bits (2 bits/granule + SEND_MD)."""
        return 2 * self.num_granules + 1

    # -- fault-injection seams (:mod:`repro.faults`) -------------------------

    def resident_blocks(self) -> list:
        """Sorted resident block addresses (deterministic fault targeting)."""
        return sorted(self._entries)

    def fault_clear(self, block_addr: int) -> bool:
        """Zero a resident entry's R/W bits; return True if bits were lost.

        Clearing is the only legal corruption: PAM bits are advisory (lost
        bits cost extra CHK/metadata traffic, never stale data), while
        *removing* the entry would break the resident-block <-> PAM-entry
        pairing the L1 controller relies on.  SEND_MD is kept so eviction
        behaviour stays a pure function of directory requests.
        """
        entry = self._entries.get(block_addr)
        if entry is None or entry.empty:
            return False
        entry.read_bits = 0
        entry.write_bits = 0
        return True
