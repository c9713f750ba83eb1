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
    memory access.  The L1 controller reads and ORs the bit fields
    directly; ``L1Controller._perform`` is the one place an access sets
    them, and a TR_PRV resets them.
    """

    __slots__ = ("read_bits", "write_bits", "send_md")

    def __init__(self, read_bits: int = 0, write_bits: int = 0,
                 send_md: bool = False) -> None:
        self.read_bits = read_bits
        self.write_bits = write_bits
        self.send_md = send_md

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

    #: Not an update rule: accesses set PAM bits only inline in
    #: ``L1Controller._perform``.  The name stays because
    #: ``benchmarks/e2e/test_e2e.py`` checks that its wrappers leave it
    #: alone; it goes with that file's next change.
    record_access = None

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
