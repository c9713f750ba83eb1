"""Shared access metadata (SAM) table — Section IV, Figure 5b.

One SAM table per LLC/directory slice, organised as a small set-associative
cache (8 sets x 16 ways by default) with LRU replacement. An entry tracks,
per granule of the block:

* the valid *last writer* core id, and
* the reader set — either a full per-core bit-vector (basic design) or the
  *last reader + overflow bit* encoding of the Section VI optimization,

plus a block-level TS (true-sharing) bit.

The entry exposes the paper's three conflict predicates:

* :meth:`update_from_md` — REP_MD ingestion with the Section IV true-sharing
  conditions,
* :meth:`check_write` / :meth:`check_read` — the PRV-state GetXCHK / GetCHK
  conditions of Section V-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.common.bitvec import iter_set_bits
from repro.memsys.cache_array import CacheArray


@dataclass
class SamEntry:
    """Per-block shared access metadata."""

    num_granules: int
    num_cores: int
    #: Last-reader + overflow encoding instead of a full reader bit-vector.
    reader_opt: bool = False
    ts: bool = False
    #: Granules involved in the most recent update_from_md conflict.
    last_conflict_mask: int = 0
    last_conflict_write: bool = False
    last_writer: List[Optional[int]] = field(default_factory=list)
    # Full-reader-vector mode: per-granule bit-vector of reader cores.
    readers: List[int] = field(default_factory=list)
    # Reader-opt mode: per-granule last reader and overflow flag.
    last_reader: List[Optional[int]] = field(default_factory=list)
    overflow: List[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.last_writer = [None] * self.num_granules
        if self.reader_opt:
            self.last_reader = [None] * self.num_granules
            self.overflow = [False] * self.num_granules
        else:
            self.readers = [0] * self.num_granules

    # -- reader-set primitives (encode-agnostic) -----------------------------

    def _add_reader(self, granule: int, core: int) -> None:
        if self.reader_opt:
            last = self.last_reader[granule]
            if last is not None and last != core:
                self.overflow[granule] = True
            self.last_reader[granule] = core
        else:
            self.readers[granule] |= 1 << core

    def _has_foreign_reader(self, granule: int, core: int) -> bool:
        """True if some core other than ``core`` is recorded as a reader."""
        if self.reader_opt:
            last = self.last_reader[granule]
            return self.overflow[granule] or (last is not None and last != core)
        return bool(self.readers[granule] & ~(1 << core))

    def _readers_subset_of(self, granule: int, core: int) -> bool:
        """True if the reader set is empty or exactly {core}."""
        return not self._has_foreign_reader(granule, core)

    def reader_masks(self) -> List[int]:
        """Per granule, the recorded readers as a core bit-vector: the
        precise set in full mode (the live list; do not mutate it), only
        the last reader under reader_opt."""
        if self.reader_opt:
            return [0 if last is None else 1 << last
                    for last in self.last_reader]
        return self.readers

    def accessor_cores(self) -> Set[int]:
        """Every core recorded on any granule: the last writers plus the
        readers (the union of :meth:`reader_masks`, in one pass)."""
        cores = set(self.last_writer)
        cores.discard(None)
        if self.reader_opt:
            cores.update(self.last_reader)
            cores.discard(None)
        else:
            readers = 0
            for bits in self.readers:
                readers |= bits
            cores.update(iter_set_bits(readers))
        return cores

    # -- REP_MD ingestion (FSDetect true-sharing conditions, Section IV) ----

    def update_from_md(self, core: int, read_bits: int, write_bits: int) -> bool:
        """Merge a PAM entry received from ``core``; return True if a true
        sharing was detected (TS bit is set as a side effect).

        A granule b is truly shared iff:
          (i)  b is read-only in the incoming metadata and there is a valid
               last writer C' != core, or
          (ii) b is written in the incoming metadata and either the last
               writer differs from core or some other core has read b.

        ``last_conflict_mask`` / ``last_conflict_write`` expose the
        conflicting granules afterwards (for the Section VII region-conflict
        reporting extension).

        Only the granules the metadata touches are visited: a REP_MD
        usually covers a few bytes of the block.
        """
        last_writer = self.last_writer
        conflict_mask = 0
        conflict_write = False
        for granule in iter_set_bits(read_bits | write_bits):
            writer = last_writer[granule]
            if write_bits >> granule & 1:
                if ((writer is not None and writer != core)
                        or self._has_foreign_reader(granule, core)):
                    conflict_mask |= 1 << granule
                    conflict_write = True
            elif writer is not None and writer != core:
                conflict_mask |= 1 << granule
        # Merge after checking so a core's own prior accesses never conflict
        # with its fresh metadata.
        for granule in iter_set_bits(write_bits):
            last_writer[granule] = core
        for granule in iter_set_bits(read_bits):
            self._add_reader(granule, core)
        self.last_conflict_mask = conflict_mask
        self.last_conflict_write = conflict_write
        if conflict_mask:
            self.ts = True
        return conflict_mask != 0

    # -- PRV-state conflict checks (Section V-B) -----------------------------

    def check_write(self, core: int, gmask: int) -> bool:
        """GetXCHK predicate: every granule in ``gmask`` must have either no
        valid last writer and readers within {core}, or last writer == core."""
        for granule in iter_set_bits(gmask):
            writer = self.last_writer[granule]
            if writer is None:
                if not self._readers_subset_of(granule, core):
                    return False
            elif writer != core:
                return False
        return True

    def check_read(self, core: int, gmask: int) -> bool:
        """GetCHK predicate: every granule must have no valid last writer or
        last writer == core."""
        for granule in iter_set_bits(gmask):
            writer = self.last_writer[granule]
            if writer is not None and writer != core:
                return False
        return True

    def record_write(self, core: int, gmask: int) -> None:
        for granule in iter_set_bits(gmask):
            self.last_writer[granule] = core

    def record_read(self, core: int, gmask: int) -> None:
        for granule in iter_set_bits(gmask):
            self._add_reader(granule, core)

    # -- lifecycle ------------------------------------------------------------

    def clear(self) -> None:
        """Reset all byte metadata and the TS bit (Section VI resets, and the
        beginning/end of a privatized episode)."""
        self.ts = False
        self.last_writer = [None] * self.num_granules
        if self.reader_opt:
            self.last_reader = [None] * self.num_granules
            self.overflow = [False] * self.num_granules
        else:
            self.readers = [0] * self.num_granules

    def remove_core(self, core: int) -> None:
        """Forget a core's contributions.

        Last-writer slots naming the core are invalidated. Reader bits are
        removed precisely in full-vector mode; the last-reader+overflow
        encoding cannot remove readers.

        NOTE: the directory deliberately does *not* call this when a sharer
        departs a live PRV episode (eviction writeback): other sharers may
        still hold pre-merge copies, and erasing the departed writer's
        claims would let their next conflict check pass against stale data.
        The claims are kept so conflicting accesses terminate the episode;
        the whole entry is cleared at episode end.
        """
        for granule in range(self.num_granules):
            if self.last_writer[granule] == core:
                self.last_writer[granule] = None
            if not self.reader_opt:
                self.readers[granule] &= ~(1 << core)

    def last_writer_map(self) -> List[Optional[int]]:
        """Snapshot of the per-granule last-writer map (for merges)."""
        return list(self.last_writer)

    def entry_bits(self) -> int:
        """Storage cost in bits, matching the paper's accounting.

        Basic design: (C + 1 + log2 C) bits per byte-granule + TS.
        Reader-opt:   (log2 C + 2) reader bits + (1 + log2 C) writer bits.
        """
        log_c = max(1, (self.num_cores - 1).bit_length())
        writer_bits = 1 + log_c
        if self.reader_opt:
            reader_bits = log_c + 2
        else:
            reader_bits = self.num_cores
        return (writer_bits + reader_bits) * self.num_granules + 1


class SamTable:
    """Set-associative SAM table for one LLC/directory slice."""

    def __init__(
        self,
        sets: int,
        ways: int,
        block_size: int,
        num_granules: int,
        num_cores: int,
        reader_opt: bool = False,
        index_divisor: int = 1,
    ) -> None:
        self.num_granules = num_granules
        self.num_cores = num_cores
        self.reader_opt = reader_opt
        self._array: CacheArray[SamEntry] = CacheArray(
            num_sets=sets, ways=ways, block_size=block_size,
            index_divisor=index_divisor)
        self.valid_replacements = 0
        self.allocations = 0

    def get(self, block_addr: int) -> Optional[SamEntry]:
        entry = self._array.lookup(block_addr)
        return entry.payload if entry is not None else None

    def peek(self, block_addr: int) -> Optional[SamEntry]:
        entry = self._array.peek(block_addr)
        return entry.payload if entry is not None else None

    def allocate(self, block_addr: int):
        """Allocate an entry for ``block_addr``.

        Returns ``(entry, evicted_block_addr, evicted_entry)`` where the
        eviction fields are None when a free way was available. The caller
        (directory) must terminate privatization if the victim belonged to a
        privatized block (Section V-C, "Eviction of SAM Table Entry").
        """
        existing = self._array.peek(block_addr)
        if existing is not None:
            return existing.payload, None, None
        payload = SamEntry(self.num_granules, self.num_cores, self.reader_opt)
        evicted = self._array.fill(block_addr, payload)
        self.allocations += 1
        if evicted is None:
            return payload, None, None
        self.valid_replacements += 1
        return payload, self._array.addr_of(evicted), evicted.payload

    def invalidate(self, block_addr: int) -> Optional[SamEntry]:
        return self._array.invalidate(block_addr)

    def resident_blocks(self) -> List[int]:
        """Sorted resident block addresses (used by :mod:`repro.faults` for
        deterministic fault targeting)."""
        return sorted(self._array.addr_of(e) for e in self._array.iter_valid())

    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._array

    @property
    def replacement_rate(self) -> float:
        """Fraction of allocations that replaced a valid entry (paper: ~0.13%
        with the default 128-entry table)."""
        if self.allocations == 0:
            return 0.0
        return self.valid_replacements / self.allocations

    def entry_bits(self) -> int:
        probe = SamEntry(self.num_granules, self.num_cores, self.reader_opt)
        return probe.entry_bits()
