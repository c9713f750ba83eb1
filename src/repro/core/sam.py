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
  conditions of Section V-B, applied to a request by :meth:`check_access`
  and followed, once granted, by :meth:`record_grant`.

The hardware evaluates these conditions on every byte of the block at
once. :class:`SamEntry` does the same with the state held bit-sliced: one
granule mask per core instead of one record per granule, so each predicate
is a few integer operations whatever the number of granules touched.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.common.bitvec import iter_set_bits
from repro.memsys.cache_array import CacheArray


class SamEntry:
    """Per-block shared access metadata, held as per-core granule masks.

    * ``write_masks[c]``: the granules whose last writer is core ``c``
      (pairwise disjoint; a granule in none has no valid last writer).
    * ``read_masks[c]``: the granules core ``c`` read (basic design), or
      the granules whose last reader is ``c`` (``reader_opt``, pairwise
      disjoint).
    * ``written`` and ``read_any``: the unions of the two mask lists.
    * ``read_multi``: the granules more than one core has read. Under
      ``reader_opt`` this is exactly the paper's overflow bit, which is
      set when a core other than the last reader reads the granule.

    A core's *foreign* readers on a granule are then ``read_any`` outside
    its own read mask, plus ``read_multi`` — in either encoding.
    """

    __slots__ = ("num_granules", "num_cores", "reader_opt", "ts",
                 "last_conflict_mask", "last_conflict_write", "write_masks",
                 "read_masks", "written", "read_any", "read_multi")

    def __init__(self, num_granules: int, num_cores: int,
                 reader_opt: bool = False) -> None:
        self.num_granules = num_granules
        self.num_cores = num_cores
        #: Last-reader + overflow encoding instead of a full reader
        #: bit-vector.
        self.reader_opt = reader_opt
        #: Granules involved in the most recent update_from_md conflict.
        self.last_conflict_mask = 0
        self.last_conflict_write = False
        self.clear()

    def accessor_cores(self) -> Set[int]:
        """Every core recorded on any granule, as last writer or reader."""
        return {core for core, (writes, reads)
                in enumerate(zip(self.write_masks, self.read_masks))
                if writes | reads}

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

        The merge runs after the check, so a core's own prior accesses
        never conflict with its fresh metadata. It goes through the private
        merge helpers, not the :meth:`record_write`/:meth:`record_read`
        seams that mutations patch.
        """
        foreign_writes = self.written & ~self.write_masks[core]
        write_conflicts = write_bits & (
            foreign_writes | self.read_any & ~self.read_masks[core]
            | self.read_multi)
        conflict_mask = write_conflicts | read_bits & foreign_writes
        if write_bits:
            self._merge_write(core, write_bits)
        if read_bits:
            self._merge_read(core, read_bits)
        self.last_conflict_mask = conflict_mask
        self.last_conflict_write = write_conflicts != 0
        if conflict_mask:
            self.ts = True
            return True
        return False

    # -- PRV-state conflict checks (Section V-B) -----------------------------

    def check_write(self, core: int, gmask: int) -> bool:
        """GetXCHK predicate: every granule in ``gmask`` must have either no
        valid last writer and readers within {core}, or last writer == core."""
        return not (gmask & ~self.write_masks[core] & (
            self.written | self.read_any & ~self.read_masks[core]
            | self.read_multi))

    def check_read(self, core: int, gmask: int) -> bool:
        """GetCHK predicate: every granule must have no valid last writer or
        last writer == core."""
        return not gmask & self.written & ~self.write_masks[core]

    # -- PRV grants (Section V-A/B) ------------------------------------------
    #
    # Every privatization trigger, PRV join and GetCHK/GetXCHK is checked
    # with check_access and, once granted, recorded with record_grant.
    # Both must call the check_*/record_* names: mutations patch those.

    def check_access(self, core: int, gmask: int, is_write: bool) -> bool:
        """The PRV-state check of a request: :meth:`check_write` for a
        write (GetX, Upgrade, GetXCHK), else :meth:`check_read`."""
        if is_write:
            return self.check_write(core, gmask)
        return self.check_read(core, gmask)

    def record_grant(self, core: int, gmask: int, is_write: bool,
                     is_rmw: bool) -> None:
        """Record a granted PRV access: a write makes ``core`` the last
        writer of ``gmask`` (an RMW also reads it), a read adds ``core``
        to its readers."""
        if is_write:
            self.record_write(core, gmask)
            if is_rmw:
                self.record_read(core, gmask)
        else:
            self.record_read(core, gmask)

    def _merge_write(self, core: int, gmask: int) -> None:
        """Make ``core`` the last writer of the granules in ``gmask``."""
        write_masks = self.write_masks
        taken = gmask & self.written & ~write_masks[core]
        if taken:
            for other, writes in enumerate(write_masks):
                if writes & taken:
                    write_masks[other] = writes & ~taken
        write_masks[core] |= gmask
        self.written |= gmask

    def _merge_read(self, core: int, gmask: int) -> None:
        """Add ``core`` to the readers of the granules in ``gmask``."""
        read_masks = self.read_masks
        others = gmask & self.read_any & ~read_masks[core]
        if others:
            self.read_multi |= others
            if self.reader_opt:
                # ``core`` becomes the one last reader of these granules.
                for other, reads in enumerate(read_masks):
                    if reads & others:
                        read_masks[other] = reads & ~others
        read_masks[core] |= gmask
        self.read_any |= gmask

    #: The PRV-state record seams. Mutations patch these names, which
    #: leaves the REP_MD merge in :meth:`update_from_md` untouched.
    record_write = _merge_write
    record_read = _merge_read

    # -- lifecycle ------------------------------------------------------------

    def clear(self) -> None:
        """Reset all byte metadata and the TS bit (Section VI resets, and the
        beginning/end of a privatized episode)."""
        self.ts = False
        self.write_masks = [0] * self.num_cores
        self.read_masks = [0] * self.num_cores
        self.written = 0
        self.read_any = 0
        self.read_multi = 0

    def last_writer_map(self) -> List[Optional[int]]:
        """The per-granule last writer, ``None`` where there is none (for
        merges and memory flushes)."""
        writers: List[Optional[int]] = [None] * self.num_granules
        for core, writes in enumerate(self.write_masks):
            for granule in iter_set_bits(writes):
                writers[granule] = core
        return writers

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
