"""FSDetect decision engine — Section IV and the Section VI refinements.

One :class:`FalseSharingDetector` instance lives in each directory slice.
It owns that slice's SAM table and the per-directory-entry counters, and
implements the pure decision logic:

* count fetches (FC) and invalidations/interventions (IC),
* ingest REP_MD metadata and maintain the TS bit,
* apply the periodic metadata reset for the data-initialization pattern
  (τR1 / τR2), the hysteresis counter, and counter saturation, and
* decide when a block has crossed the privatization threshold τP.

The directory controller translates the returned :class:`DetectionAction`
into protocol messages (privatization under FSLite, a report under
FSDetect-only).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import ProtocolConfig
from repro.core.counters import DirEntryMeta
from repro.core.report import (
    ContendedLineReport,
    DetectionAction,
    FalseSharingReport,
    TrueSharingConflict,
)
from repro.core.sam import SamEntry, SamTable


def _zero_clock() -> int:
    """Default ``now`` accessor: a detector built without a clock reads
    cycle 0."""
    return 0


class FalseSharingDetector:
    """Per-slice detection state and decision logic."""

    def __init__(
        self,
        config: ProtocolConfig,
        block_size: int,
        num_cores: int,
        index_divisor: int = 1,
    ) -> None:
        self.config = config
        self.block_size = block_size
        self.num_cores = num_cores
        self.granularity = config.tracking_granularity
        self.sam = SamTable(
            sets=config.sam_sets,
            ways=config.sam_ways,
            block_size=block_size,
            num_granules=block_size // self.granularity,
            num_cores=num_cores,
            reader_opt=config.reader_metadata_opt,
            index_divisor=index_divisor,
        )
        self._meta: Dict[int, DirEntryMeta] = {}
        # Statistics.
        self.true_sharing_detections = 0
        self.metadata_resets = 0
        self.hysteresis_blocks = 0
        self.reports: List[FalseSharingReport] = []
        #: Section VII extensions: contended truly-shared lines (likely
        #: synchronization variables) and byte-level conflict observations
        #: (region-conflict / data-race evidence). Both bounded.
        self.contended_lines: List[ContendedLineReport] = []
        self.conflict_log: List[TrueSharingConflict] = []
        self.conflict_log_limit = 4096
        #: Simulation-time accessor injected by the directory (so reports
        #: can carry cycle stamps without coupling to the event queue).
        self.now: Callable[[], int] = _zero_clock
        #: Episode observer (repro.obs.episodes.EpisodeTracker) or None;
        #: calls are None-guarded and fire per episode event, not per access.
        self.obs = None

    # -- directory-entry counter access --------------------------------------

    def meta_for(self, block_addr: int) -> DirEntryMeta:
        meta = self._meta.get(block_addr)
        if meta is None:
            meta = DirEntryMeta(self.config.counter_max,
                                self.config.hysteresis_max)
            self._meta[block_addr] = meta
            if self.obs is not None:
                self.obs.counting_started(block_addr, self.now())
        return meta

    def drop_meta(self, block_addr: int) -> None:
        """Directory entry / LLC block evicted: counters disappear with it."""
        self._meta.pop(block_addr, None)
        self.sam.invalidate(block_addr)

    def counter_metas(self) -> Dict[int, DirEntryMeta]:
        """Live per-block counter state (read-only view for checkers)."""
        return dict(self._meta)

    # -- counting -------------------------------------------------------------

    def count_fetch(self, block_addr: int) -> None:
        """FC++ on every Get/GetX/Upgrade the LLC receives for the block."""
        self.meta_for(block_addr).bump_fc()

    def count_invalidations(self, block_addr: int, count: int) -> None:
        """IC += count when invalidations/interventions are sent."""
        if count:
            self.meta_for(block_addr).bump_ic(count)

    # -- metadata ingestion -----------------------------------------------------

    def should_request_md(self, block_addr: int) -> bool:
        """REQ_MD is piggybacked on invalidations/interventions while the TS
        bit of the block is unset (Section IV, Metadata Maintenance)."""
        entry = self.sam.peek(block_addr)
        return entry is None or not entry.ts

    def ingest_md(
        self,
        block_addr: int,
        core: int,
        read_bits: int,
        write_bits: int,
        allow_allocate: bool = True,
    ) -> Tuple[bool, Optional[int], Optional[SamEntry]]:
        """Merge a REP_MD payload into the SAM.

        Returns ``(conflict, evicted_block, evicted_entry)``; the eviction
        fields are non-None when allocating the SAM entry displaced a valid
        entry that the directory may need to act on (PRV termination).
        """
        entry = self.sam.get(block_addr)
        evicted_block: Optional[int] = None
        evicted_entry: Optional[SamEntry] = None
        if entry is None:
            if not allow_allocate:
                return False, None, None
            entry, evicted_block, evicted_entry = self.sam.allocate(block_addr)
        conflict = entry.update_from_md(core, read_bits, write_bits)
        if conflict:
            self.true_sharing_detections += 1
            if len(self.conflict_log) < self.conflict_log_limit:
                self.conflict_log.append(TrueSharingConflict(
                    block_addr, self.now(), core, entry.last_conflict_mask,
                    entry.last_conflict_write))
        return conflict, evicted_block, evicted_entry

    # -- the detection decision -------------------------------------------------

    def classify(self, block_addr: int) -> DetectionAction:
        """Decide what to do for a block after its counters were updated.

        Implements the Section VI composite rule:

        * FC >= τP and IC >= τP with TS=0, HC=0  -> flag (privatize).
        * FC >= τP and IC >= τP otherwise        -> reset metadata; decay HC
          when TS=0 and HC>0.
        * (FC >= τR1 and IC >= τR1) or FC >= τR2 -> periodic metadata reset
          (data-initialization pattern), when enabled.
        """
        meta = self._meta.get(block_addr)
        if meta is None:
            return DetectionAction.NONE
        sam_entry = self.sam.peek(block_addr)
        ts = sam_entry.ts if sam_entry is not None else False
        if meta.crossed(self.config.tau_p):
            hc = meta.hc if self.config.use_hysteresis else 0
            if not ts and hc == 0:
                return DetectionAction.FLAG_FALSE_SHARING
            if ts:
                # Section VII extension: a contended *truly* shared line —
                # very likely a synchronization variable.
                self._record_contended(block_addr, meta, sam_entry)
            if not ts and self.config.use_hysteresis:
                meta.decay_hc()
            self.apply_reset(block_addr)
            return DetectionAction.RESET_METADATA
        if self.config.use_metadata_reset:
            if meta.crossed(self.config.tau_r1) or meta.fc >= self.config.tau_r2:
                self.apply_reset(block_addr)
                return DetectionAction.RESET_METADATA
        return DetectionAction.NONE

    def apply_reset(self, block_addr: int) -> None:
        """Clear the SAM entry (including TS) and zero FC/IC.

        With ``use_metadata_reset`` disabled (ablation), the TS bit and the
        byte metadata become sticky — only the counters reset — which is
        what Section VI's periodic reset exists to avoid: a single
        initialization-phase true sharing then suppresses privatization
        forever.
        """
        self.metadata_resets += 1
        if self.config.use_metadata_reset:
            entry = self.sam.peek(block_addr)
            if entry is not None:
                entry.clear()
        meta = self._meta.get(block_addr)
        if meta is not None:
            meta.reset_fc_ic()

    def _record_contended(self, block_addr: int, meta: DirEntryMeta,
                          sam_entry: Optional[SamEntry]) -> None:
        cores = sam_entry.accessor_cores() if sam_entry is not None else set()
        self.contended_lines.append(ContendedLineReport(
            block_addr=block_addr, cycle=self.now(), fc=meta.fc,
            ic=meta.ic, cores=frozenset(cores)))

    def record_conflict_abort(self, block_addr: int) -> None:
        """A privatization attempt hit true sharing: HC++ (Section VI)."""
        if self.config.use_hysteresis:
            meta = self.meta_for(block_addr)
            if meta.hc == 0:
                self.hysteresis_blocks += 1
            meta.bump_hc()

    def report(
        self,
        block_addr: int,
        cycle: int,
        privatized: bool,
    ) -> FalseSharingReport:
        """Record a detected false-sharing instance."""
        meta = self.meta_for(block_addr)
        sam_entry = self.sam.peek(block_addr)
        cores = sam_entry.accessor_cores() if sam_entry is not None else set()
        rep = FalseSharingReport(
            block_addr=block_addr,
            cycle=cycle,
            fc=meta.fc,
            ic=meta.ic,
            cores=frozenset(cores),
            privatized=privatized,
        )
        self.reports.append(rep)
        if self.obs is not None:
            self.obs.flagged(block_addr, cycle, meta.fc, meta.ic,
                             privatized, cores)
        return rep
