"""Per-directory-entry FSDetect/FSLite counters — Figure 5c.

Each directory entry carries a 7-bit fetch counter (FC), a 7-bit
invalidation/intervention counter (IC), a 2-bit saturating hysteresis
counter (HC, Section VI) and a pending-metadata-message counter (PMMC,
Section V). FC and IC both reset when either saturates. The PMMC is kept
as the mask of cores whose metadata is pending; its value is the mask's
popcount.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitvec import bit_count


@dataclass(slots=True)
class DirEntryMeta:
    """Counter state for one block's directory entry."""

    counter_max: int = 127
    hysteresis_max: int = 3
    fc: int = 0
    ic: int = 0
    hc: int = 0
    #: Core mask of the outstanding metadata responses (REP_MD or phantom);
    #: tracking which cores makes responses idempotent under races.
    pending_md: int = 0

    def bump_fc(self) -> None:
        """Count a Get/GetX/Upgrade received by the LLC for this block."""
        self.fc += 1
        if self.fc >= self.counter_max or self.ic >= self.counter_max:
            self._saturate_reset()

    def bump_ic(self, count: int = 1) -> None:
        """Count invalidations/interventions sent by the directory."""
        self.ic += count
        if self.fc >= self.counter_max or self.ic >= self.counter_max:
            self._saturate_reset()

    def _saturate_reset(self) -> None:
        self.fc = 0
        self.ic = 0

    def reset_fc_ic(self) -> None:
        self.fc = 0
        self.ic = 0

    def crossed(self, threshold: int) -> bool:
        """True when both FC and IC have crossed ``threshold``."""
        return self.fc >= threshold and self.ic >= threshold

    def bump_hc(self) -> None:
        if self.hc < self.hysteresis_max:
            self.hc += 1

    def decay_hc(self) -> None:
        if self.hc > 0:
            self.hc -= 1

    @property
    def pmmc(self) -> int:
        return bit_count(self.pending_md)

    def expect_md(self, cores: int) -> None:
        """Expect a metadata response from every core in the mask ``cores``."""
        self.pending_md |= cores

    def md_arrived(self, core: int) -> bool:
        """Record a metadata (or phantom) response; True if it was pending."""
        if self.pending_md >> core & 1:
            self.pending_md ^= 1 << core
            return True
        return False
