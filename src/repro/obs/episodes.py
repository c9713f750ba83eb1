"""Episode-lifecycle tracking for detection and privatization.

The paper's behaviour is *temporal*: FC/IC counters accumulate, a block
crosses τP and is flagged, TR_PRV collects the holders, sharers join the
privatized episode through GetCHK/GetXCHK, and eventually a byte conflict
(or an eviction) terminates it with a last-writer byte merge.  End-of-run
aggregates flatten all of that away; this module records it.

:class:`EpisodeTracker` is an :class:`~repro.obs.observer.Observer` that,
on attach, registers itself with every directory slice (``slice.obs``) and
detector (``detector.obs``).  The controllers invoke the small hook
methods below at each lifecycle transition — all calls are ``None``
-guarded at the call sites, so an unobserved machine pays one attribute
load per *episode event*, never per message.  The result is a list of
:class:`Episode` spans:

* ``kind="detection"`` — FSDetect-only flag: counting start → flag.
* ``kind="privatization"`` — FSLite repair: counting start → flag →
  TR_PRV collection → established → joins → termination (with cause and a
  per-core granule merge summary).

FSLite protocol messages touching a block with an open episode are counted
per type into the episode (the "message burst" of the span).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.builder import Machine

from repro.common.addr import slice_index
from repro.interconnect.message import FSLITE_TYPES
from repro.obs.observer import Observer

_FSLITE_VALUES = frozenset(mt.value for mt in FSLITE_TYPES)


@dataclass
class EpisodeEvent:
    """One lifecycle transition inside an episode."""

    cycle: int
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"cycle": self.cycle, "kind": self.kind,
                "detail": dict(self.detail)}


@dataclass
class Episode:
    """The recorded lifetime of one detection/privatization episode."""

    index: int
    block_addr: int
    slice_id: int
    kind: str  # "detection" | "privatization"
    start_cycle: int
    #: Cycle of the block's first FC/IC increment (None when counting
    #: started before the tracker attached or metadata was recreated).
    counting_since: Optional[int] = None
    flag_cycle: Optional[int] = None
    fc_at_flag: Optional[int] = None
    ic_at_flag: Optional[int] = None
    established_cycle: Optional[int] = None
    end_cycle: Optional[int] = None
    termination_cause: Optional[str] = None
    aborted: bool = False
    #: Every core that was ever part of the episode (flag evidence,
    #: TR_PRV holders, trigger, joiners).
    sharers: Set[int] = field(default_factory=set)
    #: core -> granules taken from that core's copy at the final merge.
    merge_summary: Dict[int, int] = field(default_factory=dict)
    #: FSLite message counts by type name while the episode was open.
    messages: Dict[str, int] = field(default_factory=dict)
    events: List[EpisodeEvent] = field(default_factory=list)

    @property
    def open(self) -> bool:
        return self.end_cycle is None

    def duration(self) -> Optional[int]:
        if self.end_cycle is None:
            return None
        return self.end_cycle - self.start_cycle

    def add_event(self, cycle: int, kind: str, **detail: Any) -> None:
        self.events.append(EpisodeEvent(cycle=cycle, kind=kind,
                                        detail=detail))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (string dict keys, sorted member lists)."""
        return {
            "index": self.index,
            "block_addr": self.block_addr,
            "slice_id": self.slice_id,
            "kind": self.kind,
            "start_cycle": self.start_cycle,
            "counting_since": self.counting_since,
            "flag_cycle": self.flag_cycle,
            "fc_at_flag": self.fc_at_flag,
            "ic_at_flag": self.ic_at_flag,
            "established_cycle": self.established_cycle,
            "end_cycle": self.end_cycle,
            "termination_cause": self.termination_cause,
            "aborted": self.aborted,
            "sharers": sorted(self.sharers),
            "merge_summary": {str(core): count for core, count
                              in sorted(self.merge_summary.items())},
            "messages": dict(sorted(self.messages.items())),
            "events": [event.to_dict() for event in self.events],
        }


class EpisodeTracker(Observer):
    """Observer recording every episode's full lifecycle as spans."""

    def __init__(self, machine: "Machine") -> None:
        super().__init__(machine)
        self.episodes: List[Episode] = []
        self._open: Dict[int, Episode] = {}
        self._counting: Dict[int, int] = {}
        self._num_slices = len(machine.slices)
        self._block_size = machine.config.block_size

    # -- observer lifecycle ------------------------------------------------

    def on_attach(self, machine: "Machine") -> None:
        for sl in machine.slices:
            if sl.obs is not None:
                raise RuntimeError(
                    f"slice {sl.slice_id} already has an episode observer")
        for sl in machine.slices:
            sl.obs = self
            if sl.detector is not None:
                sl.detector.obs = self

    def on_detach(self, machine: "Machine") -> None:
        for sl in machine.slices:
            if sl.obs is self:
                sl.obs = None
            if sl.detector is not None and sl.detector.obs is self:
                sl.detector.obs = None

    def on_send(self, msg) -> None:
        if msg.mtype.value in _FSLITE_VALUES:
            episode = self._open.get(msg.block_addr)
            if episode is not None:
                name = msg.mtype.name
                episode.messages[name] = episode.messages.get(name, 0) + 1

    # -- internals ---------------------------------------------------------

    def _slice_of(self, block: int) -> int:
        return slice_index(block, self._block_size, self._num_slices)

    def _new_episode(self, block: int, kind: str, start: int) -> Episode:
        episode = Episode(index=len(self.episodes), block_addr=block,
                          slice_id=self._slice_of(block), kind=kind,
                          start_cycle=start)
        self.episodes.append(episode)
        return episode

    def _open_or_adopt(self, block: int, cycle: int) -> Episode:
        """The episode a mid-lifecycle hook belongs to.  Normally the open
        one; a termination with no preceding flag (e.g. privatized before
        the tracker attached) adopts a fresh span starting now."""
        episode = self._open.get(block)
        if episode is None:
            episode = self._new_episode(block, "privatization", cycle)
            self._open[block] = episode
        return episode

    # -- hooks from the detector ------------------------------------------

    def counting_started(self, block: int, cycle: int) -> None:
        """First FC/IC increment for a block (fresh directory-entry
        metadata)."""
        self._counting.setdefault(block, cycle)

    def flagged(self, block: int, cycle: int, fc: int, ic: int,
                privatized: bool, cores: Iterable[int]) -> None:
        """The block crossed τP and was reported."""
        stale = self._open.pop(block, None)
        if stale is not None and stale.open:
            stale.end_cycle = cycle  # defensive: flag over an open episode
        counting_since = self._counting.pop(block, None)
        start = counting_since if counting_since is not None else cycle
        kind = "privatization" if privatized else "detection"
        episode = self._new_episode(block, kind, start)
        episode.counting_since = counting_since
        episode.flag_cycle = cycle
        episode.fc_at_flag = fc
        episode.ic_at_flag = ic
        episode.sharers.update(cores)
        episode.add_event(cycle, "flag", fc=fc, ic=ic,
                          cores=sorted(cores))
        if privatized:
            self._open[block] = episode
        else:
            # FSDetect-only: report + metadata reset end the span here.
            episode.end_cycle = cycle
            episode.termination_cause = "report"

    # -- hooks from the directory slice -----------------------------------

    def prv_init(self, block: int, requestor: int, holders: Set[int],
                 cycle: int) -> None:
        episode = self._open_or_adopt(block, cycle)
        episode.sharers.add(requestor)
        episode.sharers.update(holders)
        episode.add_event(cycle, "prv_init", requestor=requestor,
                          holders=sorted(holders))

    def prv_abort(self, block: int, cycle: int) -> None:
        episode = self._open_or_adopt(block, cycle)
        episode.aborted = True
        episode.add_event(cycle, "prv_abort")

    def prv_established(self, block: int, sharers: Set[int],
                        cycle: int) -> None:
        episode = self._open_or_adopt(block, cycle)
        episode.established_cycle = cycle
        episode.sharers.update(sharers)
        episode.add_event(cycle, "prv_established", sharers=sorted(sharers))

    def prv_join(self, block: int, core: int, is_write: bool,
                 cycle: int) -> None:
        episode = self._open_or_adopt(block, cycle)
        episode.sharers.add(core)
        episode.add_event(cycle, "join", core=core, write=is_write)

    def term_start(self, block: int, cause: str, sharers: Set[int],
                   lw_snapshot: Optional[List[Optional[int]]],
                   cycle: int) -> None:
        episode = self._open_or_adopt(block, cycle)
        episode.termination_cause = cause
        episode.sharers.update(sharers)
        summary: Dict[int, int] = {}
        if lw_snapshot:
            for writer in lw_snapshot:
                if writer is not None:
                    summary[writer] = summary.get(writer, 0) + 1
        episode.merge_summary = summary
        episode.add_event(cycle, "term_start", cause=cause,
                          sharers=sorted(sharers),
                          merged_granules=sum(summary.values()))

    def term_end(self, block: int, cycle: int) -> None:
        episode = self._open.pop(block, None)
        if episode is None:
            return
        episode.end_cycle = cycle
        episode.add_event(cycle, "term_end")

    # -- results -----------------------------------------------------------

    def finish(self, cycle: int) -> None:
        """Close any episode still open at end of run (cause ``None``)."""
        for episode in self._open.values():
            episode.end_cycle = cycle
            episode.add_event(cycle, "end_of_run")
        self._open.clear()

    def termination_histogram(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for episode in self.episodes:
            cause = episode.termination_cause
            if cause is not None and cause != "report":
                out[cause] = out.get(cause, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"episodes": [e.to_dict() for e in self.episodes]}
