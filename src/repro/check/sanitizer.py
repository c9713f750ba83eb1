"""Online protocol sanitizer.

Attaches to a built machine and checks the stable-state protocol
invariants continuously while a simulation runs. The checker is driven by
the network's observation hooks (shared with
:class:`repro.system.tracing.MessageTracer`):

* ``post_send`` records every message into a bounded trace ring and bumps
  the block's in-flight count;
* ``post_deliver`` decrements the count, and when the delivered message
  leaves its block *quiescent* — no directory busy context or queued
  request, no L1 MSHR or buffered writeback, no other message in flight —
  the block must be in a stable state and every invariant below must hold.

A periodic sweep (every ``sweep_interval`` message deliveries) additionally
bounds the age of transient state (busy contexts, MSHRs, write-buffer
entries) and the FC/IC/HC/PMMC counters.
``check_all`` runs a final full pass over every resident block.

Checked invariants (names appear in :class:`InvariantViolation`; see
``docs/PROTOCOL.md`` for the paper-section mapping):

``inclusion``          an L1 copy implies the block is LLC-resident.
``dir-l1-agreement``   every L1 copy matches the directory's state and
                       membership for the block (one-way: the directory may
                       over-approximate holders because clean S/E copies
                       evict silently, but never the reverse).
``swmr``               outside PRV at most one core holds a writable copy,
                       and no other copies coexist with it.
``data-value``         LLC/L1 data agreement: S copies and clean E copies
                       equal the LLC bytes; PRV copies equal the LLC bytes
                       on every granule they do not own (checked only for
                       episodes with no departed sharer, whose merges
                       legitimately leave stale never-read bytes behind).
``prv-sam``            a PRV block has a SAM entry; every recorded last
                       writer is a live PRV sharer or a sharer that departed
                       the episode (departed claims are kept so conflicting
                       accesses still terminate the episode); membership
                       matches the cores actually holding PRV copies.
``prv-pam``            per-sharer PAM bits are consistent with the SAM last
                       writer map: write bits only on granules the core
                       owns, read bits never on granules a *different* live
                       core owns (byte-disjointness of write sets).
``counter-bounds``     0 <= FC,IC <= counter_max, 0 <= HC <= hysteresis_max,
                       PMMC <= num_cores.
``transient-age``      no busy context, MSHR, or write-buffer entry
                       outlives ``busy_age_limit`` cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.coherence.states import DirState, L1State
from repro.common.bitvec import iter_set_bits
from repro.common.config import SanitizerConfig
from repro.common.errors import ReproError
from repro.interconnect.message import Message, MessageType
from repro.obs.observer import Observer
from repro.system.builder import Machine
from repro.system.tracing import TraceEntry


class InvariantViolation(ReproError):
    """A stable-state protocol invariant failed.

    Carries enough context to debug without re-running: the invariant name,
    the block, both controllers' views of it, and the last relevant
    interconnect messages.
    """

    def __init__(
        self,
        invariant: str,
        block_addr: int,
        cycle: int,
        detail: str,
        dir_state: str = "?",
        l1_states: Optional[Dict[int, str]] = None,
        trace: Optional[List[str]] = None,
    ) -> None:
        self.invariant = invariant
        self.block_addr = block_addr
        self.cycle = cycle
        self.detail = detail
        self.dir_state = dir_state
        self.l1_states = l1_states or {}
        self.trace = trace or []
        lines = [
            f"[{invariant}] block {block_addr:#x} at cycle {cycle}: {detail}",
            f"  directory: {dir_state}",
            "  l1: " + (", ".join(
                f"core{c}={s}" for c, s in sorted(self.l1_states.items()))
                or "(no copies)"),
        ]
        if self.trace:
            lines.append("  recent messages for this block:")
            lines.extend("    " + t for t in self.trace)
        super().__init__("\n".join(lines))


class Sanitizer(Observer):
    """Online invariant checker for one machine.

    An :class:`~repro.obs.observer.Observer`: use as a context manager
    around a run, or via ``attach``/``detach``::

        with Sanitizer(machine) as san:
            Simulator(machine).run()
            san.check_all()
    """

    def __init__(self, machine: Machine,
                 config: Optional[SanitizerConfig] = None) -> None:
        super().__init__(machine)
        self.config = config or machine.config.sanitizer
        self.age_limit = self.config.busy_age_limit or self._derive_age_limit()
        self._ring: Deque[TraceEntry] = deque(maxlen=self.config.history)
        self._inflight: Dict[int, int] = {}
        #: block -> cores that departed the block's current PRV episode
        #: (PUTM / stale Prv_WB merge). The directory keeps a departed
        #: sharer's SAM claims so later conflicting accesses terminate the
        #: episode, so the prv-sam check must accept those writers; and the
        #: remaining copies may legitimately hold stale bytes on granules a
        #: departed writer owned, so data-value checks are skipped until the
        #: episode ends.
        self._prv_departed: Dict[int, set] = {}
        #: First-seen cycle per live transient context, keyed by identity so
        #: consecutive contexts on a hot block are never conflated.
        self._ages: Dict[Tuple[str, int, int], Tuple[int, int]] = {}
        self._since_sweep = 0
        # Statistics.
        self.blocks_checked = 0
        self.sweeps = 0

    # ----------------------------------------------------------- hook entry

    def on_send(self, msg: Message) -> None:
        self._ring.append(TraceEntry(
            cycle=self.machine.queue.now, mtype=msg.mtype,
            src=msg.src, dst=msg.dst, block_addr=msg.block_addr,
            size_bytes=msg.size_bytes))
        self._inflight[msg.block_addr] = \
            self._inflight.get(msg.block_addr, 0) + 1

    def on_deliver(self, msg: Message) -> None:
        block = msg.block_addr
        left = self._inflight.get(block, 0) - 1
        if left > 0:
            self._inflight[block] = left
        else:
            self._inflight.pop(block, None)
        if msg.mtype == MessageType.PRV_WB or (
                msg.mtype == MessageType.PUTM and msg.payload.get("prv")):
            self._prv_departed.setdefault(block, set()).add(msg.src)
        if left <= 0:
            self.check_block(block)
        # The periodic sweep rides on deliveries: a stretch with no traffic
        # runs none, and a transient stuck there is left to the
        # simulator's end-of-run drain checks.
        self._since_sweep += 1
        if self._since_sweep >= self.config.sweep_interval:
            self._since_sweep = 0
            self.sweep()

    # -------------------------------------------------------------- checks

    def check_block(self, block: int) -> None:
        """Check every stable-state invariant for ``block`` if quiescent."""
        machine = self.machine
        if self._inflight.get(block):
            return
        home = machine.home_slice(block)
        if not home.block_quiescent(block):
            return
        for l1 in machine.l1s:
            if not l1.block_quiescent(block):
                return
        self.blocks_checked += 1
        entry = home.llc.peek(block)
        line = entry.payload if entry is not None else None
        copies = {}  # core -> L1Line
        for l1 in machine.l1s:
            l1_entry = l1.cache.peek(block)
            if l1_entry is not None:
                copies[l1.core_id] = l1_entry.payload
        if line is None or line.state != DirState.PRV:
            # Episode over (or never started): forget departure tracking.
            self._prv_departed.pop(block, None)

        if line is None:
            if copies:
                self._fail("inclusion", block, line, copies,
                           "L1 copies exist but the block is not resident "
                           "in its home LLC slice")
            return

        self._check_agreement(block, line, copies)
        if line.state == DirState.PRV:
            self._check_prv(block, home, line, copies)
        elif machine.config.model_data:
            self._check_data(block, line, copies)

    def _check_agreement(self, block: int, line, copies: Dict[int, "object"]
                         ) -> None:
        """Directory/L1 state agreement and SWMR (one block, quiescent)."""
        state = line.state
        if state == DirState.I and copies:
            self._fail("dir-l1-agreement", block, line, copies,
                       "directory says no private copies exist")
        elif state == DirState.EM:
            for core, copy in copies.items():
                if core != line.owner:
                    self._fail("swmr", block, line, copies,
                               f"core {core} holds a copy while core "
                               f"{line.owner} owns the block exclusively")
                if copy.state not in (L1State.M, L1State.E):
                    self._fail("dir-l1-agreement", block, line, copies,
                               f"owner copy is {copy.state.name}, expected "
                               "M or E under an EM directory entry")
        elif state == DirState.S:
            for core, copy in copies.items():
                if copy.state != L1State.S:
                    self._fail(
                        "swmr" if copy.state in (L1State.M, L1State.E)
                        else "dir-l1-agreement", block, line, copies,
                        f"core {core} holds {copy.state.name} while the "
                        "directory lists the block as shared")
                if not line.sharers >> core & 1:
                    self._fail("dir-l1-agreement", block, line, copies,
                               f"core {core} holds an S copy but is not in "
                               "the sharer vector")
        elif state == DirState.PRV:
            prv = list(iter_set_bits(line.prv_sharers))
            if sorted(copies) != prv:
                self._fail("prv-sam", block, line, copies,
                           f"PRV sharer set {prv} does not match the "
                           f"cores holding copies {sorted(copies)}")
            for core, copy in copies.items():
                if copy.state != L1State.PRV:
                    self._fail("dir-l1-agreement", block, line, copies,
                               f"core {core} holds {copy.state.name} inside "
                               "a privatized episode")

    def _check_data(self, block: int, line, copies) -> None:
        """Non-PRV data-value agreement with the LLC copy."""
        for core, copy in copies.items():
            if copy.state == L1State.S:
                if copy.dirty:
                    self._fail("data-value", block, line, copies,
                               f"core {core} holds a dirty S copy")
                if bytes(copy.data) != bytes(line.data):
                    self._fail("data-value", block, line, copies,
                               f"core {core}'s S copy differs from the LLC")
            elif copy.state == L1State.E and not copy.dirty:
                if bytes(copy.data) != bytes(line.data):
                    self._fail("data-value", block, line, copies,
                               f"core {core}'s clean E copy differs from "
                               "the LLC")

    def _check_prv(self, block: int, home, line, copies) -> None:
        """PRV-episode structural and data invariants (paper Section V)."""
        detector = home.detector
        if detector is None:
            self._fail("prv-sam", block, line, copies,
                       "PRV directory state under a non-detecting protocol")
        sam_entry = detector.sam.peek(block)
        if sam_entry is None:
            self._fail("prv-sam", block, line, copies,
                       "privatized block has no SAM entry")
        write_masks = sam_entry.write_masks
        departed = self._prv_departed.get(block, set())
        stray = 0
        for writer, writes in enumerate(write_masks):
            if (writes and not line.prv_sharers >> writer & 1
                    and writer not in departed):
                stray |= writes
        if stray:
            granule = next(iter_set_bits(stray))
            writer = sam_entry.last_writer_map()[granule]
            self._fail("prv-sam", block, line, copies,
                       f"granule {granule} last writer {writer} is "
                       "neither a live PRV sharer nor a sharer that "
                       "departed this episode")
        gran = home.granularity
        check_data = (self.machine.config.model_data and not departed)
        for core, copy in copies.items():
            pentry = self.machine.l1s[core].pam.get(block)
            if pentry is None:
                self._fail("prv-pam", block, line, copies,
                           f"core {core} holds a PRV copy without a PAM "
                           "entry")
            owned = write_masks[core]
            unowned = pentry.write_bits & ~owned
            if unowned:
                granule = next(iter_set_bits(unowned))
                self._fail(
                    "prv-pam", block, line, copies,
                    f"core {core} has the write bit for granule "
                    f"{granule} but the SAM last writer is "
                    f"{sam_entry.last_writer_map()[granule]} — write sets "
                    "are not byte-disjoint")
            foreign = pentry.read_bits & sam_entry.written & ~owned
            if foreign:
                granule = next(iter_set_bits(foreign))
                self._fail(
                    "prv-pam", block, line, copies,
                    f"core {core} has the read bit for granule "
                    f"{granule} owned by writer "
                    f"{sam_entry.last_writer_map()[granule]}")
            if check_data:
                for granule in range(sam_entry.num_granules):
                    if owned >> granule & 1:
                        continue  # the sharer's own bytes may be newer
                    lo, hi = granule * gran, (granule + 1) * gran
                    if bytes(copy.data[lo:hi]) != bytes(line.data[lo:hi]):
                        self._fail(
                            "data-value", block, line, copies,
                            f"core {core}'s PRV copy differs from the LLC "
                            f"on granule {granule} it does not own (no "
                            "sharer departed this episode)")

    # -------------------------------------------------------------- sweeps

    def sweep(self) -> None:
        """Periodic pass: counter bounds and transient-state age limits."""
        self.sweeps += 1
        now = self.machine.queue.now
        live: set = set()
        for sl in self.machine.slices:
            for block, ctx in sl.busy_contexts().items():
                self._age_probe(("dir", sl.slice_id, block), id(ctx), now,
                                f"busy context {ctx.kind.name}", block)
                live.add(("dir", sl.slice_id, block))
            if sl.detector is not None:
                self._check_counters(sl)
        for l1 in self.machine.l1s:
            for block, mshr in l1.transactions().items():
                self._age_probe(("mshr", l1.core_id, block), id(mshr), now,
                                f"MSHR for {mshr.sent.name}", block)
                live.add(("mshr", l1.core_id, block))
            for block in list(l1.write_buffer._entries):
                wb = l1.write_buffer.get(block)
                self._age_probe(("wb", l1.core_id, block), id(wb), now,
                                "buffered writeback", block)
                live.add(("wb", l1.core_id, block))
        for key in list(self._ages):
            if key not in live:
                del self._ages[key]

    def _age_probe(self, key, ident: int, now: int, what: str,
                   block: int) -> None:
        seen = self._ages.get(key)
        if seen is None or seen[0] != ident:
            self._ages[key] = (ident, now)
            return
        age = now - seen[1]
        if age > self.age_limit:
            self._fail("transient-age", block, None, {},
                       f"{what} has been live for {age} cycles "
                       f"(limit {self.age_limit})")

    def _check_counters(self, sl) -> None:
        cfg = sl.detector.config
        for block, meta in sl.detector.counter_metas().items():
            if not (0 <= meta.fc <= cfg.counter_max
                    and 0 <= meta.ic <= cfg.counter_max):
                self._fail("counter-bounds", block, None, {},
                           f"FC={meta.fc} IC={meta.ic} outside "
                           f"[0, {cfg.counter_max}]")
            if not (0 <= meta.hc <= cfg.hysteresis_max):
                self._fail("counter-bounds", block, None, {},
                           f"HC={meta.hc} outside [0, {cfg.hysteresis_max}]")
            if meta.pmmc > self.machine.config.num_cores:
                self._fail("counter-bounds", block, None, {},
                           f"PMMC={meta.pmmc} exceeds the core count")

    def check_all(self) -> None:
        """Full pass over every resident block (end-of-run final check)."""
        blocks = set()
        for sl in self.machine.slices:
            if sl.detector is not None:
                self._check_counters(sl)
            for entry in sl.llc.iter_valid():
                blocks.add(sl.llc.addr_of(entry))
        for l1 in self.machine.l1s:
            for entry in l1.cache.iter_valid():
                blocks.add(l1.cache.addr_of(entry))
        for block in sorted(blocks):
            self.check_block(block)

    # ------------------------------------------------------------ reporting

    def _fail(self, invariant: str, block: int, line, copies,
              detail: str) -> None:
        window = [e for e in self._ring if e.block_addr == block]
        num_cores = self.machine.config.num_cores
        trace = [e.format(num_cores)
                 for e in window[-self.config.trace_window:]]
        dir_state = "not resident"
        if line is not None:
            parts = [line.state.name]
            if line.owner is not None:
                parts.append(f"owner={line.owner}")
            if line.sharers:
                parts.append(f"sharers={list(iter_set_bits(line.sharers))}")
            if line.prv_sharers:
                parts.append(f"prv={list(iter_set_bits(line.prv_sharers))}")
            dir_state = " ".join(parts)
        l1_states = {
            core: f"{copy.state.name}{'*' if copy.dirty else ''}"
            for core, copy in copies.items()
        }
        raise InvariantViolation(
            invariant=invariant, block_addr=block,
            cycle=self.machine.queue.now, detail=detail,
            dir_state=dir_state, l1_states=l1_states, trace=trace)

    # ---------------------------------------------------------------- misc

    def _derive_age_limit(self) -> int:
        """A generous transient-lifetime bound from the config's latencies:
        transactions queue behind at most ~num_cores contexts, each bounded
        by a memory round trip plus per-core collection rounds."""
        cfg = self.machine.config
        round_trip = (cfg.memory_latency + 2 * cfg.network_latency
                      + cfg.llc.tag_latency + cfg.llc.data_latency
                      + cfg.l1.tag_latency + cfg.l1.data_latency + 64)
        return max(100_000, round_trip * cfg.num_cores * cfg.num_cores * 16)
