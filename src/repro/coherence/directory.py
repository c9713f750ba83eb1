"""Directory / LLC slice controller.

One :class:`DirectorySlice` per LLC slice. The slice owns:

* the inclusive LLC data array with embedded directory state (owner /
  sharer vector / PRV sharer vector per block: ``int`` core masks, bit
  ``c`` = core ``c``, that fan-outs walk in ascending core id),
* the improved non-blocking MESI baseline of Section VIII-A (the directory
  serves GetX/Upgrade on S-state blocks and LLC-owned blocks without an
  unblock message; interventions still serialize through a per-block busy
  context),
* the FSDetect hooks (FC/IC counting, REQ_MD piggybacking, REP_MD
  ingestion, τ thresholds), and
* the FSLite privatization engine (TR_PRV collection, PRV serving with
  GetCHK/GetXCHK conflict checks, termination with byte-level merge).

In-flight multi-message transactions are *busy contexts*; requests for a
busy block queue FIFO and drain when the context resolves.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from repro.common.bitvec import bit_count, iter_set_bits
from repro.common.config import SystemConfig
from repro.common.errors import ProtocolError
from repro.common.statkeys import (
    SLICE_CHK_FAIL,
    SLICE_CHK_PASS,
    SLICE_INTERVENTIONS_SENT,
    SLICE_INVALIDATIONS_SENT,
    SLICE_LLC_DATA_ACCESSES,
    SLICE_MEMORY_FETCHES,
    SLICE_MEMORY_WRITEBACKS,
    SLICE_PRIVATIZATION_ABORTS,
    SLICE_PRIVATIZATIONS,
    SLICE_PRV_JOINS,
    SLICE_RECALLS,
    SLICE_REGRANTS,
    SLICE_REQUESTS,
    SLICE_SAM_ACCESSES,
    SLICE_STALE_PUTM,
    SLICE_STAT_KEYS,
    SLICE_UPGRADES_CONVERTED,
    term_key,
)
from repro.common.events import EventQueue
from repro.coherence.states import (
    BUSY_FETCH,
    BUSY_FWD,
    BUSY_INV_COLLECT,
    BUSY_PRV_INIT,
    BUSY_PRV_TERM,
    BUSY_RECALL,
    DIR_EM,
    DIR_I,
    DIR_PRV,
    DIR_S,
    TERM_CONFLICT,
    TERM_EXTERNAL_SOCKET,
    TERM_INIT_ABORT,
    TERM_LLC_EVICTION,
    TERM_SAM_EVICTION,
    BusyKind,
    DirState,
    ProtocolMode,
    TerminationCause,
)
from repro.core.fsdetect import FalseSharingDetector
from repro.core.merge import merge_block
from repro.core.pam import granule_mask
from repro.core.report import DetectionAction
from repro.interconnect.message import (
    MSG_ACK_NO_DATA,
    MSG_ACK_PRV,
    MSG_CTRL_WB,
    MSG_DATA,
    MSG_DATA_E,
    MSG_DATA_PRV,
    MSG_DATA_WB,
    MSG_FWD_GET,
    MSG_FWD_GETX,
    MSG_GET,
    MSG_GETCHK,
    MSG_GETX,
    MSG_GETXCHK,
    MSG_INV,
    MSG_INV_ACK,
    MSG_INV_PRV,
    MSG_PHANTOM_MD,
    MSG_PRV_WB,
    MSG_PUTM,
    MSG_RECALL,
    MSG_REP_MD,
    MSG_TR_PRV,
    MSG_UPGRADE,
    MSG_UPG_ACK,
    MSG_UPG_ACK_PRV,
    MSG_WB_ACK,
    MSG_XFER_ACK,
    Message,
    MessageType,
    table_by_value,
)
from repro.interconnect.network import Network
from repro.memsys.cache_array import CacheArray, CacheEntry
from repro.memsys.main_memory import MainMemory


class LlcLine:
    """One resident LLC block with its embedded directory entry (built
    once per LLC fill)."""

    __slots__ = ("data", "dirty", "state", "owner", "sharers", "prv_sharers")

    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.dirty = False
        self.state: DirState = DIR_I
        self.owner: Optional[int] = None
        self.sharers = 0
        self.prv_sharers = 0

    def take_data(self, data: bytes) -> None:
        """Install a core's copy of the block (a writeback, flush or
        transfer): the LLC copy is now newer than memory."""
        self.data = bytearray(data)
        self.dirty = True

    @property
    def holders(self) -> int:
        if self.state is DIR_EM:
            return 1 << self.owner
        if self.state is DIR_S:
            return self.sharers
        if self.state is DIR_PRV:
            return self.prv_sharers
        return 0


class _QueueNow:
    """Simulation-clock accessor handed to the detector."""

    __slots__ = ("queue",)

    def __init__(self, queue: EventQueue) -> None:
        self.queue = queue

    def __call__(self) -> int:
        return self.queue.now


class BusyCtx:
    """One in-flight multi-message transaction on a block (built once per
    intervention, invalidation round, fetch, recall or PRV episode edge).

    The constructor takes what every kind uses; the kind-specific fields
    start empty and the code that opens the context sets the ones it
    needs.
    """

    __slots__ = ("kind", "block", "request", "waiting", "prospective",
                 "owner", "requestor", "req_md", "upgrade", "conflict",
                 "lw_snapshot", "cause", "evict_data", "then")

    def __init__(self, kind: BusyKind, block: int,
                 request: Optional[Message] = None,
                 waiting: int = 0) -> None:
        self.kind = kind
        self.block = block
        #: The request this context serves (re-run when it resolves).
        self.request = request
        #: Core mask of the responses still outstanding.
        self.waiting = waiting
        #: PRV_INIT: core mask of the cores that will join the episode.
        self.prospective = 0
        #: FWD: the owner the intervention went to.
        self.owner: Optional[int] = None
        self.requestor: Optional[int] = None
        self.req_md = False
        #: INV_COLLECT: answer with UPG_ACK rather than data.
        self.upgrade = False
        #: PRV_INIT: a metadata response reported true sharing.
        self.conflict = False
        #: PRV_TERM: per-granule last writers for the byte merge.
        self.lw_snapshot: Optional[List[Optional[int]]] = None
        self.cause: Optional[TerminationCause] = None
        #: Termination triggered by an LLC eviction merges into this buffer
        #: and writes to memory instead of back into the LLC.
        self.evict_data: Optional[bytearray] = None
        #: Continuation invoked when the context resolves (fills, recalls).
        self.then: Optional[Callable[[], None]] = None


class DirectorySlice:
    """One LLC/directory slice plus its FSDetect/FSLite engines."""

    def __init__(
        self,
        slice_id: int,
        node_id: int,
        config: SystemConfig,
        mode: ProtocolMode,
        queue: EventQueue,
        network: Network,
        memory: MainMemory,
        num_slices: int,
    ) -> None:
        self.slice_id = slice_id
        self.node_id = node_id
        self.config = config
        self.mode = mode
        self.queue = queue
        self.network = network
        self.memory = memory
        self.num_slices = num_slices
        self.block_size = config.block_size
        self.granularity = config.protocol.tracking_granularity
        # Hot-path bindings, read per message instead of the config/mode
        # attribute chains.
        self._repairs = mode.repairs
        self._tag_latency = config.llc.tag_latency
        self._data_latency = config.llc.data_latency
        self._chk_latency = config.protocol.conflict_check_latency
        # Per-slice LLC capacity: total size divided across slices; blocks
        # map to slices by low block-number bits, so consecutive blocks of a
        # slice are ``num_slices`` apart and the set index uses the full
        # block number (handled by CacheArray's modulo with our set count).
        slice_blocks = config.llc.num_blocks // num_slices
        self.llc: CacheArray[LlcLine] = CacheArray(
            num_sets=max(1, slice_blocks // config.llc.associativity),
            ways=config.llc.associativity,
            block_size=self.block_size,
            index_divisor=num_slices,
        )
        #: The LLC's block index (never rebound): handlers find a line
        #: with one dict probe.
        self._llc_index = self.llc._index
        self.detector: Optional[FalseSharingDetector] = None
        if mode.detects:
            self.detector = FalseSharingDetector(
                config.protocol, self.block_size, config.num_cores,
                index_divisor=num_slices)
            self.detector.now = _QueueNow(queue)
        self._busy: Dict[int, BusyCtx] = {}
        self._pending: Dict[int, Deque[Message]] = {}
        #: Episode observer (repro.obs.episodes.EpisodeTracker) or None.
        #: Hook calls below are None-guarded so an unobserved run pays
        #: one attribute load per episode *event*, never per message.
        self.obs = None
        self.stats: Dict[str, int] = dict.fromkeys(SLICE_STAT_KEYS, 0)
        network.register(node_id, self.handle_message)

    # ----------------------------------------------------------- utilities

    def _line(self, block: int) -> LlcLine:
        entry = self._llc_index.get(block)
        if entry is None:
            raise ProtocolError(f"block {block:#x} not resident in LLC")
        return entry.payload

    def _gmask(self, byte_mask: int) -> int:
        return granule_mask(byte_mask, self.granularity, self.block_size)

    def _send(self, mtype: MessageType, dst: int, block: int,
              payload: dict, delay: int = 0) -> None:
        self.network.send(Message(mtype, self.node_id, dst, block, payload),
                          extra_delay=self._tag_latency + delay)

    def _send_data(self, mtype: MessageType, dst: int, block: int,
                   line: LlcLine, req_md: Optional[bool] = None,
                   delay: int = 0) -> None:
        """Send ``line``'s bytes (one LLC data access) after the data
        latency plus ``delay``; ``req_md`` rides along when given."""
        self.stats[SLICE_LLC_DATA_ACCESSES] += 1
        payload = {"data": bytes(line.data)}
        if req_md is not None:
            payload["req_md"] = req_md
        self._send(mtype, dst, block, payload, self._data_latency + delay)

    def _is_blocked(self, block: int) -> bool:
        return block in self._busy

    def _enqueue(self, msg: Message) -> None:
        self._pending.setdefault(msg.block_addr, deque()).append(msg)

    def _release_busy(self, block: int,
                      rerun: Optional[Message] = None) -> None:
        self._busy.pop(block, None)
        if rerun is not None:
            self._pending.setdefault(block, deque()).appendleft(rerun)
        self.queue.schedule(0, self._drain, block)

    def _drain(self, block: int) -> None:
        queue = self._pending.get(block)
        while queue and not self._is_blocked(block):
            self._process_request(queue.popleft())
        if queue is not None and not queue:
            self._pending.pop(block, None)

    # ------------------------------------------------------ message entry

    _REQUEST_TYPES = (
        MSG_GET, MSG_GETX, MSG_UPGRADE,
        MSG_GETCHK, MSG_GETXCHK,
    )

    def handle_message(self, msg: Message) -> None:
        handler = _DIR_DISPATCH[msg.mtype._value_]
        if handler is None:
            raise ProtocolError(
                f"directory node {self.node_id} cannot handle {msg}")
        handler(self, msg)

    def _on_request(self, msg: Message) -> None:
        if msg.block_addr in self._busy:
            self._enqueue(msg)
        else:
            self._process_request(msg)

    # ------------------------------------------------------- request path

    def _process_request(self, msg: Message) -> None:
        block = msg.block_addr
        if block in self._busy:
            self._enqueue(msg)
            return
        entry = self.llc.lookup(block)
        if entry is None:
            self._start_fetch(msg)
            return
        line = entry.payload
        self.stats[SLICE_REQUESTS] += 1
        demand = msg.mtype in (MSG_GET, MSG_GETX, MSG_UPGRADE)
        if (self.detector is not None and demand
                and line.state is not DIR_PRV):
            self.detector.count_fetch(block)
            action = self.detector.classify(block)
            if action == DetectionAction.FLAG_FALSE_SHARING:
                self.detector.report(block, self.queue.now,
                                     privatized=self._repairs)
                if self._repairs:
                    self._start_prv_init(msg, line)
                    return
                self.detector.apply_reset(block)
        # CHKs that arrive after the privatized episode ended behave as
        # plain requests (Section V-C, conflict-detection epilogue).
        mtype = msg.mtype
        if line.state is not DIR_PRV:
            if mtype is MSG_GETCHK:
                mtype = MSG_GET
            elif mtype is MSG_GETXCHK:
                mtype = MSG_GETX
        if mtype is MSG_GET or mtype is MSG_GETX:
            self._do_demand(msg, line, mtype is MSG_GETX)
        elif mtype is MSG_UPGRADE:
            self._do_upgrade(msg, line)
        else:
            self._do_chk(msg, line, is_write=mtype is MSG_GETXCHK)

    # -- baseline MESI ---------------------------------------------------------

    def _do_demand(self, msg: Message, line: LlcLine,
                   exclusive: bool) -> None:
        """Serve a GET, or a GETX when ``exclusive``."""
        block, core = msg.block_addr, msg.src
        if line.state is DIR_I:
            line.state = DIR_EM
            line.owner = core
            self._send_data(MSG_DATA_E, core, block, line)
        elif line.state is DIR_S:
            if exclusive:
                # A GETX from a listed sharer means the core silently
                # evicted its copy and the directory info is stale; drop
                # it and serve.
                line.sharers &= ~(1 << core)
                self._invalidate_sharers(msg, line, upgrade=False)
            else:
                line.sharers |= 1 << core
                self._send_data(MSG_DATA, core, block, line)
        elif line.state is DIR_EM:
            if line.owner == core:
                self.stats[SLICE_REGRANTS] += 1
                self._send_data(MSG_DATA_E, core, block, line)
                return
            self._intervene(msg, line,
                            MSG_FWD_GETX if exclusive else MSG_FWD_GET)
        else:  # PRV
            self._prv_join(msg, line, is_write=exclusive)

    def _do_upgrade(self, msg: Message, line: LlcLine) -> None:
        block, core = msg.block_addr, msg.src
        if line.state is DIR_S and line.sharers >> core & 1:
            if line.sharers == 1 << core:
                line.state = DIR_EM
                line.owner = core
                line.sharers = 0
                self._send(MSG_UPG_ACK, core, block, {})
                return
            self._invalidate_sharers(msg, line, upgrade=True)
            return
        if line.state is DIR_PRV:
            self._do_chk(msg, line, is_write=True)
            return
        if line.state is DIR_EM and line.owner == core:
            self.stats[SLICE_REGRANTS] += 1
            self._send(MSG_UPG_ACK, core, block, {})
            return
        # The requestor was invalidated while its upgrade was in flight:
        # convert to a GetX (gem5 MESI does the same).
        self.stats[SLICE_UPGRADES_CONVERTED] += 1
        self._do_demand(Message(MSG_GETX, msg.src, msg.dst, block,
                                dict(msg.payload)), line, True)

    def _req_md_for(self, block: int) -> bool:
        if self.detector is None:
            return False
        return self.detector.should_request_md(block)

    def _intervene(self, msg: Message, line: LlcLine,
                   fwd: MessageType) -> None:
        block = msg.block_addr
        req_md = self._req_md_for(block)
        if self.detector is not None:
            self.detector.count_invalidations(block, 1)
        self.stats[SLICE_INTERVENTIONS_SENT] += 1
        ctx = BusyCtx(BUSY_FWD, block, msg)
        ctx.owner = line.owner
        ctx.requestor = msg.src
        ctx.req_md = req_md
        self._busy[block] = ctx
        self._send(fwd, line.owner, block,
                   {"requestor": msg.src, "req_md": req_md})

    def _invalidate_sharers(self, msg: Message, line: LlcLine,
                            upgrade: bool) -> None:
        block, core = msg.block_addr, msg.src
        targets = line.sharers & ~(1 << core)
        count = bit_count(targets)
        req_md = self._req_md_for(block)
        if self.detector is not None:
            self.detector.count_invalidations(block, count)
        self.stats[SLICE_INVALIDATIONS_SENT] += count
        ctx = BusyCtx(BUSY_INV_COLLECT, block, msg, targets)
        ctx.requestor = core
        ctx.req_md = req_md
        ctx.upgrade = upgrade
        self._busy[block] = ctx
        for sharer in iter_set_bits(targets):
            self._send(MSG_INV, sharer, block,
                       {"requestor": core, "req_md": req_md})
        if not targets:
            self._finish_inv_collect(ctx)

    def _finish_inv_collect(self, ctx: BusyCtx) -> None:
        line = self._line(ctx.block)
        line.state = DIR_EM
        line.owner = ctx.requestor
        line.sharers = 0
        if ctx.upgrade:
            self._send(MSG_UPG_ACK, ctx.requestor, ctx.block,
                       {"req_md": ctx.req_md})
        else:
            self._send_data(MSG_DATA_E, ctx.requestor, ctx.block, line,
                            ctx.req_md)
        self._release_busy(ctx.block)

    def _finish_fwd(self, ctx: BusyCtx, owner_kept_copy: bool,
                    dir_serves_data: bool) -> None:
        line = self._line(ctx.block)
        was_getx = ctx.request.mtype in (MSG_GETX, MSG_UPGRADE, MSG_GETXCHK)
        if was_getx:
            line.state = DIR_EM
            line.owner = ctx.requestor
            line.sharers = 0
        else:
            line.state = DIR_S
            line.owner = None
            line.sharers = 1 << ctx.requestor
            if owner_kept_copy:
                line.sharers |= 1 << ctx.owner
        if dir_serves_data:
            mtype = MSG_DATA_E if was_getx else MSG_DATA
            self._send_data(mtype, ctx.requestor, ctx.block, line,
                            ctx.req_md)
        self._release_busy(ctx.block)

    # -- FSLite: privatization ---------------------------------------------------

    def _start_prv_init(self, msg: Message, line: LlcLine) -> None:
        block = msg.block_addr
        holders = line.holders
        self.stats[SLICE_PRIVATIZATIONS] += 1
        if self.obs is not None:
            self.obs.prv_init(block, msg.src, set(iter_set_bits(holders)),
                              self.queue.now)
        ctx = BusyCtx(BUSY_PRV_INIT, block, msg, holders)
        ctx.prospective = holders
        ctx.requestor = msg.src
        self._busy[block] = ctx
        self._allocate_sam(block)
        if self.detector is not None:
            self.detector.meta_for(block).expect_md(holders)
        for core in iter_set_bits(holders):
            self._send(MSG_TR_PRV, core, block, {"req_md": True})
        if not holders:
            self._finish_prv_init(ctx)

    def _allocate_sam(self, block: int) -> None:
        """Ensure a SAM entry exists; terminate a displaced PRV block."""
        if self.detector is None:
            return
        self.stats[SLICE_SAM_ACCESSES] += 1
        _, evicted_block, evicted_entry = self.detector.sam.allocate(block)
        if evicted_block is not None:
            self._handle_sam_eviction(evicted_block, evicted_entry)

    def _handle_sam_eviction(self, block: int, entry) -> None:
        llc_entry = self._llc_index.get(block)
        if llc_entry is None or llc_entry.payload.state is not DIR_PRV:
            return
        if self._is_blocked(block):
            # A context is already resolving this block; losing detection
            # metadata for a non-PRV transition is harmless.
            return
        self._start_termination(
            block, TERM_SAM_EVICTION,
            lw_snapshot=entry.last_writer_map() if entry is not None else None)

    def _finish_prv_init(self, ctx: BusyCtx) -> None:
        block = ctx.block
        line = self._line(block)
        msg = ctx.request
        gmask = self._gmask(msg.payload.get("touched_mask", 0))
        is_write = msg.mtype in (MSG_GETX, MSG_UPGRADE)
        sam_entry = self.detector.sam.peek(block)
        # A SAM entry displaced while collecting (extremely small SAM)
        # aborts the privatization.
        conflict = (sam_entry is None or sam_entry.ts or ctx.conflict
                    or not sam_entry.check_access(msg.src, gmask, is_write))
        if conflict:
            self.stats[SLICE_PRIVATIZATION_ABORTS] += 1
            if self.obs is not None:
                self.obs.prv_abort(block, self.queue.now)
            self.detector.record_conflict_abort(block)
            self._busy.pop(block, None)
            self._start_termination(block, TERM_INIT_ABORT,
                                    rerun=msg, prv_set=ctx.prospective)
            return
        # Privatize: fresh SAM state seeded with the trigger's bytes.
        sam_entry.clear()
        sam_entry.record_grant(msg.src, gmask, is_write,
                               msg.payload.get("is_rmw"))
        line.state = DIR_PRV
        line.owner = None
        line.sharers = 0
        line.prv_sharers = ctx.prospective | (1 << msg.src)
        if self.obs is not None:
            self.obs.prv_established(
                block, set(iter_set_bits(line.prv_sharers)), self.queue.now)
        if msg.mtype is MSG_UPGRADE:
            self._send(MSG_UPG_ACK_PRV, msg.src, block, {})
        else:
            self._send_data(MSG_DATA_PRV, msg.src, block, line)
        self._release_busy(block)

    def _prv_grant(self, msg: Message, is_write: bool) -> bool:
        """Check a request on a privatized block against the SAM (Fig. 8).
        On a pass, record the grant and return True; on a conflict,
        terminate the episode with the request to rerun and return False."""
        block, core = msg.block_addr, msg.src
        sam_entry = self.detector.sam.peek(block)
        if sam_entry is None:
            raise ProtocolError("PRV block without a SAM entry")
        self.stats[SLICE_SAM_ACCESSES] += 1
        gmask = self._gmask(msg.payload.get("touched_mask", 0))
        if sam_entry.check_access(core, gmask, is_write):
            sam_entry.record_grant(core, gmask, is_write,
                                   msg.payload.get("is_rmw"))
            return True
        self.detector.record_conflict_abort(block)
        self._start_termination(block, TERM_CONFLICT, rerun=msg)
        return False

    def _prv_join(self, msg: Message, line: LlcLine, is_write: bool) -> None:
        """Serve a Get/GetX for a privatized block (Section V-A, Fig. 8)."""
        if not self._prv_grant(msg, is_write):
            return
        block, core = msg.block_addr, msg.src
        line.prv_sharers |= 1 << core
        self.stats[SLICE_PRV_JOINS] += 1
        if self.obs is not None:
            self.obs.prv_join(block, core, is_write, self.queue.now)
        self._send_data(MSG_DATA_PRV, core, block, line,
                        delay=self._chk_latency)

    def _do_chk(self, msg: Message, line: LlcLine, is_write: bool) -> None:
        """First-touch conflict check on a privatized block (Fig. 8)."""
        core = msg.src
        if not line.prv_sharers >> core & 1:
            self._prv_join(msg, line, is_write)
        elif self._prv_grant(msg, is_write):
            self.stats[SLICE_CHK_PASS] += 1
            ack = MSG_UPG_ACK_PRV if msg.mtype is MSG_UPGRADE else MSG_ACK_PRV
            self._send(ack, core, msg.block_addr, {}, self._chk_latency)
        else:
            self.stats[SLICE_CHK_FAIL] += 1

    # -- FSLite: termination -------------------------------------------------------

    def _start_termination(
        self,
        block: int,
        cause: TerminationCause,
        rerun: Optional[Message] = None,
        prv_set: Optional[int] = None,
        lw_snapshot: Optional[List[Optional[int]]] = None,
        evict_data: Optional[bytearray] = None,
        then: Optional[Callable[[], None]] = None,
    ) -> None:
        line_entry = self._llc_index.get(block)
        line = line_entry.payload if line_entry is not None else None
        sharers = prv_set if prv_set is not None else (
            line.prv_sharers if line is not None else 0)
        if lw_snapshot is None:
            sam_entry = self.detector.sam.peek(block)
            lw_snapshot = (sam_entry.last_writer_map() if sam_entry is not None
                           else [None] * (self.block_size // self.granularity))
        self.stats[term_key(cause._value_)] += 1
        if self.obs is not None:
            self.obs.term_start(block, cause._value_,
                                set(iter_set_bits(sharers)), lw_snapshot,
                                self.queue.now)
        ctx = BusyCtx(BUSY_PRV_TERM, block, rerun, sharers)
        ctx.lw_snapshot = lw_snapshot
        ctx.cause = cause
        ctx.evict_data = evict_data
        ctx.then = then
        self._busy[block] = ctx
        for core in iter_set_bits(sharers):
            self._send(MSG_INV_PRV, core, block, {})
        if not sharers:
            self._finish_termination(ctx)

    def _term_merge(self, ctx: BusyCtx, core: int, data: bytes) -> None:
        target = ctx.evict_data
        if target is None:
            target = self._line(ctx.block).data
        merge_block(target, data, core, ctx.lw_snapshot, self.granularity)

    def _finish_termination(self, ctx: BusyCtx) -> None:
        block = ctx.block
        if self.detector is not None:
            self.detector.sam.invalidate(block)
            meta = self.detector._meta.get(block)
            if meta is not None:
                meta.reset_fc_ic()
        if ctx.evict_data is not None:
            # LLC-eviction termination: the merged block goes to memory.
            self.memory.write_block(block, bytes(ctx.evict_data))
            self.stats[SLICE_MEMORY_WRITEBACKS] += 1
        else:
            line = self._line(block)
            line.state = DIR_I
            line.owner = None
            line.sharers = 0
            line.prv_sharers = 0
            line.dirty = True
        if self.obs is not None:
            self.obs.term_end(block, self.queue.now)
        then = ctx.then
        self._release_busy(block, rerun=ctx.request)
        if then is not None:
            then()

    def external_access(self, block: int) -> None:
        """Injection hook: an access forwarded from another socket must
        terminate the privatized episode first (Section V-C)."""
        entry = self.llc.peek(block)
        if entry is None or entry.payload.state is not DIR_PRV:
            return
        if self._is_blocked(block):
            return
        self._start_termination(block, TERM_EXTERNAL_SOCKET)

    # ------------------------------------------------------- LLC fills

    def _start_fetch(self, msg: Message) -> None:
        block = msg.block_addr
        ctx = BusyCtx(BUSY_FETCH, block, msg)
        self._busy[block] = ctx
        self.stats[SLICE_MEMORY_FETCHES] += 1
        self.queue.schedule(self.config.memory_latency, self._fetch_done, ctx)

    def _fetch_done(self, ctx: BusyCtx) -> None:
        self._fetch_attempt(ctx, self.memory.read_block(ctx.block))

    def _fetch_attempt(self, ctx: BusyCtx, data: bytearray) -> None:
        """Install the fetched block, resolving one victim per retry:
        :meth:`_make_room` calls back here once the victim is gone."""
        block = ctx.block
        victim = self.llc.choose_victim(
            block, protected=self._protected_ways(block))
        if victim is None:
            self._install_llc(block, data)
            self._release_busy(block, rerun=ctx.request)
        else:
            # Resolve one victim (evict/recall/terminate), then retry.
            self._make_room(victim, partial(self._fetch_attempt, ctx, data))

    def _make_room(self, victim: CacheEntry[LlcLine],
                   then: Optional[Callable[[], None]]) -> None:
        """Resolve the resident LLC ``victim``, then call ``then``."""
        victim_block = self.llc.addr_of(victim)
        line = victim.payload
        if line.state is DIR_I:
            self._evict_llc_block(victim_block, line)
            if then is not None:
                then()
        elif line.state is DIR_PRV:
            evict_data = bytearray(line.data)
            sam_entry = (self.detector.sam.peek(victim_block)
                         if self.detector else None)
            snapshot = (sam_entry.last_writer_map() if sam_entry is not None
                        else None)
            self.llc.invalidate(victim_block)
            if self.detector is not None:
                self.detector.drop_meta(victim_block)
            self._start_termination(
                victim_block, TERM_LLC_EVICTION,
                prv_set=line.prv_sharers, lw_snapshot=snapshot,
                evict_data=evict_data, then=then)
        else:
            self._recall(victim_block, line, then)

    def _protected_ways(self, block: int) -> List[int]:
        set_index = self.llc.set_index_of(block)
        protected = []
        for busy_block in self._busy:
            if self.llc.set_index_of(busy_block) != set_index:
                continue
            entry = self._llc_index.get(busy_block)
            if entry is not None:
                protected.append(entry.way)
        return protected

    def _evict_llc_block(self, block: int, line: LlcLine) -> None:
        self.llc.invalidate(block)
        if self.detector is not None:
            self.detector.drop_meta(block)
        if line.dirty:
            self.memory.write_block(block, bytes(line.data))
            self.stats[SLICE_MEMORY_WRITEBACKS] += 1

    def _recall(self, block: int, line: LlcLine,
                then: Callable[[], None]) -> None:
        """Invalidate private copies so an LLC victim can be evicted."""
        self.stats[SLICE_RECALLS] += 1
        holders = line.holders
        ctx = BusyCtx(BUSY_RECALL, block, None, holders)
        ctx.then = then
        self._busy[block] = ctx
        if line.state is DIR_EM:
            self._send(MSG_RECALL, line.owner, block, {})
        else:
            for sharer in iter_set_bits(holders):
                self._send(MSG_INV, sharer, block,
                           {"requestor": None, "recall": True})
        if not holders:
            self._finish_recall(ctx)

    def _finish_recall(self, ctx: BusyCtx) -> None:
        line = self._line(ctx.block)
        line.state = DIR_I
        line.owner = None
        line.sharers = 0
        self._evict_llc_block(ctx.block, line)
        then = ctx.then
        self._release_busy(ctx.block)
        if then is not None:
            then()

    def _install_llc(self, block: int, data: bytearray) -> None:
        self.llc.fill(block, LlcLine(data))
        if self.detector is not None:
            # FC/IC initialize to zero when a block fills into the LLC.
            self.detector.drop_meta(block)

    # ------------------------------------------------------ response path

    def _collect(self, ctx: BusyCtx, core: int) -> None:
        """Count ``core``'s response to ``ctx``; the last one finishes it."""
        ctx.waiting &= ~(1 << core)
        if not ctx.waiting:
            _FINISH_BY_KIND[ctx.kind._value_](self, ctx)

    def _depart_prv(self, block: int, line: LlcLine, core: int,
                    data: bytes) -> None:
        """A PRV sharer left mid-episode (its eviction PUTM, or a Prv_WB
        that crossed its termination's finish): merge its copy by the live
        SAM last writer and drop it from the PRV sharers."""
        sam_entry = (self.detector.sam.peek(block)
                     if self.detector is not None else None)
        if sam_entry is not None:
            merge_block(line.data, data, core,
                        sam_entry.last_writer_map(), self.granularity)
            # The departed core's SAM claims must survive the merge:
            # sharers that joined before this merge landed hold copies
            # that are stale exactly on these granules, and the claim
            # is what turns their next CHK into a conflict instead of
            # a silent read/RMW of stale data. Claims are reclaimed
            # wholesale when the episode terminates.
        line.prv_sharers &= ~(1 << core)
        line.dirty = True

    def _on_putm(self, msg: Message) -> None:
        block, core = msg.block_addr, msg.src
        data = msg.payload["data"]
        ctx = self._busy.get(block)
        if ctx is not None:
            kind = ctx.kind
            if kind is BUSY_PRV_TERM:
                if ctx.waiting >> core & 1:
                    self._term_merge(ctx, core, data)
            elif (kind is BUSY_RECALL or kind is BUSY_PRV_INIT
                  or (kind is BUSY_FWD and core == ctx.owner)):
                self._line(block).take_data(data)
                if kind is BUSY_PRV_INIT:
                    # The evictor's writeback doubles as its TR_PRV
                    # response (see putm_in_flight); it does not join.
                    ctx.prospective &= ~(1 << core)
            else:
                raise ProtocolError(f"PUTM during {ctx.kind} for {block:#x}")
            self._send(MSG_WB_ACK, core, block, {})
            # A FWD waits on no response bits: it stays busy until the
            # owner's wb-buffer response completes it.
            if ctx.waiting >> core & 1:
                self._collect(ctx, core)
            return
        entry = self._llc_index.get(block)
        line = entry.payload if entry is not None else None
        if line is not None and line.state is DIR_EM and line.owner == core:
            line.take_data(data)
            line.state = DIR_I
            line.owner = None
        elif (line is not None and line.state is DIR_PRV
              and line.prv_sharers >> core & 1):
            self._depart_prv(block, line, core, data)
        else:
            # Not the owner or a PRV sharer (or a terminating eviction
            # already wrote the block to memory): a stale PUTM.
            self.stats[SLICE_STALE_PUTM] += 1
        self._send(MSG_WB_ACK, core, block, {})

    def _on_inv_ack(self, msg: Message) -> None:
        ctx = self._busy.get(msg.block_addr)
        # No context: a stale ack after a recall raced with something else.
        if ctx is not None and (ctx.kind is BUSY_INV_COLLECT
                                or ctx.kind is BUSY_RECALL):
            self._collect(ctx, msg.src)

    def _on_data_wb(self, msg: Message) -> None:
        block, data = msg.block_addr, msg.payload["data"]
        ctx = self._busy.get(block)
        if ctx is None:
            # Flush attached to TR_PRV that arrived after init finished, or
            # a stale downgrade; accept the data.
            entry = self._llc_index.get(block)
            if entry is not None:
                entry.payload.take_data(data)
            return
        kind = ctx.kind
        if kind is BUSY_PRV_TERM:
            self._term_merge(ctx, msg.src, data)
            self._collect(ctx, msg.src)
            return
        if (kind is not BUSY_FWD and kind is not BUSY_PRV_INIT
                and kind is not BUSY_RECALL):
            raise ProtocolError(f"DATA_WB during {ctx.kind}")
        self._line(block).take_data(data)
        if kind is BUSY_FWD:
            owner_kept = not msg.payload.get("from_wb") and not msg.payload.get("xfer")
            self._finish_fwd(ctx, owner_kept_copy=owner_kept,
                             dir_serves_data=False)
        elif kind is BUSY_RECALL:
            self._collect(ctx, msg.src)
        # A PRV_INIT flush only refreshes the LLC copy: the metadata
        # response answers the TR_PRV.

    def _on_xfer_ack(self, msg: Message) -> None:
        ctx = self._busy.get(msg.block_addr)
        if ctx is None or ctx.kind is not BUSY_FWD:
            raise ProtocolError(f"stray XFER_ACK for {msg.block_addr:#x}")
        self._finish_fwd(ctx, owner_kept_copy=not msg.payload.get("from_wb"),
                         dir_serves_data=False)

    def _on_ack_no_data(self, msg: Message) -> None:
        ctx = self._busy.get(msg.block_addr)
        if ctx is None:
            return
        if ctx.kind is BUSY_FWD:
            # The owner silently dropped its clean copy: serve from the LLC.
            self._finish_fwd(ctx, owner_kept_copy=False, dir_serves_data=True)
        elif ctx.kind is BUSY_RECALL:
            self._collect(ctx, msg.src)

    # -- metadata ------------------------------------------------------------------

    def _on_rep_md(self, msg: Message) -> None:
        if self.detector is None:
            return
        block, core = msg.block_addr, msg.src
        meta = self.detector.meta_for(block)
        meta.md_arrived(core)
        ctx = self._busy.get(block)
        if ctx is not None and ctx.kind is BUSY_PRV_TERM:
            return  # episode ending; metadata is obsolete
        entry = self._llc_index.get(block)
        if entry is not None and entry.payload.state is DIR_PRV:
            return  # SAM already tracks PRV accesses via CHKs
        self.stats[SLICE_SAM_ACCESSES] += 1
        conflict, evicted_block, evicted_entry = self.detector.ingest_md(
            block, core, msg.payload["read_bits"], msg.payload["write_bits"])
        if evicted_block is not None:
            self._handle_sam_eviction(evicted_block, evicted_entry)
        if ctx is not None and ctx.kind is BUSY_PRV_INIT:
            if conflict:
                ctx.conflict = True
            # Only a *solicited* response answers the TR_PRV; an unsolicited
            # eviction REP_MD racing with the init must not conclude it
            # while the evictor's PUTM (with the fresh data) is in flight.
            if ctx.waiting >> core & 1 and msg.payload.get("solicited", True):
                if msg.payload.get("putm_in_flight"):
                    ctx.prospective &= ~(1 << core)
                    return  # the PUTM completes this core's response
                self._collect(ctx, core)

    def _on_phantom(self, msg: Message) -> None:
        if self.detector is None:
            return
        block, core = msg.block_addr, msg.src
        self.detector.meta_for(block).md_arrived(core)
        ctx = self._busy.get(block)
        if ctx is not None and ctx.kind is BUSY_PRV_INIT:
            ctx.prospective &= ~(1 << core)
            # With a PUTM in flight, hold the init open until it lands.
            if (ctx.waiting >> core & 1
                    and not msg.payload.get("putm_in_flight")):
                self._collect(ctx, core)

    # -- termination responses ---------------------------------------------------------

    def _on_prv_wb(self, msg: Message) -> None:
        block, core = msg.block_addr, msg.src
        ctx = self._busy.get(block)
        if ctx is None or ctx.kind is not BUSY_PRV_TERM:
            # A termination that no longer exists (the core's response
            # crossed the finish): a departure, if the block is still PRV.
            entry = self._llc_index.get(block)
            if entry is not None and entry.payload.state is DIR_PRV:
                self._depart_prv(block, entry.payload, core,
                                 msg.payload["data"])
        elif ctx.waiting >> core & 1:
            self._term_merge(ctx, core, msg.payload["data"])
            self._collect(ctx, core)

    def _on_ctrl_wb(self, msg: Message) -> None:
        ctx = self._busy.get(msg.block_addr)
        if ctx is not None and ctx.kind is BUSY_PRV_TERM:
            self._collect(ctx, msg.src)

    # ----------------------------------------------------------------- misc

    def drain_complete(self) -> bool:
        return not self._busy and not self._pending

    def block_quiescent(self, block: int) -> bool:
        """True when no busy context or queued request exists for ``block``
        (the sanitizer only inspects blocks in stable states)."""
        return block not in self._busy and block not in self._pending

    def busy_contexts(self) -> Dict[int, BusyCtx]:
        """Live busy contexts by block (read-only view for checkers)."""
        return dict(self._busy)

    # ----------------------------------- fault-injection seams (repro.faults)
    #
    # Each seam models a hardware glitch the paper argues is survivable
    # because detection metadata is advisory.  Seams return False (and do
    # nothing) when the glitch would not be protocol-legal at this instant —
    # losing state mid-transaction is indistinguishable from losing it one
    # cycle earlier or later, so refusing blocked blocks loses no coverage.
    # No seam is reachable unless a FaultInjector calls it explicitly.

    def fault_sam_loss(self, block: int) -> bool:
        """Drop the SAM entry for ``block`` as if a row glitched away.

        For a privatized block this must route through the graceful
        SAM-eviction termination (Section V-C) — exactly what real eviction
        pressure does — because PRV state without SAM claims cannot answer
        conflict checks.  For any other block the entry simply vanishes.
        """
        if self.detector is None or self._is_blocked(block):
            return False
        if self.detector.sam.peek(block) is None:
            return False
        entry = self.llc.peek(block)
        if entry is not None and entry.payload.state is DIR_PRV:
            self._start_termination(block, TERM_SAM_EVICTION)
        else:
            self.detector.sam.invalidate(block)
        return True

    def fault_counter_glitch(self, block: int, glitch: str) -> bool:
        """Corrupt the FC/IC/HC/PMMC state of ``block``'s directory entry.

        ``glitch``: ``"reset"`` zeroes FC/IC/HC, ``"saturate"`` pins FC/IC
        at ``counter_max`` and HC at ``hysteresis_max`` (both are values the
        counters can legally hold), ``"pmmc"`` forgets all pending metadata
        responses (``md_arrived`` is tolerant of unexpected cores, so later
        replies are absorbed).  Returns True only if state actually changed.
        """
        if self.detector is None:
            return False
        meta = self.detector._meta.get(block)
        if meta is None:
            return False
        if glitch == "reset":
            changed = bool(meta.fc or meta.ic or meta.hc)
            meta.fc = meta.ic = meta.hc = 0
        elif glitch == "saturate":
            changed = (meta.fc != meta.counter_max
                       or meta.ic != meta.counter_max
                       or meta.hc != meta.hysteresis_max)
            meta.fc = meta.ic = meta.counter_max
            meta.hc = meta.hysteresis_max
        elif glitch == "pmmc":
            changed = bool(meta.pending_md)
            meta.pending_md = 0
        else:
            raise ValueError(f"unknown counter glitch {glitch!r}")
        return changed

    def fault_llc_eviction(self, block: int) -> bool:
        """Force ``block`` out of the LLC through the normal victim paths
        (plain eviction, recall, or PRV termination-with-merge), as if
        capacity pressure had chosen it.  Refuses busy blocks."""
        entry = self.llc.peek(block)
        if entry is None or self._is_blocked(block):
            return False
        self._make_room(entry, then=None)
        return True

    @property
    def reports(self):
        return self.detector.reports if self.detector is not None else []


#: Per-type handler table indexed by ``MessageType._value_``.  Requests
#: route through the busy-block check; responses go straight to their
#: handler.  Like the L1's table it holds the class's plain functions,
#: bound once at import (``handle_message`` passes ``self``): patching a
#: handler means patching this table, not the class attribute.
_DIR_DISPATCH: tuple = table_by_value({
    **dict.fromkeys(DirectorySlice._REQUEST_TYPES,
                    DirectorySlice._on_request),
    MSG_PUTM: DirectorySlice._on_putm,
    MSG_INV_ACK: DirectorySlice._on_inv_ack,
    MSG_DATA_WB: DirectorySlice._on_data_wb,
    MSG_XFER_ACK: DirectorySlice._on_xfer_ack,
    MSG_ACK_NO_DATA: DirectorySlice._on_ack_no_data,
    MSG_REP_MD: DirectorySlice._on_rep_md,
    MSG_PHANTOM_MD: DirectorySlice._on_phantom,
    MSG_PRV_WB: DirectorySlice._on_prv_wb,
    MSG_CTRL_WB: DirectorySlice._on_ctrl_wb,
})

#: The finisher of each context kind that collects responses, indexed by
#: ``BusyKind._value_`` (slot 0 padding; FETCH and FWD collect none):
#: ``_collect`` runs it when the last awaited response lands.
_FINISH_BY_KIND: tuple = (None,) + tuple({
    BUSY_INV_COLLECT: DirectorySlice._finish_inv_collect,
    BUSY_PRV_INIT: DirectorySlice._finish_prv_init,
    BUSY_PRV_TERM: DirectorySlice._finish_termination,
    BUSY_RECALL: DirectorySlice._finish_recall,
}.get(kind) for kind in BusyKind)
