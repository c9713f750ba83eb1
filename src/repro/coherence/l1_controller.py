"""Private (L1D) cache controller.

Implements the core-facing side of the baseline MESI protocol and the
FSDetect/FSLite extensions:

* loads/stores/RMWs from the core, hit and miss paths, silent clean
  evictions, dirty writebacks through a write buffer;
* PAM-table maintenance on every access, REP_MD / phantom metadata
  responses (Section IV);
* the PRV state: first-touch GetCHK/GetXCHK conflict checks, TR_PRV
  handling, Prv_WB / Ctrl_WB termination responses, and the request/
  invalidation races of Section V-E.

In-flight transactions live in MSHRs rather than transient line states; a
line in the array is always in a stable state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ProtocolError
from repro.common.statkeys import (
    CORE_CHK_MISSES,
    CORE_CHK_SENT,
    CORE_GET_SENT,
    CORE_GETX_SENT,
    CORE_HITS,
    CORE_INTERVENTIONS_RECEIVED,
    CORE_INVALIDATIONS_RECEIVED,
    CORE_L1_DATA_ACCESSES,
    CORE_LOADS,
    CORE_MISSES,
    CORE_PAM_ACCESSES,
    CORE_PHANTOM_SENT,
    CORE_PRV_FILLS,
    CORE_REISSUES,
    CORE_REP_MD_SENT,
    CORE_RMWS,
    CORE_SILENT_EVICTIONS,
    CORE_STAT_KEYS,
    CORE_STORES,
    CORE_UPGRADE_SENT,
    CORE_WRITEBACKS,
)
from repro.common.events import EventQueue
from repro.coherence.states import (
    L1_E,
    L1_M,
    L1_PRV,
    L1_S,
    L1State,
    ProtocolMode,
)
from repro.core.pam import PamTable

#: Not read by the simulator: ``benchmarks/e2e/test_e2e.py`` still checks
#: that its wrappers leave ``PamTable.record_access`` identical to this
#: name (see there).  The one PAM update is inline in ``_perform``.
_PAM_RECORD_PRISTINE = PamTable.record_access
from repro.cpu.ops import OP_LOAD, OP_RMW, OP_STORE, Op
from repro.interconnect.message import (
    MSG_ACK_NO_DATA,
    MSG_ACK_PRV,
    MSG_CTRL_WB,
    MSG_DATA,
    MSG_DATA_E,
    MSG_DATA_PRV,
    MSG_DATA_TO_REQ,
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
from repro.memsys.cache_array import CacheArray
from repro.memsys.write_buffer import WriteBuffer

CompletionCallback = Callable[[int], None]


class L1Line:
    """One resident L1 line: stable state, block bytes, dirty bit."""

    __slots__ = ("state", "data", "dirty")

    def __init__(self, state: L1State, data: bytearray,
                 dirty: bool = False) -> None:
        self.state = state
        self.data = data
        self.dirty = dirty


class Mshr:
    """One outstanding transaction for one block (built once per miss)."""

    __slots__ = ("block_addr", "sent", "ops", "aborted", "chk_line_lost",
                 "inv_after_fill")

    def __init__(self, block_addr: int, sent: MessageType,
                 ops: List[Tuple[Op, CompletionCallback]]) -> None:
        self.block_addr = block_addr
        self.sent = sent
        self.ops = ops
        #: Inv_PRV raced ahead of the data response (Fig. 11): drop the
        #: response and reissue the request when it arrives.
        self.aborted = False
        #: The line this CHK referred to was invalidated by a termination;
        #: the directory will answer with a data response, not Ack_PRV.
        self.chk_line_lost = False
        #: A plain INV raced a GET fill: consume the data once, then drop it.
        self.inv_after_fill = False


class L1Controller:
    """One core's private-cache controller."""

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        mode: ProtocolMode,
        queue: EventQueue,
        network: Network,
        home_of: Callable[[int], int],
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.mode = mode
        self.queue = queue
        self.network = network
        self.home_of = home_of
        self.block_size = config.block_size
        self.cache: CacheArray[L1Line] = CacheArray(
            num_sets=config.l1.num_sets,
            ways=config.l1.associativity,
            block_size=self.block_size,
        )
        self.pam = PamTable(
            capacity=config.l1.num_blocks,
            granularity=config.protocol.tracking_granularity,
            block_size=self.block_size,
        )
        self.write_buffer = WriteBuffer(capacity=64)
        self._mshrs: Dict[int, Mshr] = {}
        # Hot-path bindings: block/offset masks (block size is a power of
        # two), the mode's detect flag, the tag/data latencies, and the PAM/
        # write-buffer entry dicts (owned by those objects, never rebound) —
        # the per-access and per-message paths read these instead of
        # re-deriving them.
        self._offset_mask = self.block_size - 1
        self._base_mask = ~self._offset_mask
        self._detects = mode.detects
        self._tag_latency = config.l1.tag_latency
        self._data_latency = config.l1.data_latency
        self._granularity = config.protocol.tracking_granularity
        self._pam_entries = self.pam._entries
        self._wb_entries = self.write_buffer._entries
        # The cache array's block index and per-set LRU state
        # (also never rebound): a hit is one dict probe plus the set's
        # ``touch``, with no ``CacheArray.lookup`` frame in between, and
        # each message handler finds its line with one probe.
        self._cache_index = self.cache._index
        self._cache_policies = self.cache._policies
        # The event-counted stats.  Hits, data-array accesses and the PAM
        # updates of performs are not counted here: :attr:`stats` derives
        # them from the two counters below, which only the rare paths move,
        # so a hit updates one key (two on a PRV line).
        self._counts: Dict[str, int] = dict.fromkeys(CORE_STAT_KEYS, 0)
        #: Accesses that took one of ``access``'s non-hit returns.
        self._non_hits = 0
        #: Ops performed at MSHR completion (each a data-array access).
        self._mshr_performs = 0
        network.register(core_id, self.handle_message)

    # ------------------------------------------------------------------ API

    @property
    def outstanding(self) -> int:
        return len(self._mshrs)

    @property
    def stats(self) -> Dict[str, int]:
        """This core's counters: a fresh dict, keys in ``CORE_STAT_KEYS``
        order, exact at any moment (mid-run included).

        A derived view.  Every access not taking a non-hit return hit; each
        hit and each MSHR completion performs once (one data-array access),
        and under FSDetect/FSLite each perform also updates the PAM, on top
        of the PRV coverage checks ``access`` counts itself."""
        stats = dict(self._counts)
        hits = (stats[CORE_LOADS] + stats[CORE_STORES] + stats[CORE_RMWS]
                - self._non_hits)
        performs = hits + self._mshr_performs
        stats[CORE_HITS] = hits
        stats[CORE_L1_DATA_ACCESSES] = performs
        if self._detects:
            stats[CORE_PAM_ACCESSES] += performs
        return stats

    def access(self, op: Op, on_complete: CompletionCallback) -> None:
        """Issue one memory operation; ``on_complete(result)`` fires when
        the access is globally performed.

        This is the simulator's innermost protocol path (one call per
        executed memory instruction): the hit check and completion are
        folded inline, the line is found with one probe of the cache
        array's block index, and all address math is mask arithmetic on
        bindings precomputed in ``__init__``.  A hit counts only its kind
        (and, on a PRV line, the coverage check); each other return counts
        once in ``_non_hits`` (see :attr:`stats`).
        """
        stats = self._counts
        kind = op.kind
        if kind is OP_LOAD:
            stats[CORE_LOADS] += 1
        elif kind is OP_STORE:
            stats[CORE_STORES] += 1
        elif kind is OP_RMW:
            stats[CORE_RMWS] += 1
        else:
            raise ProtocolError(f"non-memory op reached the L1: {op.kind}")
        block = op.addr & self._base_mask
        if self._mshrs:
            mshr = self._mshrs.get(block)
            if mshr is not None:
                self._non_hits += 1
                mshr.ops.append((op, on_complete))
                return
        wb_entry = self._wb_entries.get(block) if self._wb_entries else None
        if wb_entry is not None:
            # The block's writeback is still in flight; a request now could
            # overtake the PUTM and fetch stale data. Park the access and
            # replay it once the WB_ACK retires the buffer entry.
            self._non_hits += 1
            wb_entry.meta.setdefault("pending_ops", []).append(
                (op, on_complete))
            return
        entry = self._cache_index.get(block)
        if entry is None:
            self._non_hits += 1
            self._start_miss(block, None, op, on_complete)
            return
        self._cache_policies[entry.set_index].touch(entry.way)
        line = entry.payload
        state = line.state
        # Hit check. A resident line is always in a stable state (S/E/M/
        # PRV); loads hit any of them, stores need M/E, and PRV accesses
        # hit only when the PAM already covers every touched granule
        # (Section V-B: uncovered bytes take a GetCHK/GetXCHK).
        if state is L1_PRV:
            pentry = self._pam_entries.get(block)
            if pentry is None:
                self._non_hits += 1
                raise ProtocolError("PRV line without a PAM entry")
            stats[CORE_PAM_ACCESSES] += 1
            gmask = ((1 << op.size) - 1) << (op.addr & self._offset_mask)
            if self._granularity != 1:
                gmask = self.pam.to_granule_mask(gmask)
            if op.is_write:
                covered = (pentry.write_bits & gmask) == gmask
            else:
                covered = ((pentry.read_bits | pentry.write_bits)
                           & gmask) == gmask
            if not covered:
                self._non_hits += 1
                self._start_miss(block, line, op, on_complete)
                return
        elif op.is_write and not (state is L1_M or state is L1_E):
            self._non_hits += 1
            self._start_miss(block, line, op, on_complete)
            return
        # Hit: the op performs (becomes globally visible) immediately; the
        # core observes completion after the data-array latency.
        result = self._perform(block, line, op)
        self.queue.schedule(self._data_latency, on_complete, result)

    # ------------------------------------------------------------- hit path

    def _perform(self, block: int, line: L1Line, op: Op) -> int:
        """Apply the op to the line's bytes, update PAM, return the result.

        Counts nothing: its data-array access and PAM update are derived
        (see :attr:`stats`)."""
        if op.is_write and line.state is L1_E:
            line.state = L1_M
        offset = op.addr & self._offset_mask
        size = op.size
        data = line.data
        kind = op.kind
        result = 0
        if kind is OP_LOAD:
            result = int.from_bytes(data[offset:offset + size], "little")
        elif kind is OP_STORE:
            data[offset:offset + size] = op.value.to_bytes(size, "little")
            line.dirty = True
        else:  # RMW
            old = int.from_bytes(data[offset:offset + size], "little")
            new = op.modify(old) & ((1 << (8 * size)) - 1)
            data[offset:offset + size] = new.to_bytes(size, "little")
            line.dirty = True
            result = old
        if self._detects:
            # The one PAM update (Section IV): a load sets the touched
            # granules' read bits, a store their write bits, an RMW both.
            byte_mask = ((1 << size) - 1) << offset
            pentry = self._pam_entries.get(block)
            if pentry is None:
                raise ProtocolError(
                    f"access to block {block:#x} with no PAM entry")
            gmask = (byte_mask if self._granularity == 1
                     else self.pam.to_granule_mask(byte_mask))
            if kind is OP_RMW:
                pentry.write_bits |= gmask
                pentry.read_bits |= gmask
            elif kind is OP_STORE:
                pentry.write_bits |= gmask
            else:
                pentry.read_bits |= gmask
        return result

    # ------------------------------------------------------------ miss path

    def _start_miss(self, block: int, line: Optional[L1Line], op: Op,
                    cb: CompletionCallback) -> None:
        stats = self._counts
        if line is not None and line.state is L1_PRV:
            mtype = MSG_GETXCHK if op.is_write else MSG_GETCHK
            stats[CORE_CHK_MISSES] += 1
            stats[CORE_CHK_SENT] += 1
        elif line is not None and line.state is L1_S and op.is_write:
            mtype = MSG_UPGRADE
            stats[CORE_MISSES] += 1
            stats[CORE_UPGRADE_SENT] += 1
        elif op.is_write:
            mtype = MSG_GETX
            stats[CORE_MISSES] += 1
            stats[CORE_GETX_SENT] += 1
        else:
            mtype = MSG_GET
            stats[CORE_MISSES] += 1
            stats[CORE_GET_SENT] += 1
        mshr = Mshr(block, mtype, [(op, cb)])
        self._mshrs[block] = mshr
        self._send_request(mshr, op)

    def _send_request(self, mshr: Mshr, op: Op) -> None:
        # Ops are naturally aligned and ``CacheConfig`` keeps blocks at
        # least 8 bytes, so the touched bytes never straddle the block.
        byte_mask = ((1 << op.size) - 1) << (op.addr & self._offset_mask)
        block = mshr.block_addr
        self.network.send(Message(
            mshr.sent, self.core_id, self.home_of(block), block,
            {"touched_mask": byte_mask, "is_rmw": op.kind is OP_RMW}),
            extra_delay=self._tag_latency)

    def _reissue(self, mshr: Mshr) -> None:
        """Reissue an aborted request (Fig. 11 race) as a plain GET/GETX."""
        self._counts[CORE_REISSUES] += 1
        op = mshr.ops[0][0]
        if mshr.sent in (MSG_GETCHK, MSG_GETXCHK, MSG_UPGRADE):
            mshr.sent = MSG_GETX if op.is_write else MSG_GET
        mshr.aborted = False
        mshr.chk_line_lost = False
        self._send_request(mshr, op)

    # -------------------------------------------------------------- fills

    def _fill(self, block: int, data: bytearray, state: L1State) -> L1Line:
        """Allocate the line (evicting a victim if needed)."""
        line = L1Line(state, data)
        evicted = self.cache.fill(block, line, self._protected_ways(block))
        if evicted is not None:
            self._evict(evicted.block_addr, evicted.payload)
        if self._detects:
            if block in self.pam:
                raise ProtocolError("stale PAM entry at fill")
            self.pam.allocate(block)
        if state is L1_PRV:
            self._counts[CORE_PRV_FILLS] += 1
        return line

    def _protected_ways(self, block: int) -> List[int]:
        """Ways in this set that host blocks with in-flight transactions.

        ``block`` itself is skipped: it is the block being filled, which is
        never resident (``_on_data`` raises if it is)."""
        set_index = self.cache.set_index_of(block)
        index = self._cache_index
        protected = []
        for mshr_block in self._mshrs:
            if mshr_block == block:
                continue
            entry = index.get(mshr_block)
            if entry is not None and entry.set_index == set_index:
                protected.append(entry.way)
        return protected

    def _evict(self, block: int, line: L1Line) -> None:
        """Handle a capacity eviction of ``line`` (stable state)."""
        if line.state in (L1_M, L1_PRV) or line.dirty:
            self._counts[CORE_WRITEBACKS] += 1
            self.write_buffer.insert(block, bytearray(line.data),
                                     prv=line.state is L1_PRV)
            self.network.send(Message(
                MSG_PUTM, self.core_id, self.home_of(block), block,
                {"data": bytes(line.data), "prv": line.state is L1_PRV}))
            # PRV metadata lives in the SAM already; M/E/S metadata may need
            # to be reported on eviction (SEND_MD, Section IV).
            if line.state is not L1_PRV:
                self._send_md_on_eviction(block)
            else:
                self.pam.invalidate(block)
        else:
            self._counts[CORE_SILENT_EVICTIONS] += 1
            self._send_md_on_eviction(block)

    def _send_md_on_eviction(self, block: int) -> None:
        if not self._detects:
            return
        pentry = self.pam.invalidate(block)
        if pentry is not None and pentry.send_md and not pentry.empty:
            self._counts[CORE_REP_MD_SENT] += 1
            self.pam.md_sends += 1
            self.network.send(Message(
                MSG_REP_MD, self.core_id, self.home_of(block), block,
                {"read_bits": pentry.read_bits,
                 "write_bits": pentry.write_bits,
                 "solicited": False}))

    # ----------------------------------------------------- message handling

    def handle_message(self, msg: Message) -> None:
        handler = _L1_DISPATCH[msg.mtype._value_]
        if handler is None:
            raise ProtocolError(f"L1 {self.core_id} cannot handle {msg}")
        handler(self, msg)

    # -- data responses -------------------------------------------------------

    def _fill_state_for(self, msg: Message, mshr: Mshr) -> L1State:
        wants_write = mshr.sent in (MSG_GETX, MSG_GETXCHK,
                                    MSG_UPGRADE)
        mtype = msg.mtype
        if mtype is MSG_DATA_PRV:
            return L1_PRV
        if mtype is MSG_DATA_E:
            return L1_M if wants_write else L1_E
        # DATA, or DATA_TO_REQ forwarded by the old owner.
        return L1_M if wants_write else L1_S

    def _on_data(self, msg: Message) -> None:
        block = msg.block_addr
        mshr = self._mshrs.get(block)
        if mshr is None:
            raise ProtocolError(
                f"stray data response at core {self.core_id}: {msg}")
        if mshr.aborted:
            # The line was invalidated while this response was in flight
            # (Fig. 11/12 races): drop the response and reissue. The
            # directory regrants idempotently.
            self._reissue(mshr)
            return
        payload = msg.payload
        data = bytearray(payload["data"])
        state = self._fill_state_for(msg, mshr)
        if block in self._cache_index:
            # A CHK answered with data after termination: the line was
            # invalidated by Inv_PRV before this response, so a live line
            # here is a protocol bug.
            raise ProtocolError("data response for a resident line")
        line = self._fill(block, data, state)
        if self._detects and payload.get("req_md"):
            self._set_send_md(block)
        self._complete_mshr(block, mshr, line)

    def _complete_mshr(self, block: int, mshr: Mshr, line: L1Line) -> None:
        """Grant arrived: the first op performs immediately (it is globally
        ordered at the grant), queued ops replay through the normal path."""
        del self._mshrs[block]
        (first_op, first_cb) = mshr.ops[0]
        rest = mshr.ops[1:]
        self._mshr_performs += 1
        result = self._perform(block, line, first_op)
        if mshr.inv_after_fill:
            # Consume-then-drop (IS_I): the invalidation was already
            # acknowledged; the fill satisfies exactly one access.
            self._invalidate_line(block, False)
        self.queue.schedule(self._data_latency, first_cb, result)
        # Replay queued ops *now* (hits apply synchronously) so that an op
        # issued later by a multi-outstanding core can never apply before
        # an older queued op — program order per core is preserved.
        for op, cb in rest:
            self.access(op, cb)

    # -- upgrade / CHK acks -----------------------------------------------------

    def _on_upg_ack(self, msg: Message) -> None:
        block = msg.block_addr
        mshr = self._mshrs.get(block)
        if mshr is None:
            raise ProtocolError(f"stray upgrade ack: {msg}")
        entry = self._cache_index.get(block)
        if entry is None or mshr.aborted:
            # Invalidated while the upgrade was in flight (Fig. 12 race):
            # reissue as GetX.
            self._reissue(mshr)
            return
        line = entry.payload
        line.state = (L1_PRV if msg.mtype is MSG_UPG_ACK_PRV
                      else L1_M)
        if self._detects and msg.payload.get("req_md"):
            self._set_send_md(block)
        self._complete_mshr(block, mshr, line)

    def _on_ack_prv(self, msg: Message) -> None:
        block = msg.block_addr
        mshr = self._mshrs.get(block)
        if mshr is None:
            raise ProtocolError(f"stray Ack_PRV: {msg}")
        entry = self._cache_index.get(block)
        if entry is None or entry.payload.state is not L1_PRV or mshr.aborted:
            self._reissue(mshr)
            return
        self._complete_mshr(block, mshr, entry.payload)

    # -- invalidations and interventions ------------------------------------------

    def _metadata_response(self, block: int, solicited: bool = True,
                           putm_in_flight: bool = False) -> None:
        """Send REP_MD if we still have the PAM entry, else a phantom.

        ``putm_in_flight`` tells the directory our eviction writeback for
        the block is still on the wire, so a privatization init must not
        conclude (and serve possibly-stale data) before the PUTM lands.
        """
        if not self._detects:
            return
        pentry = self._pam_entries.get(block)
        dst = self.home_of(block)
        if pentry is not None:
            self._counts[CORE_REP_MD_SENT] += 1
            self.network.send(Message(
                MSG_REP_MD, self.core_id, dst, block,
                {"read_bits": pentry.read_bits,
                 "write_bits": pentry.write_bits,
                 "solicited": solicited,
                 "putm_in_flight": putm_in_flight}))
        else:
            self._counts[CORE_PHANTOM_SENT] += 1
            self.network.send(Message(
                MSG_PHANTOM_MD, self.core_id, dst, block,
                {"solicited": solicited, "putm_in_flight": putm_in_flight}))

    def _set_send_md(self, block: int) -> None:
        """The directory asked for this block's metadata: report it again
        when the line is evicted (SEND_MD, Section IV)."""
        pentry = self._pam_entries.get(block)
        if pentry is not None:
            pentry.send_md = True

    def _invalidate_line(self, block: int, send_md: bool,
                         solicited: bool = True) -> None:
        if send_md:
            self._metadata_response(block, solicited)
        self.cache.invalidate(block)
        self.pam.invalidate(block)

    def _on_inv(self, msg: Message) -> None:
        self._counts[CORE_INVALIDATIONS_RECEIVED] += 1
        block = msg.block_addr
        req_md = bool(msg.payload.get("req_md"))
        mshr = self._mshrs.get(block)
        if block in self._cache_index:
            self._invalidate_line(block, req_md)
        elif mshr is None or mshr.sent is not MSG_UPGRADE:
            # The copy is gone: silently evicted (stale sharer info at the
            # directory), or a GET/GETX/CHK is in flight.  A pending
            # UPGRADE answers nothing more: the directory converts it to a
            # GetX and answers with data.
            if req_md:
                self._metadata_response(block)
            if mshr is not None and mshr.sent is MSG_GET:
                # INV overtook the data response of a GET: consume then drop.
                mshr.inv_after_fill = True
        self.network.send(Message(
            MSG_INV_ACK, self.core_id, msg.src, block,
            {"requestor": msg.payload.get("requestor")}),
            extra_delay=self._tag_latency)

    def _on_fwd(self, msg: Message) -> None:
        """Answer a FWD_GET (downgrade to S) or FWD_GETX (invalidate) from
        the line, from a buffered writeback, or with ACK_NO_DATA."""
        self._counts[CORE_INTERVENTIONS_RECEIVED] += 1
        block = msg.block_addr
        exclusive = msg.mtype is MSG_FWD_GETX
        req_md = bool(msg.payload.get("req_md"))
        requestor = msg.payload["requestor"]
        entry = self._cache_index.get(block)
        delay = self._data_latency
        send = self.network.send
        core = self.core_id
        line = entry.payload if entry is not None else None
        # One immutable copy serves both messages; receivers copy it into
        # a bytearray.
        from_wb = False
        if line is not None and (line.state is L1_M or line.state is L1_E):
            data = bytes(line.data)
        else:
            wb = self._wb_entries.get(block)
            if wb is None:
                # Clean silent eviction (the ordered forward network
                # guarantees no grant is in flight behind this): the LLC
                # copy is valid.
                send(Message(MSG_ACK_NO_DATA, core, msg.src, block,
                             {"requestor": requestor}),
                     extra_delay=delay)
                if req_md:
                    self._metadata_response(block)
                return
            data = bytes(wb.data)
            from_wb = True
        send(Message(MSG_DATA_TO_REQ, core, requestor, block,
                     {"data": data, "req_md": req_md}),
             extra_delay=delay)
        if exclusive or from_wb or line.state is L1_M or line.dirty:
            # A GETX's transfer ack carries the data so the LLC copy is
            # always fresh; this is what makes drop-and-reissue races safe.
            payload = {"data": data, "requestor": requestor}
            if exclusive:
                payload["xfer"] = True
            if from_wb:
                payload["from_wb"] = True
            send(Message(MSG_DATA_WB, core, msg.src, block, payload),
                 extra_delay=delay)
        else:
            send(Message(MSG_XFER_ACK, core, msg.src, block,
                         {"requestor": requestor}),
                 extra_delay=delay)
        if from_wb:
            if req_md:
                self._metadata_response(block)
        elif exclusive:
            self._invalidate_line(block, req_md)
        else:
            line.state = L1_S
            line.dirty = False
            if req_md and self._detects:
                self._metadata_response(block)
                self._set_send_md(block)

    # -- privatization ------------------------------------------------------------

    def _on_tr_prv(self, msg: Message) -> None:
        block = msg.block_addr
        entry = self._cache_index.get(block)
        if entry is not None:
            line = entry.payload
            if line.state is L1_M or line.dirty:
                # Flush so the LLC copy is fresh at privatization start.
                self.network.send(Message(
                    MSG_DATA_WB, self.core_id, msg.src, block,
                    {"data": bytes(line.data), "tr_prv": True}),
                    extra_delay=self._data_latency)
                line.dirty = False
            self._metadata_response(block)
            pentry = self._pam_entries.get(block)
            if pentry is not None:
                pentry.read_bits = 0
                pentry.write_bits = 0
            mshr = self._mshrs.get(block)
            if mshr is None or mshr.sent is not MSG_UPGRADE:
                line.state = L1_PRV
        else:
            # Evicted (possibly with a PUTM in flight): phantom response.
            # If our dirty writeback is still on the wire, flag it so the
            # directory holds the privatization open until the data lands —
            # otherwise DATA_PRV would serve a stale LLC copy and the late
            # PUTM would be dropped as stale.
            self._metadata_response(block, True, block in self._wb_entries)
            mshr = self._mshrs.get(block)
            if mshr is not None and mshr.sent in (MSG_GET,
                                                  MSG_GETX):
                # Our fill response is in flight while the block privatizes:
                # the phantom told the directory we hold nothing, so we must
                # drop the stale response and reissue (join as PRV sharer).
                mshr.aborted = True

    def _on_inv_prv(self, msg: Message) -> None:
        self._counts[CORE_INVALIDATIONS_RECEIVED] += 1
        block = msg.block_addr
        entry = self._cache_index.get(block)
        mshr = self._mshrs.get(block)
        if entry is not None:
            self.network.send(Message(
                MSG_PRV_WB, self.core_id, msg.src, block,
                {"data": bytes(entry.payload.data)}),
                extra_delay=self._data_latency)
            self.cache.invalidate(block)
            self.pam.invalidate(block)
            if mshr is not None:
                if mshr.sent in (MSG_GETCHK, MSG_GETXCHK):
                    # The directory answers the CHK with data post-termination.
                    mshr.chk_line_lost = True
                elif mshr.sent is MSG_UPGRADE:
                    mshr.aborted = True
        elif block in self._wb_entries:
            # Our PRV eviction writeback is in flight; the PUTM carries the
            # data and will complete the termination at the directory. A
            # CTRL_WB here would let the termination finish first and the
            # privatized bytes in the late PUTM would never be merged.
            pass
        else:
            self.network.send(Message(
                MSG_CTRL_WB, self.core_id, msg.src, block, {}),
                extra_delay=self._tag_latency)
            if mshr is not None and mshr.sent in (
                    MSG_GET, MSG_GETX, MSG_UPGRADE):
                mshr.aborted = True

    # -- recalls and writeback acks ------------------------------------------------

    def _on_recall(self, msg: Message) -> None:
        block = msg.block_addr
        entry = self._cache_index.get(block)
        if entry is not None and (entry.payload.state is L1_M
                                  or entry.payload.dirty):
            self.network.send(Message(
                MSG_DATA_WB, self.core_id, msg.src, block,
                {"data": bytes(entry.payload.data), "recall": True}),
                extra_delay=self._data_latency)
            self._invalidate_line(block, bool(msg.payload.get("req_md")))
        elif block in self._wb_entries:
            # Our eviction PUTM is still on the wire (wb channel); the
            # directory counts it as this recall's response and merges its
            # data (see ``_on_putm``'s RECALL arm), so stay silent.  An
            # ACK_NO_DATA here would ride the response channel, overtake
            # the PUTM, and finish the recall with the stale LLC copy
            # while the fresh bytes are still in flight.
            pass
        else:
            if entry is not None:
                self._invalidate_line(block, bool(msg.payload.get("req_md")))
            self.network.send(Message(
                MSG_ACK_NO_DATA, self.core_id, msg.src, block,
                {"recall": True}),
                extra_delay=self._tag_latency)

    def _on_wb_ack(self, msg: Message) -> None:
        entry = self._wb_entries.pop(msg.block_addr, None)
        if entry is not None:
            for op, cb in entry.meta.get("pending_ops", []):
                self.access(op, cb)

    # ----------------------------------------------------------------- misc

    def drain_complete(self) -> bool:
        """True when no transactions or buffered writebacks remain."""
        return not self._mshrs and len(self.write_buffer) == 0

    def block_quiescent(self, block: int) -> bool:
        """True when ``block`` has no MSHR and no buffered writeback here."""
        return block not in self._mshrs and block not in self.write_buffer

    def transactions(self) -> Dict[int, Mshr]:
        """Outstanding MSHRs by block (read-only view for checkers)."""
        return dict(self._mshrs)

    # -------------------------------- fault-injection seams (repro.faults)

    def resident_blocks(self) -> List[int]:
        """Sorted resident L1 block addresses (deterministic targeting)."""
        return sorted(self.cache.addr_of(e) for e in self.cache.iter_valid())

    def fault_evict(self, block: int) -> bool:
        """Force a capacity-style eviction of ``block`` through the normal
        :meth:`_evict` path (writeback + unsolicited metadata, exactly as a
        victim selection would produce).

        Refuses blocks with an in-flight transaction or a buffered
        writeback — real victim selection protects those ways too
        (:meth:`_protected_ways`), so a forced eviction stays
        indistinguishable from a natural one.
        """
        if block in self._mshrs or block in self.write_buffer:
            return False
        entry = self.cache.peek(block)
        if entry is None:
            return False
        line = entry.payload
        self.cache.invalidate(block)
        self._evict(block, line)
        return True


#: Per-type handler table indexed by ``MessageType._value_``: one tuple
#: index + call per delivered message.  It holds the class's plain
#: functions, bound once at import (``handle_message`` passes ``self``), so
#: no controller references itself through a table of bound methods and a
#: finished machine is freed by reference counting.  Patching a handler
#: therefore means patching this table, not the class attribute.  The
#: seeded mutations patch no handler: they patch the SAM's check/record
#: names, ``_perform`` (the PAM update), the directory's ``merge_block``
#: and the counters' saturation reset (:mod:`repro.check.mutations`).
_L1_DISPATCH: tuple = table_by_value({
    MSG_DATA: L1Controller._on_data,
    MSG_DATA_E: L1Controller._on_data,
    MSG_DATA_PRV: L1Controller._on_data,
    MSG_DATA_TO_REQ: L1Controller._on_data,
    MSG_UPG_ACK: L1Controller._on_upg_ack,
    MSG_UPG_ACK_PRV: L1Controller._on_upg_ack,
    MSG_ACK_PRV: L1Controller._on_ack_prv,
    MSG_INV: L1Controller._on_inv,
    MSG_FWD_GET: L1Controller._on_fwd,
    MSG_FWD_GETX: L1Controller._on_fwd,
    MSG_TR_PRV: L1Controller._on_tr_prv,
    MSG_INV_PRV: L1Controller._on_inv_prv,
    MSG_RECALL: L1Controller._on_recall,
    MSG_WB_ACK: L1Controller._on_wb_ack,
})
