"""The directory's response rules, pinned message by message.

Each test drives one DirectorySlice through a response-collecting
transaction and pins every message it sends (type, destination, payload,
extra delay, in order) and the LLC line, SAM entry and busy context it
leaves.  The transactions covered are the ones a run rarely reaches:

* the countdown that finishes a context when its last response lands:
  Ctrl_WB, Prv_WB, PUTM and DATA_WB closing (or not) a termination,
  REP_MD/PHANTOM_MD with ``putm_in_flight`` holding a privatization open
  until the PUTM lands (whose WB_ACK goes out before the grant), and
  recalls collected by PUTM, DATA_WB, ACK_NO_DATA and INV_ACK;
* taking an owner's data: every arm that installs a core's copy in the LLC
  leaves the bytes there and marks the line dirty;
* a PRV sharer's departure: a mid-episode PUTM and a Prv_WB that crossed
  the termination's finish merge by the live SAM last writer, drop the
  core from the PRV sharers and keep its SAM claims;
* demand requests: the stale PUTM with no LLC line, the owner's UPGRADE
  regrant, an UPGRADE converted to a GETX in I, S and EM, and the PRV
  grant step shared by joins and GetCHK/GetXCHK.
"""

from __future__ import annotations

import pytest

from repro.coherence.states import (
    BusyKind,
    DirState,
    ProtocolMode,
    TerminationCause,
)
from repro.common.config import SystemConfig
from repro.common.statkeys import (
    SLICE_CHK_FAIL,
    SLICE_CHK_PASS,
    SLICE_MEMORY_WRITEBACKS,
    SLICE_PRV_JOINS,
    SLICE_REGRANTS,
    SLICE_SAM_ACCESSES,
    SLICE_STALE_PUTM,
    SLICE_UPGRADES_CONVERTED,
    term_key,
)
from repro.interconnect.message import Message, MessageType as T

from test_directory_unit import BLOCK, DATA, Harness

#: Two distinct block images a core can write back.
X = bytes([0xA0]) * 64
Y = bytes([0xB0]) * 64
#: The slice's extra delays: the LLC tag latency on every send, plus the
#: data latency when the LLC's bytes go out, plus the conflict-check
#: latency on PRV grants.
_CONFIG = SystemConfig()
TAG = _CONFIG.llc.tag_latency
DATA_DELAY = TAG + _CONFIG.llc.data_latency
CHK = _CONFIG.protocol.conflict_check_latency


class DirHarness(Harness):
    """:class:`Harness` that also records each send's extra delay."""

    def __init__(self, mode=ProtocolMode.FSLITE, cores=4):
        super().__init__(mode=mode, cores=cores)
        self.log = []

        def send(msg, extra_delay=0):
            self.net.sent.append(msg)
            self.log.append((msg.mtype, msg.dst, dict(msg.payload),
                             extra_delay))

        self.net.send = send

    def clear(self):
        super().clear()
        self.log.clear()

    def take_log(self):
        log = list(self.log)
        self.clear()
        return log

    def ctx(self):
        return self.dir._busy.get(BLOCK)

    def sam(self):
        return self.dir.detector.sam.peek(BLOCK)


def mask(cores) -> int:
    out = 0
    for core in cores:
        out |= 1 << core
    return out


def merged(**writes) -> bytes:
    """DATA with byte ``lo..hi`` taken from an image: ``name=(img, lo, hi)``."""
    out = bytearray(DATA)
    for img, lo, hi in writes.values():
        out[lo:hi] = img[lo:hi]
    return bytes(out)


def privatized(sharers, writes) -> DirHarness:
    """An FSLite slice whose block is privatized by ``sharers``; ``writes``
    maps a core to the byte mask it last wrote, as the SAM records it."""
    h = DirHarness()
    h.inject(T.GET, src=0, touched_mask=0xF)
    line = h.line()
    line.state, line.owner, line.sharers = DirState.PRV, None, 0
    line.prv_sharers = mask(sharers)
    sam, _, _ = h.dir.detector.sam.allocate(BLOCK)
    for core, gmask in writes.items():
        sam.record_grant(core, gmask, True, False)
    h.clear()
    return h


def terminating(sharers, writes) -> DirHarness:
    h = privatized(sharers, writes)
    h.dir.external_access(BLOCK)
    assert h.take_log() == [(T.INV_PRV, c, {}, TAG) for c in sorted(sharers)]
    return h


def assert_terminated(h, data):
    line = h.line()
    assert (line.state, line.owner, line.sharers, line.prv_sharers) \
        == (DirState.I, None, 0, 0)
    assert line.dirty is True
    assert bytes(line.data) == data
    assert h.sam() is None
    assert h.ctx() is None


# ------------------------------------------------------ termination countdown

class TestTerminationCountdown:
    def test_ctrl_wb_that_does_not_close_only_clears_its_bit(self):
        h = terminating({0, 1, 2}, {0: 0xFF, 1: 0xFF00})
        h.inject(T.CTRL_WB, src=1)
        assert h.take_log() == []
        ctx = h.ctx()
        assert ctx.kind is BusyKind.PRV_TERM
        assert ctx.waiting == mask({0, 2})
        assert h.line().state is DirState.PRV
        assert bytes(h.line().data) == DATA

    def test_ctrl_wb_closes_the_termination(self):
        h = terminating({0, 1, 2}, {0: 0xFF, 1: 0xFF00})
        h.inject(T.PRV_WB, src=0, data=X)
        h.inject(T.CTRL_WB, src=1)
        assert h.ctx().waiting == mask({2})
        h.inject(T.CTRL_WB, src=2)
        assert h.take_log() == []
        # Core 1 answered Ctrl_WB, so its granules keep the LLC bytes.
        assert_terminated(h, merged(a=(X, 0, 8)))
        assert h.dir.stats[term_key("external_socket")] == 1

    def test_ctrl_wb_without_a_termination_is_ignored(self):
        h = privatized({0, 1}, {0: 0xF})
        h.inject(T.CTRL_WB, src=1)
        assert h.take_log() == []
        assert h.ctx() is None
        assert h.line().prv_sharers == mask({0, 1})

    def test_ctrl_wb_from_a_core_already_answered_keeps_waiting(self):
        h = terminating({0, 1}, {0: 0xF})
        h.inject(T.PRV_WB, src=0, data=X)
        h.inject(T.CTRL_WB, src=0)
        assert h.ctx().waiting == mask({1})

    def test_putm_closes_the_termination_after_its_wb_ack(self):
        h = terminating({0, 1}, {0: 0xF, 1: 0xF0})
        h.inject(T.PRV_WB, src=0, data=X)
        assert h.take_log() == []
        h.inject(T.PUTM, src=1, data=Y, prv=True)
        assert h.take_log() == [(T.WB_ACK, 1, {}, TAG)]
        assert_terminated(h, merged(a=(X, 0, 4), b=(Y, 4, 8)))
        assert h.dir.stats[SLICE_STALE_PUTM] == 0

    def test_putm_from_a_core_already_answered_is_acked_not_merged(self):
        h = terminating({0, 1}, {0: 0xF, 1: 0xF0})
        h.inject(T.PRV_WB, src=0, data=X)
        h.inject(T.PUTM, src=0, data=Y, prv=True)
        assert h.take_log() == [(T.WB_ACK, 0, {}, TAG)]
        assert h.ctx().waiting == mask({1})
        assert bytes(h.line().data) == merged(a=(X, 0, 4))

    def test_data_wb_during_termination_merges_and_counts(self):
        h = terminating({0, 1}, {0: 0xF, 1: 0xF0})
        h.inject(T.DATA_WB, src=1, data=Y, tr_prv=True)
        assert h.take_log() == []
        assert h.ctx().waiting == mask({0})
        assert bytes(h.line().data) == merged(b=(Y, 4, 8))
        h.inject(T.PRV_WB, src=0, data=X)
        assert h.take_log() == []
        assert_terminated(h, merged(a=(X, 0, 4), b=(Y, 4, 8)))

    def test_prv_wb_from_a_core_already_answered_is_dropped(self):
        h = terminating({0, 1}, {0: 0xF, 1: 0xF0})
        h.inject(T.CTRL_WB, src=1)
        h.inject(T.PRV_WB, src=1, data=Y)
        assert h.ctx().waiting == mask({0})
        assert bytes(h.line().data) == DATA

    def test_termination_reruns_its_request(self):
        # A failed GetXCHK terminates the episode; the request reruns
        # once the last response lands, now against an I line.
        h = privatized({0, 1}, {0: 0xF})
        h.inject(T.GETXCHK, src=1, touched_mask=0x3, is_rmw=False)
        assert h.take_log() == [(T.INV_PRV, 0, {}, TAG),
                                (T.INV_PRV, 1, {}, TAG)]
        assert h.dir.stats[SLICE_CHK_FAIL] == 1
        assert h.dir.stats[term_key("conflict")] == 1
        h.inject(T.PRV_WB, src=1, data=Y)
        h.inject(T.PRV_WB, src=0, data=X)
        # The rerun is a plain GETX on the terminated (I) line.
        assert h.take_log() == [
            (T.DATA_E, 1, {"data": merged(a=(X, 0, 4))}, DATA_DELAY)]
        assert (h.line().state, h.line().owner) == (DirState.EM, 1)


# ------------------------------------------------- privatization countdown

def start_init(h, requestor=1, mtype=T.GETX, touched=0xF0):
    """Open a PRV_INIT for ``requestor``'s request on an EM line owned by
    core 0 and return the TR_PRV it sent."""
    msg = Message(mtype, requestor, h.node, BLOCK,
                  {"touched_mask": touched, "is_rmw": False})
    h.dir._start_prv_init(msg, h.line())
    return h.take_log()


class TestPrivatizationCountdown:
    def _owned(self):
        h = DirHarness()
        h.inject(T.GETX, src=0, touched_mask=0xF)
        h.clear()
        return h

    def test_rep_md_answers_the_tr_prv(self):
        h = self._owned()
        assert start_init(h) == [(T.TR_PRV, 0, {"req_md": True}, TAG)]
        h.inject(T.REP_MD, src=0, read_bits=0, write_bits=0xF,
                 solicited=True, putm_in_flight=False)
        assert h.take_log() == [(T.DATA_PRV, 1, {"data": DATA}, DATA_DELAY)]
        line = h.line()
        assert line.state is DirState.PRV
        assert line.prv_sharers == mask({0, 1})
        assert h.sam().last_writer_map()[4:8] == [1] * 4

    @pytest.mark.parametrize("md", [T.REP_MD, T.PHANTOM_MD])
    def test_putm_in_flight_holds_the_init_until_the_putm(self, md):
        h = self._owned()
        start_init(h)
        payload = {"solicited": True, "putm_in_flight": True}
        if md is T.REP_MD:
            payload.update(read_bits=0, write_bits=0xF)
        h.inject(md, src=0, **payload)
        assert h.take_log() == []
        ctx = h.ctx()
        assert ctx.kind is BusyKind.PRV_INIT
        assert ctx.waiting == mask({0})
        assert ctx.prospective == 0
        h.inject(T.PUTM, src=0, data=X, prv=False)
        # The evictor's WB_ACK goes out before the grant its PUTM closes.
        assert h.take_log() == [(T.WB_ACK, 0, {}, TAG),
                                (T.DATA_PRV, 1, {"data": X}, DATA_DELAY)]
        line = h.line()
        assert line.state is DirState.PRV
        assert line.prv_sharers == mask({1})
        assert line.dirty is True
        assert bytes(line.data) == X
        assert h.ctx() is None

    def test_putm_before_the_metadata_answers_the_tr_prv(self):
        h = self._owned()
        start_init(h)
        h.inject(T.PUTM, src=0, data=X, prv=False)
        assert h.take_log() == [(T.WB_ACK, 0, {}, TAG),
                                (T.DATA_PRV, 1, {"data": X}, DATA_DELAY)]
        assert h.line().prv_sharers == mask({1})

    def test_data_wb_during_init_takes_the_data_only(self):
        h = self._owned()
        start_init(h, mtype=T.UPGRADE)
        h.inject(T.DATA_WB, src=0, data=X, tr_prv=True)
        assert h.take_log() == []
        assert h.ctx().waiting == mask({0})
        assert (bytes(h.line().data), h.line().dirty) == (X, True)
        h.inject(T.REP_MD, src=0, read_bits=0, write_bits=0xF,
                 solicited=True, putm_in_flight=False)
        assert h.take_log() == [(T.UPG_ACK_PRV, 1, {}, TAG)]

    def test_unsolicited_rep_md_does_not_answer(self):
        h = self._owned()
        start_init(h)
        h.inject(T.REP_MD, src=0, read_bits=0, write_bits=0xF,
                 solicited=False)
        assert h.take_log() == []
        assert h.ctx().waiting == mask({0})


# ----------------------------------------------------------- recall countdown

class TestRecallCountdown:
    def _recalling(self, mtype=T.GETX):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(mtype, src=0, touched_mask=0xF)
        h.clear()
        assert h.dir.fault_llc_eviction(BLOCK)
        return h

    def test_putm_answers_the_recall(self):
        h = self._recalling()
        assert h.take_log() == [(T.RECALL, 0, {}, TAG)]
        h.inject(T.PUTM, src=0, data=X, prv=False)
        assert h.take_log() == [(T.WB_ACK, 0, {}, TAG)]
        assert h.line() is None
        assert bytes(h.memory.peek_block(BLOCK)) == X
        assert h.dir.stats[SLICE_MEMORY_WRITEBACKS] == 1

    def test_data_wb_answers_the_recall(self):
        h = self._recalling()
        h.take_log()
        h.inject(T.DATA_WB, src=0, data=X, recall=True)
        assert h.take_log() == []
        assert h.line() is None
        assert bytes(h.memory.peek_block(BLOCK)) == X

    def test_ack_no_data_answers_the_recall(self):
        h = self._recalling()
        h.take_log()
        h.inject(T.ACK_NO_DATA, src=0, recall=True)
        assert h.line() is None
        assert h.dir.stats[SLICE_MEMORY_WRITEBACKS] == 0

    def test_inv_acks_answer_a_shared_recall(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GET, src=0, touched_mask=0xF)
        h.inject(T.GET, src=1, touched_mask=0xF)
        h.inject(T.XFER_ACK, src=0, requestor=1)
        h.clear()
        assert h.dir.fault_llc_eviction(BLOCK)
        assert h.take_log() == [
            (T.INV, 0, {"requestor": None, "recall": True}, TAG),
            (T.INV, 1, {"requestor": None, "recall": True}, TAG)]
        h.inject(T.INV_ACK, src=1, requestor=None)
        assert h.ctx().waiting == mask({0})
        h.inject(T.INV_ACK, src=0, requestor=None)
        assert h.line() is None
        assert h.ctx() is None


# ---------------------------------------------------------- taking the data

class TestTakingOwnerData:
    def test_putm_from_the_em_owner(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GETX, src=0, touched_mask=0xF)
        h.clear()
        h.inject(T.PUTM, src=0, data=X, prv=False)
        assert h.take_log() == [(T.WB_ACK, 0, {}, TAG)]
        line = h.line()
        assert (line.state, line.owner, line.dirty) == (DirState.I, None, True)
        assert bytes(line.data) == X

    def test_putm_during_a_forward_stays_busy(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GETX, src=0, touched_mask=0xF)
        h.inject(T.GETX, src=1, touched_mask=0xF)
        assert h.take_log()[-1] == (T.FWD_GETX, 0,
                                    {"requestor": 1, "req_md": False}, TAG)
        h.inject(T.PUTM, src=0, data=X, prv=False)
        assert h.take_log() == [(T.WB_ACK, 0, {}, TAG)]
        assert h.ctx().kind is BusyKind.FWD
        assert (bytes(h.line().data), h.line().dirty) == (X, True)
        h.inject(T.DATA_WB, src=0, data=X, requestor=1, xfer=True,
                 from_wb=True)
        assert h.take_log() == []
        assert (h.line().state, h.line().owner) == (DirState.EM, 1)
        assert h.ctx() is None

    @pytest.mark.parametrize("fwd,payload,state,sharers", [
        (T.GET, {}, DirState.S, {0, 1}),
        (T.GET, {"from_wb": True}, DirState.S, {1}),
        (T.GETX, {"xfer": True}, DirState.EM, set()),
    ])
    def test_data_wb_closes_a_forward(self, fwd, payload, state, sharers):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GETX, src=0, touched_mask=0xF)
        h.inject(fwd, src=1, touched_mask=0xF)
        h.clear()
        h.inject(T.DATA_WB, src=0, data=X, requestor=1, **payload)
        assert h.take_log() == []
        line = h.line()
        assert (line.state, line.sharers) == (state, mask(sharers))
        assert (bytes(line.data), line.dirty) == (X, True)
        assert h.ctx() is None

    def test_data_wb_with_no_context_is_taken(self):
        h = DirHarness()
        h.inject(T.GET, src=0, touched_mask=0xF)
        h.clear()
        h.inject(T.DATA_WB, src=0, data=X, tr_prv=True)
        assert h.take_log() == []
        line = h.line()
        assert (line.state, line.owner) == (DirState.EM, 0)
        assert (bytes(line.data), line.dirty) == (X, True)

    def test_data_wb_with_no_context_and_no_line_is_dropped(self):
        h = DirHarness()
        h.inject(T.DATA_WB, src=0, data=X, tr_prv=True)
        assert h.take_log() == []
        assert h.line() is None
        assert bytes(h.memory.peek_block(BLOCK)) == DATA


# ----------------------------------------------------------- PRV departures

class TestPrvDeparture:
    """A mid-episode PUTM and a Prv_WB that crossed the termination's
    finish both merge by the live SAM last writer, drop the core from
    the PRV sharers and keep its SAM claims."""

    @pytest.mark.parametrize("mtype,acked", [(T.PUTM, True),
                                             (T.PRV_WB, False)])
    def test_departure_merges_and_keeps_claims(self, mtype, acked):
        h = privatized({0, 1, 2}, {0: 0xF, 1: 0xF0})
        payload = {"data": Y}
        if mtype is T.PUTM:
            payload["prv"] = True
        h.inject(mtype, src=1, **payload)
        assert h.take_log() == ([(T.WB_ACK, 1, {}, TAG)] if acked else [])
        line = h.line()
        assert line.state is DirState.PRV
        assert line.prv_sharers == mask({0, 2})
        assert bytes(line.data) == merged(b=(Y, 4, 8))
        sam = h.sam()
        assert sam.write_masks[1] == 0xF0
        assert sam.last_writer_map()[:8] == [0] * 4 + [1] * 4
        assert h.ctx() is None
        assert h.dir.stats[SLICE_STALE_PUTM] == 0

    def test_putm_from_a_non_sharer_is_stale(self):
        h = privatized({0, 2}, {0: 0xF, 1: 0xF0})
        h.inject(T.PUTM, src=1, data=Y, prv=True)
        assert h.take_log() == [(T.WB_ACK, 1, {}, TAG)]
        assert bytes(h.line().data) == DATA
        assert h.line().prv_sharers == mask({0, 2})
        assert h.dir.stats[SLICE_STALE_PUTM] == 1

    def test_crossed_prv_wb_for_a_line_no_longer_prv_is_dropped(self):
        h = DirHarness()
        h.inject(T.GETX, src=0, touched_mask=0xF)
        h.clear()
        h.inject(T.PRV_WB, src=1, data=Y)
        assert h.take_log() == []
        assert bytes(h.line().data) == DATA
        assert (h.line().state, h.line().owner) == (DirState.EM, 0)


# ------------------------------------------------------------ demand requests

class TestDemandRequests:
    def test_stale_putm_with_no_llc_line(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.PUTM, src=2, data=X, prv=False)
        assert h.take_log() == [(T.WB_ACK, 2, {}, TAG)]
        assert h.dir.stats[SLICE_STALE_PUTM] == 1
        assert h.line() is None
        assert bytes(h.memory.peek_block(BLOCK)) == DATA

    def test_owner_upgrade_is_regranted(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GETX, src=0, touched_mask=0xF)
        h.clear()
        h.inject(T.UPGRADE, src=0, touched_mask=0xF)
        assert h.take_log() == [(T.UPG_ACK, 0, {}, TAG)]
        assert h.dir.stats[SLICE_REGRANTS] == 1
        assert h.dir.stats[SLICE_UPGRADES_CONVERTED] == 0
        assert (h.line().state, h.line().owner) == (DirState.EM, 0)

    @pytest.mark.parametrize("mtype", [T.GET, T.GETX])
    def test_owner_demand_is_regranted(self, mtype):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GETX, src=0, touched_mask=0xF)
        h.clear()
        h.inject(mtype, src=0, touched_mask=0xF)
        assert h.take_log() == [(T.DATA_E, 0, {"data": DATA}, DATA_DELAY)]
        assert h.dir.stats[SLICE_REGRANTS] == 1

    def test_upgrade_converted_in_i(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GETX, src=0, touched_mask=0xF)
        h.inject(T.PUTM, src=0, data=X, prv=False)
        h.clear()
        h.inject(T.UPGRADE, src=1, touched_mask=0xF)
        assert h.take_log() == [(T.DATA_E, 1, {"data": X}, DATA_DELAY)]
        assert (h.line().state, h.line().owner) == (DirState.EM, 1)
        assert h.dir.stats[SLICE_UPGRADES_CONVERTED] == 1

    def test_upgrade_converted_in_s(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GET, src=0, touched_mask=0xF)
        h.inject(T.GET, src=1, touched_mask=0xF)
        h.inject(T.XFER_ACK, src=0, requestor=1)
        h.clear()
        h.inject(T.UPGRADE, src=2, touched_mask=0xF)
        inv = {"requestor": 2, "req_md": False}
        assert h.take_log() == [(T.INV, 0, inv, TAG), (T.INV, 1, inv, TAG)]
        ctx = h.ctx()
        assert ctx.kind is BusyKind.INV_COLLECT
        assert ctx.request.mtype is T.GETX
        assert ctx.upgrade is False
        assert ctx.waiting == mask({0, 1})
        assert h.dir.stats[SLICE_UPGRADES_CONVERTED] == 1
        h.inject(T.INV_ACK, src=0, requestor=2)
        assert h.take_log() == []
        h.inject(T.INV_ACK, src=1, requestor=2)
        assert h.take_log() == [(T.DATA_E, 2, {"data": DATA, "req_md": False},
                                 DATA_DELAY)]
        assert (h.line().state, h.line().owner, h.line().sharers) \
            == (DirState.EM, 2, 0)

    def test_upgrade_converted_in_em(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GET, src=0, touched_mask=0xF)
        h.clear()
        h.inject(T.UPGRADE, src=1, touched_mask=0xF)
        assert h.take_log() == [
            (T.FWD_GETX, 0, {"requestor": 1, "req_md": False}, TAG)]
        ctx = h.ctx()
        assert ctx.kind is BusyKind.FWD
        assert ctx.request.mtype is T.GETX
        assert (ctx.owner, ctx.requestor) == (0, 1)
        assert h.dir.stats[SLICE_UPGRADES_CONVERTED] == 1

    def test_getx_from_a_listed_sharer_drops_it_first(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GET, src=0, touched_mask=0xF)
        h.inject(T.GET, src=1, touched_mask=0xF)
        h.inject(T.XFER_ACK, src=0, requestor=1)
        h.clear()
        h.inject(T.GETX, src=1, touched_mask=0xF)
        assert h.take_log() == [
            (T.INV, 0, {"requestor": 1, "req_md": False}, TAG)]
        assert h.ctx().waiting == mask({0})

    def test_get_on_shared_adds_a_sharer(self):
        h = DirHarness(mode=ProtocolMode.MESI)
        h.inject(T.GET, src=0, touched_mask=0xF)
        h.inject(T.GET, src=1, touched_mask=0xF)
        h.inject(T.XFER_ACK, src=0, requestor=1)
        h.clear()
        h.inject(T.GET, src=2, touched_mask=0xF)
        assert h.take_log() == [(T.DATA, 2, {"data": DATA}, DATA_DELAY)]
        assert h.line().sharers == mask({0, 1, 2})


# ------------------------------------------------------------ PRV grant step

class TestPrvGrantStep:
    """Joins and GetCHK/GetXCHK check the request against the SAM, then
    grant it or terminate the episode and rerun the request."""

    @pytest.mark.parametrize("mtype,write", [(T.GET, False), (T.GETX, True),
                                             (T.GETCHK, False),
                                             (T.GETXCHK, True)])
    def test_join_passes(self, mtype, write):
        h = privatized({0}, {0: 0xF})
        h.inject(mtype, src=2, touched_mask=0xF0, is_rmw=False)
        assert h.take_log() == [
            (T.DATA_PRV, 2, {"data": DATA}, DATA_DELAY + CHK)]
        assert h.line().prv_sharers == mask({0, 2})
        assert h.dir.stats[SLICE_PRV_JOINS] == 1
        assert h.dir.stats[SLICE_SAM_ACCESSES] >= 1
        writers = h.sam().last_writer_map()[4:8]
        assert writers == ([2] * 4 if write else [None] * 4)

    def test_join_conflicts_and_terminates(self):
        h = privatized({0}, {0: 0xF})
        h.inject(T.GET, src=2, touched_mask=0x3, is_rmw=False)
        assert h.take_log() == [(T.INV_PRV, 0, {}, TAG)]
        ctx = h.ctx()
        assert ctx.kind is BusyKind.PRV_TERM
        assert ctx.cause is TerminationCause.CONFLICT
        assert ctx.request.src == 2
        assert h.line().prv_sharers == mask({0})
        assert h.dir.stats[SLICE_PRV_JOINS] == 0
        assert h.dir.stats[term_key("conflict")] == 1

    @pytest.mark.parametrize("mtype,ack", [(T.GETCHK, T.ACK_PRV),
                                           (T.GETXCHK, T.ACK_PRV),
                                           (T.UPGRADE, T.UPG_ACK_PRV)])
    def test_chk_passes(self, mtype, ack):
        h = privatized({0, 1}, {0: 0xF})
        h.inject(mtype, src=1, touched_mask=0xF0, is_rmw=True)
        assert h.take_log() == [(ack, 1, {}, TAG + CHK)]
        assert h.dir.stats[SLICE_CHK_PASS] == 1
        assert h.dir.stats[SLICE_CHK_FAIL] == 0
        sam = h.sam()
        if mtype is T.GETCHK:
            assert sam.read_masks[1] == 0xF0 and sam.write_masks[1] == 0
        else:
            assert sam.write_masks[1] == 0xF0 and sam.read_masks[1] == 0xF0

    def test_chk_fails_and_terminates(self):
        h = privatized({0, 1}, {0: 0xF})
        h.inject(T.GETCHK, src=1, touched_mask=0x1, is_rmw=False)
        assert h.take_log() == [(T.INV_PRV, 0, {}, TAG),
                                (T.INV_PRV, 1, {}, TAG)]
        assert h.dir.stats[SLICE_CHK_FAIL] == 1
        assert h.dir.stats[SLICE_CHK_PASS] == 0
        assert h.ctx().cause is TerminationCause.CONFLICT
