"""Directory-slice unit tests via direct message injection.

Complements test_l1_races.py from the other side: a scripted 'core'
drives one DirectorySlice and checks its responses and state.
"""

from __future__ import annotations

import pytest

from repro.coherence.directory import DirectorySlice
from repro.coherence.states import DirState, ProtocolMode
from repro.common.config import SystemConfig
from repro.common.events import EventQueue
from repro.common.statkeys import (
    SLICE_PRIVATIZATIONS,
    SLICE_REGRANTS,
    SLICE_STALE_PUTM,
    SLICE_UPGRADES_CONVERTED,
)
from repro.interconnect.message import Message, MessageType
from repro.memsys.main_memory import MainMemory

CORES = 4
BLOCK = 0x1000
DATA = bytes(range(64))


class Harness:
    def __init__(self, mode=ProtocolMode.MESI, tau_p=16, cores=CORES):
        self.queue = EventQueue()
        self.node = cores
        self.config = SystemConfig(num_cores=cores, num_llc_slices=1)
        if tau_p != 16:
            self.config = self.config.with_protocol(tau_p=tau_p,
                                                    tau_r1=tau_p)

        outer = self

        class FakeNetwork:
            def __init__(self):
                self.sent = []

            def register(self, node, handler):
                outer.deliver = handler

            def send(self, msg, extra_delay=0):
                self.sent.append(msg)

        self.net = FakeNetwork()
        self.memory = MainMemory(block_size=64,
                                 latency=self.config.memory_latency)
        self.memory.write_block(BLOCK, DATA)
        self.dir = DirectorySlice(
            slice_id=0, node_id=self.node, config=self.config, mode=mode,
            queue=self.queue, network=self.net, memory=self.memory,
            num_slices=1)

    def inject(self, mtype, src, block=BLOCK, **payload):
        self.deliver(Message(mtype, src=src, dst=self.node,
                             block_addr=block, payload=payload))
        self.queue.run()

    def sent(self):
        return [(m.mtype, m.dst) for m in self.net.sent]

    def clear(self):
        self.net.sent.clear()

    def line(self, block=BLOCK):
        entry = self.dir.llc.peek(block)
        return entry.payload if entry else None


class TestBaselinePaths:
    def test_first_get_fetches_and_grants_exclusive(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        assert h.sent() == [(MessageType.DATA_E, 0)]
        assert h.line().state == DirState.EM
        assert h.line().owner == 0
        last = h.net.sent[-1]
        assert bytes(last.payload["data"]) == DATA

    def test_second_get_intervenes(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.clear()
        h.inject(MessageType.GET, src=1, touched_mask=0xF)
        assert h.sent() == [(MessageType.FWD_GET, 0)]
        # Owner responds with a transfer ack: both become sharers.
        h.clear()
        h.inject(MessageType.XFER_ACK, src=0, requestor=1)
        assert h.line().state == DirState.S
        assert h.line().sharers == 0b11

    def test_getx_to_shared_invalidates_and_collects(self):
        # Make it S with two sharers via the proper path.
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.inject(MessageType.GET, src=1, touched_mask=0xF)
        h.inject(MessageType.XFER_ACK, src=0, requestor=1)
        h.clear()
        h.inject(MessageType.GETX, src=2, touched_mask=0xF)
        dsts = {d for t, d in h.sent() if t == MessageType.INV}
        assert dsts == {0, 1}
        h.clear()
        h.inject(MessageType.INV_ACK, src=0, requestor=2)
        assert h.sent() == []  # still waiting
        h.inject(MessageType.INV_ACK, src=1, requestor=2)
        assert h.sent() == [(MessageType.DATA_E, 2)]
        assert h.line().state == DirState.EM
        assert h.line().owner == 2

    def test_upgrade_sole_sharer_immediate_ack(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.inject(MessageType.GET, src=1, touched_mask=0xF)
        h.inject(MessageType.XFER_ACK, src=0, requestor=1)
        # Drop core 1 via its own upgrade after core 0 is gone... instead:
        # core 0 upgrades while both share -> INV to 1 then UPG_ACK.
        h.clear()
        h.inject(MessageType.UPGRADE, src=0, touched_mask=0xF)
        assert (MessageType.INV, 1) in h.sent()
        h.clear()
        h.inject(MessageType.INV_ACK, src=1, requestor=0)
        assert h.sent() == [(MessageType.UPG_ACK, 0)]

    def test_upgrade_from_nonsharer_converts(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.clear()
        h.inject(MessageType.UPGRADE, src=1, touched_mask=0xF)
        # Converted to GetX: intervene on the owner.
        assert h.sent() == [(MessageType.FWD_GETX, 0)]
        assert h.dir.stats[SLICE_UPGRADES_CONVERTED] == 1

    def test_regrant_to_owner(self):
        h = Harness()
        h.inject(MessageType.GETX, src=0, touched_mask=0xF)
        h.clear()
        # The owner re-requests (drop-and-reissue race): idempotent regrant.
        h.inject(MessageType.GETX, src=0, touched_mask=0xF)
        assert h.sent() == [(MessageType.DATA_E, 0)]
        assert h.dir.stats[SLICE_REGRANTS] == 1

    def test_putm_from_owner(self):
        h = Harness()
        h.inject(MessageType.GETX, src=0, touched_mask=0xF)
        h.clear()
        new = bytes([7] * 64)
        h.inject(MessageType.PUTM, src=0, data=new)
        assert h.sent() == [(MessageType.WB_ACK, 0)]
        assert h.line().state == DirState.I
        assert bytes(h.line().data) == new

    def test_stale_putm_acked_and_ignored(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.clear()
        h.inject(MessageType.PUTM, src=3, data=bytes(64))
        assert h.sent() == [(MessageType.WB_ACK, 3)]
        assert h.dir.stats[SLICE_STALE_PUTM] == 1
        assert bytes(h.line().data) == DATA  # untouched

    def test_queued_request_drains_after_busy(self):
        h = Harness()
        h.inject(MessageType.GETX, src=0, touched_mask=0xF)
        h.clear()
        h.inject(MessageType.GETX, src=1, touched_mask=0xF)   # busy FWD
        h.inject(MessageType.GETX, src=2, touched_mask=0xF)   # queued
        assert h.sent() == [(MessageType.FWD_GETX, 0)]
        h.clear()
        h.inject(MessageType.DATA_WB, src=0, data=DATA, requestor=1,
                 xfer=True)
        # Completing the first transaction starts the queued one.
        assert (MessageType.FWD_GETX, 1) in h.sent()


class TestDetectionPaths:
    def _ping_pong(self, h, rounds):
        """Alternate exclusive ownership between cores 0 and 1."""
        h.inject(MessageType.GETX, src=0, touched_mask=0x0F)
        for i in range(rounds):
            src, other = (1, 0) if i % 2 == 0 else (0, 1)
            h.inject(MessageType.GETX, src=src,
                     touched_mask=0x0F if src == 0 else 0xF0)
            # The old owner responds with data + metadata.
            md_read, md_write = (0x0F, 0x0F) if other == 0 else (0xF0, 0xF0)
            h.inject(MessageType.DATA_WB, src=other, data=DATA,
                     requestor=src, xfer=True)
            h.inject(MessageType.REP_MD, src=other, read_bits=md_read,
                     write_bits=md_write, solicited=True)

    def test_req_md_set_while_ts_clear(self):
        h = Harness(mode=ProtocolMode.FSDETECT)
        h.inject(MessageType.GETX, src=0, touched_mask=0x0F)
        h.clear()
        h.inject(MessageType.GETX, src=1, touched_mask=0xF0)
        fwd = h.net.sent[0]
        assert fwd.mtype == MessageType.FWD_GETX
        assert fwd.payload["req_md"] is True

    def test_fsdetect_reports_after_threshold(self):
        h = Harness(mode=ProtocolMode.FSDETECT, tau_p=4)
        self._ping_pong(h, rounds=14)
        assert h.dir.detector.reports
        assert not any(r.privatized for r in h.dir.detector.reports)

    def test_fslite_privatizes_after_threshold(self):
        h = Harness(mode=ProtocolMode.FSLITE, tau_p=4)
        self._ping_pong(h, rounds=12)
        if h.line().state != DirState.PRV:
            # Trigger request once flagged.
            h.inject(MessageType.GETX, src=0, touched_mask=0x0F)
            # Owner responds to TR_PRV with metadata.
            sent = [m for m in h.net.sent if m.mtype == MessageType.TR_PRV]
            for m in sent:
                h.inject(MessageType.REP_MD, src=m.dst, read_bits=0,
                         write_bits=0xF0 if m.dst == 1 else 0x0F,
                         solicited=True)
        assert h.dir.stats[SLICE_PRIVATIZATIONS] >= 1


class TestExternalSocket:
    def test_hook_noop_when_not_prv(self):
        h = Harness(mode=ProtocolMode.FSLITE)
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.dir.external_access(BLOCK)  # must not raise or change state
        assert h.line().state == DirState.EM


#: Adds and discards after which a CPython ``set`` of these core ids
#: iterates as [0, 1, 3, 4, 2, 6, 7] rather than ascending.
HISTORY = (("add", (1, 4, 5, 7, 2, 3, 6)), ("discard", (2, 5)),
           ("add", (0, 2)))
#: The cores left after HISTORY, ascending.
SURVIVORS = [0, 1, 2, 3, 4, 6, 7]


def _with_history(mask: int) -> int:
    for op, cores in HISTORY:
        for core in cores:
            mask = mask | 1 << core if op == "add" else mask & ~(1 << core)
    return mask


class TestFanOutOrder:
    """INV, INV_PRV and recall fan-outs go out in ascending core id,
    whatever order the sharers arrived in (docs/PROTOCOL.md)."""

    def test_invalidations_ascend(self):
        h = Harness(cores=8)
        # GETs add sharers 1, 4, 5, 7, 2, 3, 6 in that order (the first
        # two through an intervention).
        h.inject(MessageType.GET, src=1, touched_mask=0xF)
        h.inject(MessageType.GET, src=4, touched_mask=0xF)
        h.inject(MessageType.XFER_ACK, src=1, requestor=4)
        for core in (5, 7, 2, 3, 6):
            h.inject(MessageType.GET, src=core, touched_mask=0xF)
        # No message drops a sharer while the line stays shared, so the
        # discards edit the vector directly; GETs re-add 0 and 2.
        h.line().sharers &= ~(1 << 2 | 1 << 5)
        for core in (0, 2):
            h.inject(MessageType.GET, src=core, touched_mask=0xF)
        assert h.line().state == DirState.S
        assert h.line().sharers == _with_history(0)
        h.clear()
        h.inject(MessageType.GETX, src=5, touched_mask=0xF)
        assert [d for t, d in h.sent() if t == MessageType.INV] == SURVIVORS

    def test_prv_termination_ascends(self):
        h = Harness(mode=ProtocolMode.FSLITE, cores=8)
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        line = h.line()
        line.state, line.owner = DirState.PRV, None
        line.prv_sharers = _with_history(line.prv_sharers)
        h.clear()
        h.dir.external_access(BLOCK)
        assert h.sent() == [(MessageType.INV_PRV, c) for c in SURVIVORS]

    def test_recall_ascends(self):
        h = Harness(cores=8)
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        line = h.line()
        line.state, line.owner = DirState.S, None
        line.sharers = _with_history(line.sharers)
        h.clear()
        assert h.dir.fault_llc_eviction(BLOCK)
        assert h.sent() == [(MessageType.INV, c) for c in SURVIVORS]
        assert all(m.payload["recall"] for m in h.net.sent)
