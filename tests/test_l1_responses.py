"""The L1's answers to forwards and invalidations, pinned message by message.

A FWD_GET or FWD_GETX reaches a core whose copy may be dirty (M), clean
exclusive (E), shared (S), parked in the write buffer by an eviction, or
gone.  Each case pins the messages the L1 sends (type, destination,
payload keys and values, extra delay, in order), the line state it
leaves, and whether its PAM entry will report metadata at eviction
(SEND_MD, Section IV) — with and without the directory's ``req_md``, and
under MESI, where no metadata travels.  An INV is pinned in each of its
cases: a resident line, a pending UPGRADE with and without the line, a
pending GET or GETX whose fill has not arrived, and no copy at all.
"""

from __future__ import annotations

import pytest

from repro.coherence.states import L1State, ProtocolMode
from repro.common.config import SystemConfig
from repro.cpu.ops import load, store
from repro.interconnect.message import MessageType as T

from _helpers import L1Harness

BLOCK = 0x1000
DATA = bytes(range(64))
#: The core a forward names as requestor.
REQ = 2
DIR = L1Harness.DIR_NODE
_CONFIG = SystemConfig()
TAG = _CONFIG.l1.tag_latency
DATA_DELAY = _CONFIG.l1.data_latency


class Watch:
    """Stands in for the L1's network once the line is set up, recording
    each send with its extra delay."""

    def __init__(self):
        self.log = []

    def send(self, msg, extra_delay=0):
        self.log.append((msg.mtype, msg.dst, dict(msg.payload), extra_delay))


def holding(state: str, mode: ProtocolMode) -> L1Harness:
    """An L1 whose copy of BLOCK is in ``state``: ``M`` (stored 5 at byte
    0), ``E``, ``S``, ``WB`` (the M copy evicted into the write buffer)
    or ``absent``."""
    h = L1Harness(mode=mode)
    if state in ("M", "WB"):
        h.issue(store(BLOCK, 5))
        h.inject(T.DATA_E, BLOCK, data=DATA)
    elif state == "E":
        h.issue(load(BLOCK))
        h.inject(T.DATA_E, BLOCK, data=DATA)
    elif state == "S":
        h.issue(load(BLOCK))
        h.inject(T.DATA, BLOCK, data=DATA)
    if state == "WB":
        line = h.l1.cache.peek(BLOCK).payload
        h.l1.cache.invalidate(BLOCK)
        h.l1._evict(BLOCK, line)
        assert BLOCK in h.l1.write_buffer
    h.sent_types()
    return h


def line_of(h):
    entry = h.l1.cache.peek(BLOCK)
    return entry.payload if entry is not None else None


def send_md(h):
    entry = h.l1.pam.get(BLOCK)
    return None if entry is None else entry.send_md


def h_bits(state):
    """The PAM bits ``holding(state)`` leaves: M stored bytes 0-3, E and S
    loaded them."""
    return (0, 0xF) if state == "M" else (0xF, 0)


STORED = (5).to_bytes(4, "little") + DATA[4:]
MODES = [ProtocolMode.FSDETECT, ProtocolMode.MESI]

#: What a forward leaves, by (forward, state): the data the L1 sends
#: (None: it has none to send), the DATA_WB keys after data/requestor
#: (None: XFER_ACK or ACK_NO_DATA instead), and the line state left.
FORWARDS = {
    (T.FWD_GET, "M"): (STORED, (), L1State.S),
    (T.FWD_GET, "E"): (DATA, None, L1State.S),
    (T.FWD_GET, "S"): (None, None, L1State.S),
    (T.FWD_GET, "WB"): (STORED, ("from_wb",), None),
    (T.FWD_GET, "absent"): (None, None, None),
    (T.FWD_GETX, "M"): (STORED, ("xfer",), None),
    (T.FWD_GETX, "E"): (DATA, ("xfer",), None),
    (T.FWD_GETX, "S"): (None, None, L1State.S),
    (T.FWD_GETX, "WB"): (STORED, ("xfer", "from_wb"), None),
    (T.FWD_GETX, "absent"): (None, None, None),
}


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
@pytest.mark.parametrize("req_md", [False, True])
@pytest.mark.parametrize("fwd,state", list(FORWARDS),
                         ids=[f"{f.name}-{s}" for f, s in FORWARDS])
def test_forward(fwd, state, req_md, mode):
    h = holding(state, mode)
    had_pam = h.l1.pam.get(BLOCK) is not None
    watch = Watch()
    h.l1.network = watch
    h.inject(fwd, BLOCK, requestor=REQ, req_md=req_md)
    data, wb_keys, left = FORWARDS[(fwd, state)]
    expected = []
    if data is not None:
        expected.append((T.DATA_TO_REQ, REQ,
                         {"data": data, "req_md": req_md}, DATA_DELAY))
        if wb_keys is None:
            expected.append((T.XFER_ACK, DIR, {"requestor": REQ},
                             DATA_DELAY))
        else:
            payload = {"data": data, "requestor": REQ}
            payload.update(dict.fromkeys(wb_keys, True))
            expected.append((T.DATA_WB, DIR, payload, DATA_DELAY))
    else:
        expected.append((T.ACK_NO_DATA, DIR, {"requestor": REQ}, DATA_DELAY))
    if req_md and mode is ProtocolMode.FSDETECT:
        if had_pam:
            read_bits, write_bits = h_bits(state)
            expected.append((T.REP_MD, DIR,
                             {"read_bits": read_bits,
                              "write_bits": write_bits,
                              "solicited": True, "putm_in_flight": False}, 0))
        else:
            expected.append((T.PHANTOM_MD, DIR,
                             {"solicited": True, "putm_in_flight": False}, 0))
    assert watch.log == expected
    # Payload keys go out in a fixed order.
    assert [list(p) for _, _, p, _ in watch.log] \
        == [list(p) for _, _, p, _ in expected]
    line = line_of(h)
    assert (line.state if line is not None else None) == left
    if left is None:
        assert h.l1.pam.get(BLOCK) is None
        assert (BLOCK in h.l1.write_buffer) == (state == "WB")
        return
    if state in ("M", "E"):
        assert line.dirty is False
    if mode is ProtocolMode.FSDETECT:
        # A downgraded owner reports metadata at eviction iff asked now.
        assert send_md(h) is (req_md and state in ("M", "E"))
    else:
        assert h.l1.pam.get(BLOCK) is None


# ----------------------------------------------------------------------- INV

def inv(h, req_md):
    watch = Watch()
    h.l1.network = watch
    h.inject(T.INV, BLOCK, requestor=3, req_md=req_md)
    return watch.log


ACK = (T.INV_ACK, DIR, {"requestor": 3}, TAG)


def rep_md(read, write):
    return (T.REP_MD, DIR, {"read_bits": read, "write_bits": write,
                            "solicited": True, "putm_in_flight": False}, 0)


PHANTOM = (T.PHANTOM_MD, DIR, {"solicited": True, "putm_in_flight": False}, 0)


@pytest.mark.parametrize("req_md", [False, True])
class TestInv:
    def test_resident_line_is_invalidated(self, req_md):
        h = holding("S", ProtocolMode.FSDETECT)
        assert inv(h, req_md) == [rep_md(0xF, 0)] * req_md + [ACK]
        assert line_of(h) is None
        assert h.l1.pam.get(BLOCK) is None

    def test_pending_upgrade_drops_its_copy(self, req_md):
        h = holding("S", ProtocolMode.FSDETECT)
        h.issue(store(BLOCK, 7))
        assert h.sent_types() == [T.UPGRADE]
        assert inv(h, req_md) == [rep_md(0xF, 0)] * req_md + [ACK]
        assert line_of(h) is None
        assert h.l1.transactions()[BLOCK].inv_after_fill is False

    def test_pending_upgrade_without_a_copy_only_acks(self, req_md):
        h = holding("S", ProtocolMode.FSDETECT)
        h.issue(store(BLOCK, 7))
        inv(h, False)
        assert inv(h, req_md) == [ACK]
        assert h.l1.transactions()[BLOCK].inv_after_fill is False

    def test_pending_get_consumes_then_drops(self, req_md):
        h = holding("absent", ProtocolMode.FSDETECT)
        h.issue(load(BLOCK))
        assert h.sent_types() == [T.GET]
        assert inv(h, req_md) == [PHANTOM] * req_md + [ACK]
        assert h.l1.transactions()[BLOCK].inv_after_fill is True
        h.inject(T.DATA, BLOCK, data=DATA)
        assert h.completions == [int.from_bytes(DATA[:4], "little")]
        assert line_of(h) is None
        assert h.l1.pam.get(BLOCK) is None

    def test_pending_getx_acks_and_keeps_its_fill(self, req_md):
        h = holding("absent", ProtocolMode.FSDETECT)
        h.issue(store(BLOCK, 7))
        assert h.sent_types() == [T.GETX]
        assert inv(h, req_md) == [PHANTOM] * req_md + [ACK]
        assert h.l1.transactions()[BLOCK].inv_after_fill is False
        h.inject(T.DATA_E, BLOCK, data=DATA)
        assert line_of(h).state is L1State.M

    def test_no_copy_answers_metadata(self, req_md):
        h = holding("absent", ProtocolMode.FSDETECT)
        assert inv(h, req_md) == [PHANTOM] * req_md + [ACK]
        assert h.l1.transactions() == {}

    def test_mesi_sends_no_metadata(self, req_md):
        h = holding("S", ProtocolMode.MESI)
        assert inv(h, req_md) == [ACK]
        assert line_of(h) is None
