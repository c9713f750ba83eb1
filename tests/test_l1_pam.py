"""The PAM bits the L1 controller leaves, and its PRV coverage check.

The L1 updates a block's PAM entry as each access performs (Section IV):
a load sets the read bits of the granules it touches, a store their write
bits and an RMW both.  On a PRV line the hit check reads those bits
(Section V-B): a load hits when every touched granule has either bit, a
store or RMW only when every one has its write bit; any other access
sends a GetCHK/GetXCHK and updates the bits when the Ack_PRV arrives.
"""

from __future__ import annotations

import pytest

from repro.coherence.states import L1State, ProtocolMode
from repro.common.statkeys import CORE_HITS
from repro.cpu.ops import fetch_add, load, store
from repro.interconnect.message import MessageType

from _helpers import L1Harness

BLOCK = 0x1000
DATA = bytes(64)

#: Op builders by kind: ``(offset, size) -> Op`` on BLOCK.
OPS = {
    "LOAD": lambda offset, size: load(BLOCK + offset, size),
    "STORE": lambda offset, size: store(BLOCK + offset, 0x5A, size),
    "RMW": lambda offset, size: fetch_add(BLOCK + offset, 1, size),
}
#: Which PAM bits each kind sets: (read, write).
SETS = {"LOAD": (True, False), "STORE": (False, True), "RMW": (True, True)}


def granules(offset: int, size: int, granularity: int) -> int:
    """Mask of the granules that bytes ``offset .. offset+size-1`` touch."""
    first = offset // granularity
    last = (offset + size - 1) // granularity
    return ((1 << (last - first + 1)) - 1) << first


def bits_of(kind: str, gmask: int):
    reads, writes = SETS[kind]
    return (gmask if reads else 0, gmask if writes else 0)


@pytest.mark.parametrize("granularity", [1, 4])
@pytest.mark.parametrize("kind", ["LOAD", "STORE", "RMW"])
def test_miss_fill_records_the_access(kind, granularity):
    h = L1Harness(granularity=granularity)
    h.issue(OPS[kind](6, 2))
    assert h.sent_types() == [MessageType.GET if kind == "LOAD"
                              else MessageType.GETX]
    assert h.l1.pam.get(BLOCK) is None
    h.inject(MessageType.DATA_E, BLOCK, data=DATA)
    assert len(h.completions) == 1
    assert h.pam_bits(BLOCK) == bits_of(kind, granules(6, 2, granularity))


@pytest.mark.parametrize("mode", [ProtocolMode.FSDETECT, ProtocolMode.FSLITE])
@pytest.mark.parametrize("granularity", [1, 4])
@pytest.mark.parametrize("kind", ["LOAD", "STORE", "RMW"])
def test_hit_adds_the_access(kind, granularity, mode):
    h = L1Harness(mode=mode, granularity=granularity)
    h.issue(OPS["STORE"](0, 4))
    h.inject(MessageType.DATA_E, BLOCK, data=DATA)
    assert h.l1.cache.peek(BLOCK).payload.state is L1State.M
    h.sent_types()
    h.issue(OPS[kind](10, 2))
    assert h.sent_types() == []
    assert h.l1.stats[CORE_HITS] == 1
    reads, writes = bits_of(kind, granules(10, 2, granularity))
    assert h.pam_bits(BLOCK) == (reads,
                                 writes | granules(0, 4, granularity))


def test_mesi_keeps_no_pam():
    h = L1Harness(mode=ProtocolMode.MESI)
    h.issue(OPS["RMW"](0, 4))
    h.inject(MessageType.DATA_E, BLOCK, data=DATA)
    h.issue(OPS["LOAD"](8, 4))
    assert h.l1.stats[CORE_HITS] == 1
    assert h.l1.pam.get(BLOCK) is None


#: (granularity, first access on the DATA_PRV fill, second access,
#: the second access's outcome: None for a hit, else the CHK it sends).
#: Accesses are (kind, offset, size).
PRV_CASES = [
    (1, ("STORE", 0, 4), ("LOAD", 0, 4), None),
    (1, ("LOAD", 0, 4), ("LOAD", 2, 2), None),
    (1, ("LOAD", 0, 2), ("LOAD", 0, 4), MessageType.GETCHK),
    (1, ("LOAD", 0, 4), ("STORE", 0, 4), MessageType.GETXCHK),
    (1, ("STORE", 0, 4), ("STORE", 0, 2), None),
    (1, ("STORE", 0, 2), ("RMW", 0, 4), MessageType.GETXCHK),
    (1, ("RMW", 0, 4), ("STORE", 0, 4), None),
    (1, ("RMW", 0, 4), ("LOAD", 0, 4), None),
    (1, ("LOAD", 0, 4), ("RMW", 0, 4), MessageType.GETXCHK),
    (4, ("STORE", 0, 1), ("STORE", 3, 1), None),
    (4, ("LOAD", 1, 1), ("LOAD", 0, 4), None),
    (4, ("LOAD", 0, 1), ("STORE", 2, 1), MessageType.GETXCHK),
    (4, ("STORE", 0, 4), ("LOAD", 4, 4), MessageType.GETCHK),
    (4, ("STORE", 2, 2), ("RMW", 0, 1), None),
]


def _prv_id(case):
    gran, first, second, outcome = case
    name = "hit" if outcome is None else outcome.name
    return (f"g{gran}-{first[0]}{first[1]}+{first[2]}-"
            f"{second[0]}{second[1]}+{second[2]}-{name}")


@pytest.mark.parametrize("case", PRV_CASES, ids=_prv_id)
def test_prv_coverage_check(case):
    gran, (kind1, off1, size1), (kind2, off2, size2), outcome = case
    h = L1Harness(granularity=gran)
    h.issue(OPS[kind1](off1, size1))
    h.inject(MessageType.DATA_PRV, BLOCK, data=DATA)
    assert h.l1.cache.peek(BLOCK).payload.state is L1State.PRV
    first = bits_of(kind1, granules(off1, size1, gran))
    assert h.pam_bits(BLOCK) == first
    h.sent_types()
    h.issue(OPS[kind2](off2, size2))
    second = bits_of(kind2, granules(off2, size2, gran))
    both = (first[0] | second[0], first[1] | second[1])
    if outcome is None:
        assert h.sent_types() == []
        assert len(h.completions) == 2
        assert h.pam_bits(BLOCK) == both
        return
    assert h.sent_types() == [outcome]
    assert len(h.completions) == 1
    assert h.pam_bits(BLOCK) == first
    h.inject(MessageType.ACK_PRV, BLOCK)
    assert len(h.completions) == 2
    assert h.pam_bits(BLOCK) == both
    # Covered now: the same access hits.
    h.issue(OPS[kind2](off2, size2))
    assert h.sent_types() == []
    assert len(h.completions) == 3
