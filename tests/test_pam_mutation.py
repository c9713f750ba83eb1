"""The PAM state the ``pam-reads-count-as-writes`` mutation leaves.

Under the mutation every access the L1 performs records its granules as
written and leaves the read bits as they were, on the miss path, the hit
path and PRV lines alike.  These pins hold the mutation to that one
effect, whichever L1 seam it patches.
"""

from __future__ import annotations

import pytest

from repro.check.mutations import mutation_context
from repro.common.statkeys import CORE_HITS
from repro.cpu.ops import fetch_add, load, store
from repro.interconnect.message import MessageType

from _helpers import L1Harness

BLOCK = 0x1000
DATA = bytes(64)
MUTATION = "pam-reads-count-as-writes"

OPS = {
    "LOAD": lambda offset, size: load(BLOCK + offset, size),
    "STORE": lambda offset, size: store(BLOCK + offset, 0x5A, size),
    "RMW": lambda offset, size: fetch_add(BLOCK + offset, 1, size),
}
#: Granule masks of bytes 6-7 and 10-11, by granularity.
BYTES_6_7 = {1: 0b11 << 6, 4: 0b10}
BYTES_10_11 = {1: 0b11 << 10, 4: 0b100}


@pytest.mark.parametrize("granularity", [1, 4])
@pytest.mark.parametrize("kind", ["LOAD", "STORE", "RMW"])
def test_miss_and_hit_record_writes_only(kind, granularity):
    h = L1Harness(granularity=granularity)
    with mutation_context(MUTATION):
        h.issue(OPS[kind](6, 2))
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        assert h.pam_bits(BLOCK) == (0, BYTES_6_7[granularity])
        h.issue(OPS[kind](10, 2))
    assert h.pam_bits(BLOCK) == (
        0, BYTES_6_7[granularity] | BYTES_10_11[granularity])


@pytest.mark.parametrize("granularity", [1, 4])
@pytest.mark.parametrize("kind", ["LOAD", "STORE", "RMW"])
def test_read_bits_set_before_the_mutation_stay(kind, granularity):
    """A granule already read still gains its write bit; the read bits
    the mutation found are left exactly as they were."""
    h = L1Harness(granularity=granularity)
    h.issue(OPS["LOAD"](6, 2))
    h.inject(MessageType.DATA_E, BLOCK, data=DATA)
    h.issue(OPS["STORE"](0, 1))  # E -> M hit: write bit of byte/granule 0
    h.sent_types()
    read_before = h.l1.pam.get(BLOCK).read_bits
    assert read_before == BYTES_6_7[granularity]
    with mutation_context(MUTATION):
        h.issue(OPS[kind](6, 2))
    assert h.sent_types() == []
    assert h.pam_bits(BLOCK) == (
        read_before, BYTES_6_7[granularity] | 1)


@pytest.mark.parametrize("granularity", [1, 4])
def test_prv_load_then_store_hits(granularity):
    """A PRV load claims write coverage, so a store to the same bytes then
    hits without the GetXCHK the unmutated L1 sends."""
    h = L1Harness(granularity=granularity)
    with mutation_context(MUTATION):
        h.issue(OPS["LOAD"](6, 2))
        h.inject(MessageType.DATA_PRV, BLOCK, data=DATA)
        h.sent_types()
        h.issue(OPS["STORE"](6, 2))
    assert h.sent_types() == []
    assert h.l1.stats[CORE_HITS] == 1
    assert h.pam_bits(BLOCK) == (0, BYTES_6_7[granularity])


def test_mutation_is_undone_on_exit():
    h = L1Harness()
    with mutation_context(MUTATION):
        pass
    h.issue(OPS["RMW"](6, 2))
    h.inject(MessageType.DATA_E, BLOCK, data=DATA)
    assert h.pam_bits(BLOCK) == (BYTES_6_7[1], BYTES_6_7[1])
