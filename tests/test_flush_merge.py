"""The final memory image of a machine that ends with a block privatized.

``flush_machine_memory`` overlays each PRV sharer's copy on the LLC line at
exactly the granules whose SAM last writer is that sharer (Section V-C);
every other byte comes from the LLC.  It builds the image for checking, so
the ``merge-drop-granule`` mutation, which breaks the directory's
termination merge, must not reach it.
"""

from __future__ import annotations

import pytest

from repro.check.mutations import mutation_context
from repro.coherence.states import DirState, ProtocolMode
from repro.common.bitvec import iter_set_bits
from repro.cpu.ops import compute, fetch_add, store
from repro.system.simulator import flush_machine_memory

from _helpers import read_u, run_programs, small_config

LINE = 0x10000
ROUNDS = 400
#: Bytes no core writes: the LLC's bytes there must survive the merge.
LLC_ONLY = range(32, 64)


def slot_writer(core: int):
    """Core 0 fetch-adds its 8-byte slot; the others store into theirs."""
    def prog():
        for i in range(ROUNDS):
            if core == 0:
                yield fetch_add(LINE, 1, size=8)
            else:
                yield store(LINE + 8 * core, i + 1, size=8)
            yield compute(2)
    return prog()


def privatized_machine(granularity: int):
    config = small_config().with_protocol(tracking_granularity=granularity)
    _, machine = run_programs([slot_writer(c) for c in range(4)],
                              mode=ProtocolMode.FSLITE, config=config)
    sl = machine.home_slice(LINE)
    line = sl.llc.peek(LINE).payload
    assert line.state is DirState.PRV
    return machine, sl, line


@pytest.mark.parametrize("granularity", [1, 4])
def test_merge_takes_exactly_the_last_writer_granules(granularity):
    machine, sl, line = privatized_machine(granularity)
    writers = sl.detector.sam.peek(LINE).last_writer_map()
    sharers = list(iter_set_bits(line.prv_sharers))
    assert sharers == [0, 1, 2, 3]
    for granule, writer in enumerate(writers):
        lo = granule * granularity
        assert writer == (lo // 8 if lo < 32 else None), granule
    # The LLC copy is stale: only the merge brings in the final values.
    assert all(read_u({LINE: bytes(line.data)}, LINE + 8 * core, size=8)
               < ROUNDS for core in sharers)
    # Mark what must not be merged: the LLC-only bytes in the LLC copy,
    # and every granule a sharer did not last-write in that sharer's copy.
    for offset in LLC_ONLY:
        line.data[offset] = 0x77
    for core in sharers:
        data = machine.l1s[core].cache.peek(LINE).payload.data
        for granule, writer in enumerate(writers):
            if writer != core:
                lo = granule * granularity
                data[lo:lo + granularity] = b"\xee" * granularity
    block = flush_machine_memory(machine)[LINE]
    assert read_u({LINE: block}, LINE, size=8) == ROUNDS
    for core in (1, 2, 3):
        assert read_u({LINE: block}, LINE + 8 * core, size=8) == ROUNDS
    assert block[32:] == b"\x77" * 32
    with mutation_context("merge-drop-granule"):
        assert flush_machine_memory(machine)[LINE] == block
