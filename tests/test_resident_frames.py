"""Machine-level guard: every cache array holds one frame per resident
block.

A finished CA run (a private region that spills the L1: thousands of LLC
fills from memory) touches most L1 sets, thousands of LLC sets and, under
FSDetect, the SAM tables.  Each L1, LLC slice and SAM array must then hold
exactly as many :class:`~repro.memsys.cache_array.CacheEntry` frames as it
has resident blocks: a free way holds no frame, and an evicted or
invalidated block's frame leaves its set.
"""

import pytest

from repro.coherence.states import ProtocolMode
from repro.harness.runner import RunSpec, execute_spec_with_machine
from test_cache_array import held_frames


def _arrays(machine):
    """``(name, array)`` for every L1, LLC slice and SAM array."""
    for l1 in machine.l1s:
        yield f"l1[{l1.core_id}]", l1.cache
    for index, sl in enumerate(machine.slices):
        yield f"llc[{index}]", sl.llc
        if sl.detector is not None:
            yield f"sam[{index}]", sl.detector.sam._array


@pytest.mark.parametrize("mode", [ProtocolMode.MESI, ProtocolMode.FSDETECT],
                         ids=lambda m: m.value)
def test_ca_run_holds_one_frame_per_resident_block(mode):
    spec = RunSpec(tag="CA", mode=mode, scale=0.5)
    _, machine = execute_spec_with_machine(spec)
    try:
        counts = {name: (held_frames(array), len(array))
                  for name, array in _arrays(machine)}
    finally:
        machine.close()
    assert sum(resident for _, resident in counts.values()) > 1000
    if mode is ProtocolMode.FSDETECT:
        assert any(name.startswith("sam") and resident
                   for name, (_, resident) in counts.items())
    assert {name: held for name, (held, _) in counts.items()} == \
        {name: resident for name, (_, resident) in counts.items()}
