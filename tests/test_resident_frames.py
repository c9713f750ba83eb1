"""Machine-level guards on per-block host memory.

A finished CA run (a private region that spills the L1: thousands of LLC
fills from memory) touches most L1 sets, thousands of LLC sets and, under
FSDetect, the SAM tables.  Each L1, LLC slice and SAM array must then hold
exactly as many :class:`~repro.memsys.cache_array.CacheEntry` frames as it
has resident blocks: a free way holds no frame, and an evicted or
invalidated block's frame leaves its set.  Each resident LLC line's
directory state (the line and its counters) must stay a few machine words:
core sets are int masks, not Python sets.
"""

import sys

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


#: Bytes one LLC line's directory state may take: the ``LlcLine`` and its
#: ``DirEntryMeta``, each a slotted object of six fields (80 B apiece on
#: CPython 3.11).
DIR_STATE_BYTES = 200


def _owned_bytes(obj) -> int:
    """``sys.getsizeof`` of ``obj`` plus its ``__dict__`` and any set, dict
    or list it holds (the line data aside)."""
    size = sys.getsizeof(obj)
    fields = getattr(obj, "__dict__", None)
    if fields is not None:
        size += sys.getsizeof(fields)
    else:
        fields = {name: getattr(obj, name) for name in obj.__slots__}
    return size + sum(sys.getsizeof(value) for name, value in fields.items()
                      if name != "data"
                      and isinstance(value, (set, frozenset, dict, list)))


def test_directory_state_per_llc_line():
    spec = RunSpec(tag="CA", mode=ProtocolMode.FSDETECT, scale=0.5)
    _, machine = execute_spec_with_machine(spec)
    try:
        sizes, objects = [], []
        for sl in machine.slices:
            metas = sl.detector.counter_metas()
            for entry in sl.llc.iter_valid():
                meta = metas.get(sl.llc.addr_of(entry))
                if meta is None:
                    continue
                objects += [entry.payload, meta]
                sizes.append(_owned_bytes(entry.payload) + _owned_bytes(meta))
    finally:
        machine.close()
    assert len(sizes) > 1000
    assert max(sizes) <= DIR_STATE_BYTES, sum(sizes) / len(sizes)
    for obj in objects:
        assert not hasattr(obj, "__dict__"), obj
        assert not any(isinstance(getattr(obj, name), (set, frozenset))
                       for name in obj.__slots__), obj
