"""Hypothesis property tests: layout allocator and schedule generators.

Well-formedness the rest of the suite silently relies on:

* :class:`~repro.workloads.layout.MemoryLayout` — allocations are aligned,
  in-bounds, non-overlapping; packed slots pack, padded slots get a line
  each, private regions never share a line with a neighbour.
* :func:`repro.check.fuzz.make_schedule` — every generated op is aligned,
  inside its line, owned by a valid thread, and private-slot ops stay
  inside the issuing thread's slot.
* :func:`repro.check.fuzz.schedule_to_ops` — the translation to detailed
  :class:`~repro.cpu.ops.Op` streams preserves per-core program order and
  produces only aligned, block-contained accesses (the property that makes
  replaying the flat list on the atomic reference model meaningful).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.check.fuzz import (
    FAMILIES,
    fuzz_config,
    make_schedule,
    schedule_to_ops,
)
from repro.workloads.layout import MemoryLayout

BLOCK = 64


# ----------------------------------------------------------- MemoryLayout


@st.composite
def alloc_requests(draw):
    n = draw(st.integers(1, 12))
    return [
        (draw(st.integers(1, 512)),
         draw(st.sampled_from([1, 2, 4, 8, 16, 64])))
        for _ in range(n)
    ]


@given(alloc_requests())
def test_alloc_aligned_and_disjoint(requests):
    layout = MemoryLayout(block_size=BLOCK)
    regions = []
    for i, (size, align) in enumerate(requests):
        addr = layout.alloc(f"r{i}", size, align=align)
        assert addr % align == 0
        regions.append((addr, size))
    regions.sort()
    for (a, sa), (b, _sb) in zip(regions, regions[1:]):
        assert a + sa <= b, "allocations overlap"


@given(st.integers(1, 8), st.sampled_from([4, 8, 16, 32]),
       st.booleans())
def test_alloc_slots_packing(count, slot_size, padded):
    layout = MemoryLayout(block_size=BLOCK)
    slots = layout.alloc_slots("s", count, slot_size, padded=padded)
    assert len(slots) == count
    assert slots[0] % BLOCK == 0
    if padded:
        # The manual fix: one line per slot, no two slots share a line.
        assert len({s // BLOCK for s in slots}) == count
        for a, b in zip(slots, slots[1:]):
            assert b - a == BLOCK
    else:
        # The bug under study: consecutive slots, several per line.
        for a, b in zip(slots, slots[1:]):
            assert b - a == slot_size


@given(st.lists(st.integers(1, 200), min_size=1, max_size=6))
def test_alloc_private_line_isolation(sizes):
    layout = MemoryLayout(block_size=BLOCK)
    regions = [(layout.alloc_private(f"p{i}", size), size)
               for i, size in enumerate(sizes)]
    for i, (addr, size) in enumerate(regions):
        assert addr % BLOCK == 0
        lines = set(range(addr // BLOCK, (addr + size - 1) // BLOCK + 1))
        for j, (other, osize) in enumerate(regions):
            if i == j:
                continue
            other_lines = set(range(other // BLOCK,
                                    (other + osize - 1) // BLOCK + 1))
            assert not (lines & other_lines), "private regions share a line"


def test_alloc_records_allocations():
    layout = MemoryLayout()
    addr = layout.alloc("x", 100)
    assert layout.allocations["x"] == (addr, 100)


# ---------------------------------------------------------- make_schedule


@given(st.sampled_from(FAMILIES), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 4), st.integers(1, 4), st.integers(1, 60))
@settings(max_examples=60)
def test_make_schedule_well_formed(family, seed, num_threads, num_lines,
                                   length):
    schedule = make_schedule(family, random.Random(seed),
                             num_threads=num_threads, num_lines=num_lines,
                             length=length)
    assert len(schedule) == length
    for fop in schedule:
        assert 0 <= fop.tid < num_threads
        assert fop.kind in ("load", "store", "rmw", "evict", "pause")
        if fop.kind == "pause":
            assert fop.value >= 1
            continue
        assert 0 <= fop.line < num_lines
        if fop.kind == "evict":
            continue
        assert fop.size in (1, 2, 4, 8)
        assert fop.offset % fop.size == 0, "unaligned access"
        assert fop.offset + fop.size <= BLOCK, "access crosses the block"
        if fop.kind == "store":
            assert 0 <= fop.value < 1 << (8 * fop.size)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
@settings(max_examples=30)
def test_make_schedule_private_slots_stay_private(seed, num_threads):
    """Disjoint-family stores never leave the issuing thread's 8-byte
    slot — the property that makes per-slot references computable."""
    schedule = make_schedule("disjoint", random.Random(seed),
                             num_threads=num_threads, length=40)
    for fop in schedule:
        if fop.kind == "store":
            assert fop.offset // 8 == fop.tid


# --------------------------------------------------------- schedule_to_ops


@given(st.sampled_from(FAMILIES), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 50))
@settings(max_examples=40, deadline=None)
def test_schedule_to_ops_preserves_program_order(family, seed, length):
    """The flat op list interleaves per-thread programs without reordering
    within a thread: filtering by tid gives each thread's ops in program
    order, and memory ops stay aligned and block-contained."""
    num_threads = 4
    config = fuzz_config(num_threads)
    schedule = make_schedule(family, random.Random(seed),
                             num_threads=num_threads, length=length)
    flat, _ = schedule_to_ops(schedule, num_threads, config,
                              check_loads=False)

    # Schedule order is preserved verbatim (the flat list IS the
    # interleaving), so per-thread projections are in program order.
    per_thread = {}
    for tid, op, _expected, _label in flat:
        per_thread.setdefault(tid, []).append(op)
        if op.is_memory:
            assert op.addr % op.size == 0
            block_off = op.addr % config.block_size
            assert block_off + op.size <= config.block_size

    # Re-translating each thread's sub-schedule alone yields the same
    # per-thread op streams: interleaving never perturbs thread programs.
    for tid, ops in per_thread.items():
        sub = [fop for fop in schedule if fop.tid == tid]
        sub_flat, _ = schedule_to_ops(sub, num_threads, config,
                                      check_loads=False)
        assert [(o.kind, o.addr, o.size) for (_t, o, _e, _l) in sub_flat] \
            == [(o.kind, o.addr, o.size) for o in ops]
