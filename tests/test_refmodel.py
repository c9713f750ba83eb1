"""Unit tests for the atomic reference model (repro.check.refmodel).

The reference is only worth differencing against if its own semantics are
right: atomic RMWs, ground-truth access bookkeeping, zero-filled untouched
blocks, and a fair round-robin program driver under which spin loops
terminate.  A property test holds the mask-only truth bookkeeping to a
brute-force per-granule set model.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.fuzz import FuzzOp, fuzz_config, make_schedule
from repro.check.refmodel import (
    AtomicMachine,
    run_programs_atomic,
    run_reference,
)
from repro.common.errors import SimulationError
from repro.cpu.ops import cas, fetch_add, load, store

from _helpers import small_config


BASE = 0x40000


def machine(num_threads=4):
    return AtomicMachine(small_config(), num_threads=num_threads)


def test_store_then_load():
    m = machine()
    m.execute(0, store(BASE + 8, 0xAB12, size=4))
    assert m.execute(0, load(BASE + 8, size=4)) == 0xAB12
    # Sub-word read of the same bytes (little-endian).
    assert m.execute(0, load(BASE + 8, size=1)) == 0x12


def test_untouched_blocks_read_zero():
    m = machine()
    assert m.execute(1, load(BASE, size=8)) == 0
    img = m.image()
    assert img.get(0x99999940) == bytes(64)
    assert 0x99999940 not in m.mem  # a read of a default block allocates


def test_rmw_returns_old_value_and_is_atomic():
    m = machine()
    m.execute(0, store(BASE, 5, size=8))
    assert m.execute(1, fetch_add(BASE, 3, size=8)) == 5
    assert m.execute(0, load(BASE, size=8)) == 8


def test_rmw_wraps_at_size():
    m = machine()
    m.execute(0, store(BASE, 0xFF, size=1))
    assert m.execute(0, fetch_add(BASE, 1, size=1)) == 0xFF
    assert m.execute(0, load(BASE, size=1)) == 0


def test_cas_semantics():
    m = machine()
    assert m.execute(0, cas(BASE, 0, 7, size=8)) == 0
    assert m.execute(1, cas(BASE, 0, 9, size=8)) == 7
    assert m.execute(1, load(BASE, size=8)) == 7


def test_truth_readers_writers_and_last_writer():
    m = machine()
    m.execute(0, store(BASE, 1, size=8))        # granule 0-1 written by 0
    m.execute(1, load(BASE, size=8))            # ... read by 1
    m.execute(2, store(BASE + 32, 2, size=8))   # granule 8-9 written by 2
    truth = m.truth[BASE]
    gran = m.granularity
    g0 = 0
    g32 = 32 // gran
    assert truth.writers(g0) == {0}
    assert truth.readers(g0) == {1}
    assert truth.last_writer[g0] == 0
    assert truth.writers(g32) == {2}
    assert truth.last_writer[g32] == 2
    assert truth.accessors == {0, 1, 2}


def test_rmw_counts_as_read_and_write():
    m = machine()
    m.execute(3, fetch_add(BASE, 1, size=8))
    truth = m.truth[BASE]
    assert truth.readers(0) == {3}
    assert truth.writers(0) == {3}
    assert truth.read_bits[3] == truth.write_bits[3] != 0


def test_multi_core_blocks():
    m = machine()
    m.execute(0, store(BASE, 1, size=8))
    m.execute(0, store(BASE + 64, 1, size=8))
    m.execute(1, load(BASE + 64, size=8))
    assert m.multi_core_blocks() == {BASE + 64}


def test_single_accessor_granules():
    m = machine()
    m.execute(0, store(BASE, 1, size=8))          # only core 0
    m.execute(1, fetch_add(BASE + 32, 1, size=8))  # only core 1
    m.execute(0, load(BASE + 32, size=8))          # ... now shared
    gran = m.granularity
    pairs = dict(m.single_accessor_granules(BASE))
    for g in range(8 // gran):
        assert pairs[g] == 0
    for g in range(32 // gran, 40 // gran):
        assert g not in pairs


def test_run_reference_matches_schedule_semantics():
    schedule = [
        FuzzOp(0, "store", line=0, offset=0, size=8, value=0x11),
        FuzzOp(1, "rmw", line=0, offset=32, size=8, value=3),
        FuzzOp(1, "rmw", line=0, offset=32, size=8, value=3),
        FuzzOp(0, "load", line=0, offset=0, size=8),
    ]
    ref = run_reference(schedule, num_threads=4)
    img = ref.image
    data = img.get(BASE)
    assert int.from_bytes(data[0:8], "little") == 0x11
    assert int.from_bytes(data[32:40], "little") == 6  # two fetch-adds of 3
    assert BASE in ref.multi_core_blocks()


def test_run_reference_order_sensitivity():
    """Same per-thread programs, different interleavings: the reference
    executes list order, so a store/store race resolves to the later op."""
    a = FuzzOp(0, "store", line=0, offset=0, size=8, value=1)
    b = FuzzOp(1, "rmw", line=0, offset=0, size=8, value=9)
    first = run_reference([a, b], num_threads=2).image.get(BASE)
    second = run_reference([b, a], num_threads=2).image.get(BASE)
    assert int.from_bytes(first[0:8], "little") == 10  # store 1, then +9
    assert int.from_bytes(second[0:8], "little") == 1   # +9, then store 1


def test_round_robin_driver_runs_spinlock():
    """A spinlock handoff makes progress only under fair scheduling; the
    round-robin driver must complete it."""
    lock = BASE
    counter = BASE + 64

    def worker(tid):
        while True:
            old = yield cas(lock, 0, tid + 1, size=8)
            if old == 0:
                break
        old = yield load(counter, size=8)
        yield store(counter, old + 1, size=8)
        yield store(lock, 0, size=8)

    m = run_programs_atomic([worker(t) for t in range(4)], small_config())
    data = m.image().get(counter & ~63)
    assert int.from_bytes(data[0:8], "little") == 4


def test_round_robin_driver_detects_livelock():
    def spin_forever():
        while True:
            yield load(BASE, size=8)

    with pytest.raises(SimulationError):
        run_programs_atomic([spin_forever()], small_config(), max_ops=1000)


def test_reference_is_deterministic():
    import random

    schedule = make_schedule("mixed", random.Random(42), length=60)
    ref1 = run_reference(schedule, 4, fuzz_config(4))
    ref2 = run_reference(schedule, 4, fuzz_config(4))
    assert ref1.blocks() == ref2.blocks()
    for block in ref1.blocks():
        assert ref1.image.get(block) == ref2.image.get(block)


# ------------------------------------------- truth vs brute-force model


def _brute_force_truth(ops, block_size, gran):
    """Per-(block, granule) reader/writer sets and last writer, per-block
    accessors, kept op by op the obvious way."""
    readers, writers, last_writer, accessors = {}, {}, {}, {}
    for tid, kind, block, offset, size in ops:
        accessors.setdefault(block, set()).add(tid)
        for granule in range(offset // gran, (offset + size - 1) // gran + 1):
            key = (block, granule)
            if kind in ("load", "rmw"):
                readers.setdefault(key, set()).add(tid)
            if kind in ("store", "rmw"):
                writers.setdefault(key, set()).add(tid)
                last_writer[key] = tid
    return readers, writers, last_writer, accessors


_OPS = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["load", "store", "rmw"]),
              st.integers(0, 2), st.integers(0, 63),
              st.sampled_from([1, 2, 4, 8])),
    min_size=1, max_size=40)


@settings(max_examples=120, deadline=None)
@given(ops=_OPS, gran=st.sampled_from([1, 2, 4]))
def test_mask_truth_matches_per_granule_sets(ops, gran):
    """The mask-derived readers, writers, last writer, accessors and
    single-accessor granules equal a brute-force per-granule set model on
    random op streams, and a pickled machine round-trips to equal truth."""
    config = small_config().with_protocol(tracking_granularity=gran)
    m = AtomicMachine(config, num_threads=4)
    block_size = m.block_size
    stream = []
    for tid, kind, block, offset, size in ops:
        offset -= offset % size  # naturally aligned, like every real op
        addr = BASE + block * block_size + offset
        op = {"load": lambda: load(addr, size=size),
              "store": lambda: store(addr, tid + 1, size=size),
              "rmw": lambda: fetch_add(addr, 1, size=size)}[kind]()
        m.execute(tid, op)
        stream.append((tid, kind, block, offset, size))
    readers, writers, last_writer, accessors = _brute_force_truth(
        stream, block_size, gran)

    assert sorted(m.truth) == sorted(BASE + b * block_size
                                     for b in accessors)
    for block, cores in accessors.items():
        truth = m.truth[BASE + block * block_size]
        assert truth.accessors == cores
        expected_single = []
        for g in range(m.num_granules):
            key = (block, g)
            assert truth.readers(g) == readers.get(key, set())
            assert truth.writers(g) == writers.get(key, set())
            assert truth.last_writer[g] == last_writer.get(key)
            touched = readers.get(key, set()) | writers.get(key, set())
            if len(touched) == 1:
                expected_single.append((g, next(iter(touched))))
        assert (m.single_accessor_granules(BASE + block * block_size)
                == expected_single)

    copy = pickle.loads(pickle.dumps(m, pickle.HIGHEST_PROTOCOL))
    assert sorted(copy.truth) == sorted(m.truth)
    for addr, truth in m.truth.items():
        twin = copy.truth[addr]
        for slot in type(truth).__slots__:
            assert getattr(twin, slot) == getattr(truth, slot), slot
        assert copy.single_accessor_granules(addr) == \
            m.single_accessor_granules(addr)
    assert dict(copy.image()) == dict(m.image())


def test_run_reference_image_is_built_once():
    schedule = [FuzzOp(0, "store", line=0, offset=0, size=8, value=7)]
    ref = run_reference(schedule, num_threads=4)
    assert ref.image is ref.image
