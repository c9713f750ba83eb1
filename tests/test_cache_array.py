"""Unit and property tests for the generic set-associative array."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsys.cache_array import CacheArray, CacheEntry


def make(num_sets=4, ways=2, divisor=1):
    return CacheArray(num_sets=num_sets, ways=ways, block_size=64,
                      index_divisor=divisor)


def held_frames(c):
    """Frames the array's sets hold, whether or not a block is resident
    in them (the array keeps one frame per resident block)."""
    return sum(isinstance(e, CacheEntry)
               for slots in c._sets if slots is not None for e in slots)


class TestBasicOperations:
    def test_miss_then_hit(self):
        c = make()
        assert c.lookup(0x1000) is None
        c.fill(0x1000, "payload")
        entry = c.lookup(0x1000)
        assert entry is not None
        assert entry.payload == "payload"

    def test_fill_duplicate_rejected(self):
        c = make()
        c.fill(0x1000, "a")
        with pytest.raises(ValueError):
            c.fill(0x1000, "b")

    @pytest.mark.parametrize("num_sets,ways", [(0, 2), (4, 0)])
    def test_empty_geometry_rejected(self, num_sets, ways):
        with pytest.raises(ValueError):
            make(num_sets=num_sets, ways=ways)

    def test_invalidate(self):
        c = make()
        c.fill(0x1000, "a")
        assert c.invalidate(0x1000) == "a"
        assert c.lookup(0x1000) is None
        assert c.invalidate(0x1000) is None

    def test_contains(self):
        c = make()
        c.fill(0x2000, "x")
        assert 0x2000 in c
        assert 0x3000 not in c

    def test_len_and_occupancy(self):
        c = make()
        assert len(c) == 0
        c.fill(0, "a")
        c.fill(64, "b")
        assert len(c) == 2
        assert c.occupancy() == 2 / 8

    def test_peek_leaves_lru_state_alone(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        assert c.peek(0).payload == "a"  # no touch: "a" stays LRU
        assert c.fill(128, "c").payload == "a"


class TestEviction:
    def test_eviction_returns_victim(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        evicted = c.fill(128, "c")
        assert evicted is not None
        assert evicted.payload == "a"  # LRU
        assert c.addr_of(evicted) == 0

    def test_lru_respects_touch(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        c.lookup(0)  # touch a
        evicted = c.fill(128, "c")
        assert evicted.payload == "b"

    def test_protected_way_survives(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        way_a = c.peek(0).way
        evicted = c.fill(128, "c", protected=[way_a])
        assert evicted.payload == "b"

    def test_no_eviction_with_free_way(self):
        c = make(num_sets=1, ways=4)
        for i in range(3):
            assert c.fill(i * 64, i) is None

    def test_eviction_record_is_the_victims_detached_frame(self):
        c = make(num_sets=2, ways=2)
        c.fill(64, "a")  # blocks 1, 3 and 5 all map to set 1
        c.fill(192, "b")
        resident = c.peek(64)
        evicted = c.fill(320, "c")
        assert evicted is resident
        assert (evicted.block_addr, evicted.way, evicted.set_index,
                evicted.payload) == (64, 0, 1, "a")
        assert c.peek(320) is not evicted
        assert c.peek(320).way == 0
        assert held_frames(c) == len(c) == 2


class TestChooseVictim:
    def test_none_while_a_way_is_free(self):
        c = make(num_sets=1, ways=2)
        assert c.choose_victim(0) is None
        c.fill(0, "a")
        assert c.choose_victim(64) is None
        c.fill(64, "b")
        assert c.choose_victim(128) is not None
        c.invalidate(0)
        assert c.choose_victim(128) is None
        assert held_frames(c) == 1

    def test_lru_unprotected_frame_when_full(self):
        c = make(num_sets=2, ways=4)
        for i in range(4):
            c.fill(i * 128, i)  # even blocks: set 0
        c.lookup(0)  # LRU order now 1, 2, 3, 0
        assert c.choose_victim(512) is c.peek(128)
        way_1 = c.peek(128).way
        assert c.choose_victim(512, protected=[way_1]) is c.peek(256)
        # Choosing changes nothing: no frames for the untouched set 1,
        # and the fill then evicts the chosen frame.
        assert c.choose_victim(64) is None
        assert held_frames(c) == len(c) == 4
        assert c.fill(512, 4, protected=[way_1]) is not None
        assert 256 not in c and 128 in c


class TestSlicedIndexing:
    """A slice sees only blocks of one residue (mod divisor); indexing must
    use the slice-local block number or all blocks land in one set."""

    def test_slice_blocks_spread_over_sets(self):
        c = make(num_sets=4, ways=2, divisor=8)
        # Blocks of slice 3: numbers 3, 11, 19, 27 -> local 0,1,2,3
        sets = [c.set_index_of((3 + 8 * k) * 64) for k in range(4)]
        assert sets == [0, 1, 2, 3]

    def test_addr_of_roundtrip_sliced(self):
        c = make(num_sets=4, ways=2, divisor=8)
        for k in range(8):
            addr = (5 + 8 * k) * 64
            c.fill(addr, k)
            assert c.addr_of(c.peek(addr)) == addr

    def test_capacity_usable(self):
        c = make(num_sets=4, ways=2, divisor=8)
        # 8 slice-local blocks fill all 8 frames without eviction.
        for k in range(8):
            assert c.fill(8 * k * 64, k) is None
        assert len(c) == 8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
def test_property_capacity_never_exceeded(blocks):
    c = make(num_sets=4, ways=2)
    for b in blocks:
        addr = b * 64
        if c.peek(addr) is None:
            c.fill(addr, b)
    assert len(c) <= 8
    per_set = {}
    for entry in c.iter_valid():
        per_set.setdefault(entry.set_index, []).append(entry)
    assert all(len(v) <= 2 for v in per_set.values())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
def test_property_addr_of_roundtrips(blocks):
    c = make(num_sets=8, ways=4)
    for b in blocks:
        addr = b * 64
        if c.peek(addr) is None:
            c.fill(addr, b)
    for entry in c.iter_valid():
        addr = c.addr_of(entry)
        assert c.peek(addr) is entry
        assert entry.payload == addr // 64


_OPS = st.sampled_from(["fill", "invalidate", "lookup", "peek"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_OPS, st.integers(min_value=0, max_value=31)),
                min_size=1, max_size=300),
       st.sampled_from([(2, 4, 1), (4, 2, 1), (2, 2, 4), (3, 2, 3)]))
def test_property_fill_invalidate_consistency(ops, geometry):
    """Random fill/invalidate/lookup/peek interleavings, on plain and sliced
    arrays (power-of-two and general index math): every probe agrees with
    a scan of the valid frames, every victim is the least recently
    filled-or-looked-up block of its set (a recency model; peek does not
    count as a use), a fill into a set with a free way takes its lowest
    free way, and the array holds exactly one frame per resident block."""
    num_sets, ways, divisor = geometry
    c = make(num_sets=num_sets, ways=ways, divisor=divisor)
    last_use = {}  # resident block address -> time of last fill/lookup
    for clock, (op, b) in enumerate(ops):
        # Slice 1 of ``divisor``: block numbers congruent to 1 mod divisor.
        addr = (b * divisor + 1 % divisor) * 64
        scanned = [e for e in c.iter_valid() if c.addr_of(e) == addr]
        expected = scanned[0] if scanned else None
        assert len(scanned) <= 1
        assert c.peek(addr) is expected
        assert (addr in c) == (expected is not None)
        if op == "lookup":
            assert c.lookup(addr) is expected
            if expected is not None:
                last_use[addr] = clock
        elif op == "fill" and expected is None:
            same_set = [a for a in last_use
                        if c.set_index_of(a) == c.set_index_of(addr)]
            taken = {c.peek(a).way for a in same_set}
            evicted = c.fill(addr, b)
            if len(same_set) < ways:
                assert evicted is None
                assert c.peek(addr).way == min(set(range(ways)) - taken)
            else:
                assert c.addr_of(evicted) == min(same_set, key=last_use.get)
                assert evicted.payload == c.addr_of(evicted) // 64 // divisor
                del last_use[c.addr_of(evicted)]
            last_use[addr] = clock
        elif op == "invalidate":
            payload = c.invalidate(addr)
            assert (payload is None) == (expected is None)
            last_use.pop(addr, None)
        assert held_frames(c) == len(c)
    assert {c.addr_of(e) for e in c.iter_valid()} == set(last_use)
    assert len(c) == len(last_use)
