"""Unit and property tests for replacement policies."""

import pytest
from hypothesis import given, strategies as st

from repro.memsys.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    TreePlruPolicy,
    make_policy,
)


class TestLru:
    def test_untouched_is_victim(self):
        p = LruPolicy(4)
        for w in (1, 2, 3):
            p.touch(w)
        assert p.victim() == 0

    def test_least_recent_evicted(self):
        p = LruPolicy(4)
        for w in (0, 1, 2, 3, 0, 1):
            p.touch(w)
        assert p.victim() == 2

    def test_protected_skipped(self):
        p = LruPolicy(4)
        for w in (0, 1, 2, 3):
            p.touch(w)
        assert p.victim(protected=[0]) == 1

    def test_all_protected_falls_back(self):
        p = LruPolicy(2)
        p.touch(0)
        p.touch(1)
        assert p.victim(protected=[0, 1]) == 0

    def test_reset_demotes(self):
        p = LruPolicy(4)
        for w in (0, 1, 2, 3):
            p.touch(w)
        p.reset(3)
        assert p.victim() == 3

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=50))
    def test_victim_is_never_most_recent(self, touches):
        p = LruPolicy(8)
        for w in touches:
            p.touch(w)
        assert p.victim() != touches[-1]

    @given(st.lists(st.tuples(st.sampled_from(["touch", "reset"]),
                              st.integers(min_value=0, max_value=3)),
                    max_size=60),
           st.sets(st.integers(min_value=0, max_value=3)))
    def test_matches_naive_recency_model(self, steps, protected):
        """Victims agree with a timestamp model after every touch/reset,
        including repeated touches of the most recent way."""
        p = LruPolicy(4)
        stamp = {w: w - 4 for w in range(4)}  # initial order 0..3, all old
        clock = 0
        for kind, way in steps:
            if kind == "touch":
                p.touch(way)
                clock += 1
                stamp[way] = clock
            else:
                p.reset(way)
                stamp[way] = min(stamp.values()) - 1
            candidates = [w for w in range(4) if w not in protected] \
                or list(range(4))
            assert p.victim() == min(range(4), key=stamp.__getitem__)
            assert p.victim(protected) == min(candidates,
                                              key=stamp.__getitem__)


class TestFifo:
    def test_first_filled_evicted(self):
        p = FifoPolicy(4)
        for w in (2, 0, 1, 3):
            p.touch(w)
        assert p.victim() == 2

    def test_hits_do_not_reorder(self):
        p = FifoPolicy(3)
        for w in (0, 1, 2):
            p.touch(w)
        p.touch(0)  # hit, not a fill
        assert p.victim() == 0

    def test_reset_allows_refill(self):
        p = FifoPolicy(2)
        p.touch(0)
        p.touch(1)
        p.reset(0)
        p.touch(0)  # refill: goes to the back
        assert p.victim() == 1


class TestTreePlru:
    def test_requires_pow2(self):
        with pytest.raises(ValueError):
            TreePlruPolicy(6)

    def test_points_away_from_touched(self):
        p = TreePlruPolicy(4)
        p.touch(0)
        assert p.victim() != 0

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=40))
    def test_victim_in_range_and_not_last(self, touches):
        p = TreePlruPolicy(8)
        for w in touches:
            p.touch(w)
        v = p.victim()
        assert 0 <= v < 8
        assert v != touches[-1]


class TestRandom:
    def test_deterministic_with_seed(self):
        a = RandomPolicy(8, seed=3)
        b = RandomPolicy(8, seed=3)
        assert [a.victim() for _ in range(20)] == \
               [b.victim() for _ in range(20)]

    def test_respects_protection(self):
        p = RandomPolicy(4, seed=0)
        for _ in range(50):
            assert p.victim(protected=[0, 1, 2]) == 3


class TestFactory:
    @pytest.mark.parametrize("name", ["lru", "fifo", "plru", "random"])
    def test_known_policies(self, name):
        assert make_policy(name, 4).ways == 4

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("mru", 4)
