"""Unit and property tests for the LRU replacement state that every
cache array (L1D, LLC slices, SAM table) keeps per set."""

from hypothesis import given, strategies as st

from repro.memsys.cache_array import LruPolicy


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

