"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.common.events import EventQueue


def _noop(_arg):
    pass


class TestScheduling:
    def test_fires_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(10, log.append, "b")
        q.schedule(5, log.append, "a")
        q.schedule(20, log.append, "c")
        q.run()
        assert log == ["a", "b", "c"]

    def test_same_time_fires_in_insertion_order(self):
        q = EventQueue()
        log = []
        for i in range(10):
            q.schedule(7, log.append, i)
        q.run()
        assert log == list(range(10))

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(3, lambda _: seen.append(q.now))
        q.schedule_at(9, lambda _: seen.append(q.now))
        q.run()
        assert seen == [3, 9]

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(-1, _noop)

    def test_schedule_at_past_rejected(self):
        q = EventQueue()
        q.schedule(5, _noop)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule_at(4, _noop)
        assert q.empty()
        q.schedule_at(5, _noop)  # "now" itself is allowed
        assert not q.empty()

    def test_schedule_and_schedule_at_share_tie_order(self):
        q = EventQueue()
        log = []
        q.schedule(6, log.append, "a")
        q.schedule_at(6, log.append, "b")
        q.schedule(6, log.append, "c")
        q.schedule_at(6, log.append, "d")
        q.run()
        assert log == ["a", "b", "c", "d"]

    def test_schedule_from_callback(self):
        q = EventQueue()
        log = []

        def chain(n):
            log.append(n)
            if n < 4:
                q.schedule(2, chain, n + 1)

        q.schedule(0, chain, 0)
        q.run()
        assert log == [0, 1, 2, 3, 4]
        assert q.now == 8

    def test_arg_is_delivered(self):
        q = EventQueue()
        log = []
        q.schedule(1, log.append, ("msg", 7))
        q.schedule(2, log.append)
        q.schedule(3, log.append, None)
        q.schedule_at(4, log.append, 0)
        q.run()
        assert log == [("msg", 7), None, None, 0]

    def test_empty_tracks_pending_events(self):
        q = EventQueue()
        assert q.empty()
        q.schedule(1, _noop)
        assert not q.empty()
        q.step()
        assert q.empty()


class TestRunLimits:
    def test_run_until(self):
        q = EventQueue()
        log = []
        q.schedule(5, log.append, 1)
        q.schedule(15, log.append, 2)
        q.run(until=10)
        assert log == [1]
        assert q.now == 10

    def test_run_until_in_the_past_rejected(self):
        q = EventQueue()
        log = []
        q.schedule(5, log.append, 1)
        q.schedule(15, log.append, 2)
        q.run(until=10)
        with pytest.raises(SimulationError):
            q.run(until=3)
        # The clock did not move back, so new events keep their times.
        assert q.now == 10
        q.schedule(1, log.append, 3)
        q.run()
        assert log == [1, 3, 2]
        assert q.now == 15

    def test_run_max_events(self):
        q = EventQueue()
        log = []
        for i in range(10):
            q.schedule(i, log.append, i)
        q.run(max_events=3)
        assert log == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        q = EventQueue()
        assert q.step() is False

    def test_executed_counter(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(i, _noop)
        q.run()
        assert q.executed == 5
