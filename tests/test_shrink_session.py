"""The shrink session's verdict memo.

Every campaign and hunt shrinks through :class:`ShrinkSession`, which
re-runs each candidate from cycle 0 and keeps its report under
``key_of(candidate)``: runs are deterministic, so a repeated candidate
needs no second run.
"""

import repro.check.fuzz as fuzz
from repro.check.fuzz import FuzzOp, ShrinkSession
from repro.faults.plan import FaultEvent


class Report:
    def __init__(self, ok: bool) -> None:
        self.ok = ok


def counting_run(ok=lambda candidate: True):
    calls = []

    def run(candidate):
        calls.append(list(candidate))
        return Report(ok(candidate))

    return run, calls


def test_repeated_candidate_runs_once_and_returns_the_same_report():
    run, calls = counting_run()
    session = ShrinkSession(run)
    schedule = [FuzzOp(0, "store", 0, 0, 8, 1), FuzzOp(1, "load", 0, 8)]
    first = session.evaluate(schedule)
    second = session.evaluate(list(schedule))
    assert first is second
    assert calls == [schedule]
    session.evaluate(schedule[:1])
    assert len(calls) == 2


def test_fault_event_key_of_is_honoured():
    """Chaos shrinks fault scripts: equal (kind, opportunity) lists share
    one report even when their event objects differ."""
    run, calls = counting_run()
    session = ShrinkSession(run, key_of=lambda candidate: tuple(
        (e.kind, e.opportunity) for e in candidate))
    first = session.evaluate([FaultEvent("dup_md", 0),
                              FaultEvent("pam_clear", 1)])
    again = session.evaluate([FaultEvent("dup_md", 0),
                              FaultEvent("pam_clear", 1)])
    assert first is again
    session.evaluate([FaultEvent("dup_md", 0)])
    assert len(calls) == 2


def test_shrink_goes_through_the_module_level_shrinker(monkeypatch):
    """Wrappers that patch ``repro.check.fuzz.shrink_schedule`` (to count
    shrink evaluations) see every session's shrink."""
    seen = []
    shrink = fuzz.shrink_schedule

    def counted(schedule, fails, *args, **kwargs):
        seen.append(len(schedule))
        return shrink(schedule, fails, *args, **kwargs)

    monkeypatch.setattr(fuzz, "shrink_schedule", counted)
    run, calls = counting_run(ok=lambda candidate: 3 not in candidate)
    session = ShrinkSession(run, key_of=tuple)
    assert session.shrink(list(range(8)), budget=100) == [3]
    assert seen == [8]
    assert len(calls) == len({tuple(c) for c in calls})
