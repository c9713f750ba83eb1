"""One reference model for campaign schedules.

:func:`repro.check.fuzz.schedule_to_ops` executes every translated op on
one :class:`~repro.check.refmodel.AtomicMachine` in schedule order, and
that single execution supplies every expected value a campaign checks:
the in-program load assertions, the final-image check and the
differential oracle's reference.  These tests pin that:

* hand-written shapes the schedule generator never produces (a shared
  fetch-add of four bytes, off the 8-byte grid or wrapping at its size)
  run clean in every mode, with and without the differential oracle — a
  per-word sum model of shared words got both wrong;
* the expected values in the translated stream are the atomic machine's;
* a differential ``run_schedule`` and ``run_differential`` translate (and
  so run the reference) once per call, and a chaos campaign translates
  each case's schedule once, however often the case runs.
"""

import pytest

import repro.check.diff as diff
import repro.check.fuzz as fuzz
import repro.faults.chaos as chaos
from repro.check.fuzz import BASE, FuzzOp, fuzz_config, run_schedule
from repro.check.refmodel import AtomicMachine
from repro.coherence.states import ProtocolMode

#: Schedules whose shared words take fetch-adds narrower than a word.
NARROW_SHARED_RMWS = {
    "off-grid": [FuzzOp(0, "rmw", 0, 36, 4, 5)],
    "wrapping": [FuzzOp(1, "rmw", 0, 32, 4, 0xffffffff),
                 FuzzOp(2, "rmw", 0, 32, 4, 1)],
}


@pytest.mark.parametrize("differential", [False, True])
@pytest.mark.parametrize("mode", list(ProtocolMode))
@pytest.mark.parametrize("name", sorted(NARROW_SHARED_RMWS))
def test_narrow_shared_rmws_run_clean(name, mode, differential):
    report = run_schedule(NARROW_SHARED_RMWS[name], mode=mode,
                          differential=differential)
    assert report.ok, report.failure.describe()


def test_reference_image_of_narrow_shared_rmws():
    ref = fuzz.schedule_to_ops(NARROW_SHARED_RMWS["off-grid"], 4,
                               fuzz_config())[1]
    assert ref.image.get(BASE)[32:40] == bytes(4) + (5).to_bytes(4, "little")
    ref = fuzz.schedule_to_ops(NARROW_SHARED_RMWS["wrapping"], 4,
                               fuzz_config())[1]
    assert ref.image.get(BASE)[32:40] == bytes(8)


def test_expected_values_are_the_atomic_machines():
    schedule = [
        FuzzOp(0, "store", 0, 0, 8, 0x1122334455667788),
        FuzzOp(0, "rmw", 0, 4, 4, 1),
        FuzzOp(0, "load", 0, 0, 8),
        FuzzOp(1, "rmw", 0, 32, 8, 7),
        FuzzOp(2, "load", 0, 32, 8),
        FuzzOp(0, "evict", 0),
    ]
    flat, _ = fuzz.schedule_to_ops(schedule, 4, fuzz_config())
    expected = [(label, want) for _tid, _op, want, label in flat]
    assert expected == [
        ("t0#0 store", None),
        ("t0#1 rmw", 0x11223344),           # old value of the high half
        ("t0#2 load", 0x1122334555667788),
        ("t1#0 rmw", None),                 # shared word: unchecked
        ("t2#0 load", None),
        ("t0#3 evict pressure#0", 0),
        ("t0#3 evict pressure#1", 0),
    ]
    flat, _ = fuzz.schedule_to_ops(schedule, 4, fuzz_config(),
                                   check_loads=False)
    assert all(want is None for _tid, _op, want, _label in flat)


@pytest.fixture
def translations(monkeypatch):
    """Counts of schedule translations and atomic machines built."""
    counts = {"translations": 0, "machines": 0}
    translate = fuzz.schedule_to_ops

    def counted(*args, **kwargs):
        counts["translations"] += 1
        return translate(*args, **kwargs)

    for module in (fuzz, diff, chaos):
        if hasattr(module, "schedule_to_ops"):
            monkeypatch.setattr(module, "schedule_to_ops", counted)

    build = AtomicMachine.__init__

    def counted_build(machine, *args, **kwargs):
        counts["machines"] += 1
        build(machine, *args, **kwargs)

    monkeypatch.setattr(AtomicMachine, "__init__", counted_build)
    return counts


SCHEDULE = [FuzzOp(0, "store", 0, 0, 8, 3), FuzzOp(1, "rmw", 0, 32, 8, 2),
            FuzzOp(2, "load", 1, 16, 4), FuzzOp(0, "evict", 0)]


def test_differential_run_schedule_translates_once(translations):
    assert run_schedule(SCHEDULE, differential=True).ok
    assert translations == {"translations": 1, "machines": 1}


def test_run_differential_translates_once(translations):
    report = diff.run_differential(SCHEDULE)
    assert report.ok, report.describe()
    assert report.modes_run == list(ProtocolMode)
    assert translations == {"translations": 1, "machines": 1}


def test_chaos_case_translates_once(translations):
    result = chaos.chaos_campaign(iterations=3, seed=0, length=30,
                                  differential=True)
    assert result.ok, [f.failure.describe() for f in result.findings]
    assert translations == {"translations": 3, "machines": 3}
