"""Snapshot/restore round-trips and the prefix-replay cache.

The determinism contract under test (see ``src/repro/system/snapshot.py``):
restoring a mid-run snapshot and resuming is bit-for-bit identical to
never having snapshotted — across every protocol mode, with the sanitizer
attached, and with an armed (scripted) fault injector.  On top of that sit
the `PrefixReplayCache` unit properties (a resumed evaluation returns the
cold report; ddmin shrinks every seeded mutation to the same schedule with
the cache on or off).  Spec runs attach plain programs: their cores keep
no per-op send history and their machines cannot be snapshotted.
"""

from __future__ import annotations

import pytest

from _helpers import small_config

from repro.check.mutations import MUTATIONS
from repro.coherence.states import ProtocolMode
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.harness.runner import RunSpec, execute_spec_with_machine
from repro.system.builder import build_machine
from repro.system.simulator import Simulator
from repro.system.snapshot import (
    SnapshotError,
    restore_snapshot,
    snapshot_digest,
    take_snapshot,
)

SCALE = 0.2


# ----------------------------------------------------------- round trips


def _machine_for(mode, sanitize=False, plan=None):
    """A small fuzz-style machine halfway through a fixed schedule."""
    from repro.check.fuzz import _SchedulePrograms, _translate, fuzz_config
    from repro.check.fuzz import make_schedule
    import random

    config = fuzz_config(4)
    schedule = make_schedule("mixed", random.Random(7), num_threads=4,
                             length=40)
    per_thread, _ = _translate(schedule, 4, config, check_loads=False)
    machine = build_machine(config, mode)
    machine.attach_programs(program_factory=_SchedulePrograms(per_thread))
    if plan is not None:
        machine.extras["injector"] = FaultInjector(machine, plan).attach()
    if sanitize:
        from repro.check.sanitizer import Sanitizer

        machine.extras["sanitizer"] = Sanitizer(machine).attach()
    return machine


def _final_state(machine):
    """Semantic end-of-run fingerprint: queue position, flushed memory
    image, and network totals."""
    from repro.system.simulator import flush_machine_memory

    image = flush_machine_memory(machine)
    stats = machine.network.stats
    return (machine.queue.now, machine.queue.executed,
            {addr: bytes(image.get(addr)) for addr in image},
            list(stats._count_by_type), list(stats._bytes_by_type))


def _fork_and_finish(machine):
    """Run halfway, snapshot, then finish both the original and the
    restored fork; return their final states."""
    for core in machine.cores:
        core.start()
    machine.queue.run(until=300)
    snap = take_snapshot(machine)
    fork = restore_snapshot(snap)
    Simulator(machine).run(resume=True)
    Simulator(fork).run(resume=True)
    for m in (machine, fork):
        for extra in ("injector", "sanitizer"):
            if m.extras.get(extra) is not None:
                m.extras[extra].detach()
    return _final_state(machine), _final_state(fork)


@pytest.mark.parametrize("mode", list(ProtocolMode),
                         ids=[m.value for m in ProtocolMode])
def test_round_trip_all_modes(mode):
    a, b = _fork_and_finish(_machine_for(mode))
    assert a == b


@pytest.mark.parametrize("mode", list(ProtocolMode),
                         ids=[m.value for m in ProtocolMode])
def test_round_trip_with_sanitizer(mode):
    a, b = _fork_and_finish(_machine_for(mode, sanitize=True))
    assert a == b


def test_round_trip_with_armed_injector():
    """A scripted fault injector — including its not-yet-fired script and
    opportunity counters — survives snapshot/restore bit-for-bit."""
    plan = FaultPlan(script=(FaultEvent("drop_rep_md", 2),
                             FaultEvent("pam_clear", 1),
                             FaultEvent("l1_evict", 5)))
    a, b = _fork_and_finish(
        _machine_for(ProtocolMode.FSDETECT, plan=plan))
    assert a == b


def test_snapshot_is_read_only():
    machine = _machine_for(ProtocolMode.MESI)
    for core in machine.cores:
        core.start()
    machine.queue.run(until=300)
    before = snapshot_digest(machine)
    take_snapshot(machine)
    assert snapshot_digest(machine) == before


def test_restore_rejects_short_program_factory():
    machine = _machine_for(ProtocolMode.MESI)
    for core in machine.cores:
        core.start()
    machine.queue.run(until=300)
    snap = take_snapshot(machine)
    with pytest.raises(SnapshotError):
        restore_snapshot(snap, program_factory=lambda: [])


# ------------------------------------------------------ PrefixReplayCache


def _eval_context():
    from repro.check.diff import run_differential
    from repro.check.fuzz import fuzz_config, make_schedule
    from repro.check.replay import PrefixReplayCache
    import random

    config = fuzz_config(4)
    schedule = make_schedule("mixed", random.Random(3), num_threads=4,
                             length=30)
    cache = PrefixReplayCache()
    return cache, schedule, config, run_differential


def test_replay_resume_is_bit_identical():
    """A resumed evaluation of a prefix must return the exact report a
    cold evaluation does (the property every shrink site leans on)."""
    cache, schedule, config, run_differential = _eval_context()
    modes = [ProtocolMode.FSLITE]
    cache.force_record = True
    try:
        full_cold = run_differential(schedule, modes=modes, config=config)
        run_differential(schedule, modes=modes, config=config, replay=cache)
    finally:
        cache.force_record = False
    assert cache.stored > 0
    prefix = schedule[: len(schedule) * 3 // 4]
    cold = run_differential(prefix, modes=modes, config=config)
    warm = run_differential(prefix, modes=modes, config=config,
                            replay=cache)
    assert cache.hits >= 1
    assert warm.ok == cold.ok == full_cold.ok
    assert warm.blocks_compared == cold.blocks_compared
    assert [d.describe() for d in warm.divergences] \
        == [d.describe() for d in cold.divergences]


def test_ref_run_matches_cold_reference():
    from repro.check.refmodel import run_reference

    cache, schedule, config, _ = _eval_context()
    cold = run_reference(schedule, 4, config)
    warm_first = cache.ref_run(schedule, 4, config)
    prefix = schedule[:20]
    cold_prefix = run_reference(prefix, 4, config)
    warm_prefix = cache.ref_run(prefix, 4, config)
    for a, b in ((warm_first, cold), (warm_prefix, cold_prefix)):
        assert a.blocks() == b.blocks()
        for block in b.blocks():
            assert bytes(a.machine.mem.get(block)) \
                == bytes(b.machine.mem.get(block))


def test_memo_returns_same_report_object():
    from repro.check.replay import PrefixReplayCache, shrink_evaluator

    cache = PrefixReplayCache()
    calls = []

    def run(candidate, rc):
        calls.append(list(candidate))

        class Report:
            ok = True

        return Report()

    evaluate = shrink_evaluator(cache, run, key_of=tuple)
    first = evaluate([1, 2, 3])
    second = evaluate([1, 2, 3])
    assert first is second
    assert len(calls) == 1
    assert cache.memo_hits == 1


def test_shrink_evaluator_anchors_failing_candidates():
    """A failing cold candidate above the anchor floor triggers one extra
    forced-record run over its anchor prefix (laying checkpoints for the
    ddmin descendants); small candidates never do."""
    from repro.check.replay import PrefixReplayCache, shrink_evaluator

    cache = PrefixReplayCache()
    runs = []

    def run(candidate, rc):
        runs.append((len(candidate), cache.force_record))

        class Report:
            ok = False

        return Report()

    evaluate = shrink_evaluator(cache, run, key_of=tuple,
                                min_anchor=4, anchor_fraction=0.5)
    evaluate(tuple(range(8)))
    assert runs == [(8, False), (4, True)]
    runs.clear()
    evaluate(tuple(range(3)))  # below the floor: no anchor pass
    assert runs == [(3, False)]


def test_budget_eviction():
    from repro.check.replay import PrefixReplayCache

    cache = PrefixReplayCache(max_bytes=1)
    cache.force_record = True
    from repro.check.fuzz import fuzz_config, make_schedule, _translate
    import random

    config = fuzz_config(2)
    schedule = make_schedule("mixed", random.Random(1), num_threads=2,
                             length=30)
    from repro.check.diff import run_differential

    run_differential(schedule, modes=[ProtocolMode.MESI],
                     num_threads=2, config=config, replay=cache)
    cache.force_record = False
    assert cache.stored >= 1
    assert cache.evicted >= cache.stored - 1  # budget of 1 byte keeps ~0


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_replay_cache_leaves_shrunk_schedules_unchanged(mutation):
    """ddmin over the differential oracle finds the same failing schedule
    and shrinks it to the same ops with the prefix-replay cache on and
    off: the cache may only change wall clock."""
    from repro.check.diff import hunt_mutation_escape

    warm = hunt_mutation_escape(mutation, replay=True)
    cold = hunt_mutation_escape(mutation, replay=False)
    assert warm.caught and cold.caught
    assert warm.schedule == cold.schedule
    assert warm.shrunk == cold.shrunk


# ------------------------------------------------------ spec-run machines


def _spec_run_peak_bytes(scale: float, core_model: str) -> int:
    """Traced heap peak of a live RC spec run at ``scale``, its machine
    still open."""
    import tracemalloc

    spec = RunSpec(tag="RC", scale=scale, core_model=core_model)
    tracemalloc.start()
    try:
        _, machine = execute_spec_with_machine(spec)
        machine.close()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("core_model", ["inorder", "ooo"])
def test_spec_run_keeps_no_send_history(core_model):
    """A live workload spec run attaches plain programs, so its cores keep
    nothing per op: its heap peak is flat in workload length, and its
    machine cannot be snapshotted.  Only a machine attached with a
    program factory (the replay cache's) keeps the history a restore
    replays."""
    _spec_run_peak_bytes(0.05, core_model)  # lazy imports, first-use caches
    short = _spec_run_peak_bytes(0.2, core_model)
    long = _spec_run_peak_bytes(0.8, core_model)
    assert long <= 1.1 * short, (
        f"peak {long / 2**20:.2f} MB at scale 0.8 vs "
        f"{short / 2**20:.2f} MB at scale 0.2")
    _, machine = execute_spec_with_machine(
        RunSpec(tag="RC", scale=SCALE, core_model=core_model))
    try:
        assert machine.program_factory is None
        for core in machine.cores:
            assert core.ops_executed > 1
            assert len(core._sent) == 0
        with pytest.raises(SnapshotError, match="program_factory"):
            take_snapshot(machine)
    finally:
        machine.close()
