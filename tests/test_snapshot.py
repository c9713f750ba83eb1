"""Snapshot/restore round-trips, the prefix-replay cache, and the
engine's warm-start fork.

The determinism contract under test (see ``src/repro/system/snapshot.py``):
restoring a mid-run snapshot and resuming is bit-for-bit identical to
never having snapshotted — across every protocol mode, with the sanitizer
attached, with observers attached, and with an armed (scripted) fault
injector.  On top of that sit the `PrefixReplayCache` unit properties
(ddmin shrinks every seeded mutation to the same schedule with the cache
on or off) and the engine-level behaviours added with `RunSpec.warmup`:
warm grouping, a fork that simulates only the suffix, trace replays
forked from cores that kept only an op count, the on-disk warm snapshot
cache with quarantine, cold fallback, and partial-batch result persistence
on failure.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from _helpers import small_config

from repro.check.mutations import MUTATIONS
from repro.coherence.states import ProtocolMode
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.harness.engine import Engine, EngineError
from repro.harness.export import record_stats_digest
from repro.harness.runner import (
    RunSpec,
    _WorkloadPrograms,
    build_warm_snapshot,
    execute_spec,
    execute_spec_with_machine,
    warm_digest,
)
from repro.system.builder import Machine, build_machine
from repro.system.simulator import Simulator
from repro.system.snapshot import (
    SnapshotError,
    restore_snapshot,
    snapshot_digest,
    take_snapshot,
)
from repro.workloads.trace import (
    SharingProfile,
    TracePrograms,
    synthesize_trace,
    trace_spec,
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
    fork = Machine.restore(snap)
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


def test_round_trip_with_observers():
    """Observer state (episode tracker, metrics sampler) is part of the
    captured graph: a warm-started observed run reproduces the cold one."""
    from repro.common.config import ObsConfig

    spec = RunSpec(tag="RC", mode=ProtocolMode.FSDETECT, scale=SCALE,
                   obs=ObsConfig(sample_period=500))
    cold = execute_spec(spec)
    warm_spec = RunSpec(tag="RC", mode=ProtocolMode.FSDETECT, scale=SCALE,
                        obs=ObsConfig(sample_period=500),
                        warmup=cold.cycles // 2)
    record = execute_spec(warm_spec, warm=build_warm_snapshot(warm_spec))
    assert record.cycles == cold.cycles
    assert record.stats.summary() == cold.stats.summary()
    assert record.extra["obs"] == cold.extra["obs"]


def test_snapshot_is_read_only():
    machine = _machine_for(ProtocolMode.MESI)
    for core in machine.cores:
        core.start()
    machine.queue.run(until=300)
    before = snapshot_digest(machine)
    take_snapshot(machine)
    assert snapshot_digest(machine) == before


def test_restore_rejects_short_program_factory():
    from repro.system.snapshot import restore_snapshot

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


# -------------------------------------------------------- engine warm-start


def test_warm_digest_ignores_verify_only():
    spec = RunSpec(tag="RC", scale=SCALE, warmup=500)
    assert warm_digest(spec) \
        == warm_digest(RunSpec(tag="RC", scale=SCALE, warmup=500,
                               verify=False))
    assert warm_digest(spec) \
        != warm_digest(RunSpec(tag="RC", scale=SCALE, warmup=400))


def test_engine_forks_one_warm_snapshot_per_group():
    spec = RunSpec(tag="RC", scale=SCALE)
    cold = execute_spec(spec)
    warm = RunSpec(tag="RC", scale=SCALE, warmup=cold.cycles // 2)
    engine = Engine()
    records = engine.run_many(
        [warm, RunSpec(tag="RC", scale=SCALE, warmup=cold.cycles // 2,
                       verify=False)])
    assert engine.stats["warm_built"] == 1
    assert [r.cycles for r in records] == [cold.cycles] * 2
    assert records[0].stats.summary() == cold.stats.summary()


def test_warm_fork_runs_only_the_suffix():
    """A sweep point forked from a 95% warmup snapshot (BS, FSLite, 8
    threads: heavy invalidation traffic) is cycle- and stats-identical to
    the cold run, and simulates at most a tenth of its events."""
    spec = RunSpec(tag="BS", mode=ProtocolMode.FSLITE, scale=0.1,
                   num_threads=8)
    cold, cold_machine = execute_spec_with_machine(spec)
    warm_spec = RunSpec(tag="BS", mode=ProtocolMode.FSLITE, scale=0.1,
                        num_threads=8, warmup=cold.cycles * 19 // 20)
    snap = build_warm_snapshot(warm_spec)
    restored_at = Machine.restore(snap).queue.executed
    warm, warm_machine = execute_spec_with_machine(warm_spec, warm=snap)
    assert warm.cycles == cold.cycles
    assert warm.stats.summary() == cold.stats.summary()
    forked_events = warm_machine.queue.executed - restored_at
    assert 0 < forked_events <= cold_machine.queue.executed // 10


def _trace_replay_spec(tmp_path, core_model):
    path = tmp_path / "fork.rtrace"
    synthesize_trace(SharingProfile(num_threads=4, ops_per_thread=400,
                                    seed=3), path)
    return trace_spec(path, mode=ProtocolMode.FSDETECT,
                      core_model=core_model)


@pytest.mark.parametrize("point", ["first-cycle", "mid-run",
                                   "first-exhausted"])
@pytest.mark.parametrize("core_model", ["inorder", "ooo"])
def test_trace_warm_fork_matches_cold(tmp_path, core_model, point):
    """Trace programs ignore their results, so their cores keep only an
    op count and a restore fast-forwards by it: a trace replay forked at
    its first cycle, mid-run, or once the first core's program is
    exhausted digests identically to the cold replay."""
    spec = _trace_replay_spec(tmp_path, core_model)
    cold, cold_machine = execute_spec_with_machine(spec)
    warmup = {
        "first-cycle": 1,
        "mid-run": cold.cycles // 2,
        "first-exhausted": 1 + min(core.finish_cycle
                                   for core in cold_machine.cores),
    }[point]
    warm_spec = dataclasses.replace(spec, warmup=warmup)
    snap = build_warm_snapshot(warm_spec)
    restored = Machine.restore(snap)
    assert not any(core.records_results for core in restored.cores)
    assert all(core.ops_executed > 0 for core in restored.cores)
    if point == "first-exhausted":
        done = [core.done for core in restored.cores]
        assert any(done) and not all(done)
    warm = execute_spec(warm_spec, warm=snap)
    assert record_stats_digest(warm) == record_stats_digest(cold)


def test_restore_rejects_result_reading_factory_for_count_only_cores(
        tmp_path):
    """A snapshot whose cores kept only an op count cannot rebind programs
    that read their results: the fast-forward would feed them ``None``
    and diverge silently, so restore refuses.  A factory that also
    ignores results restores fine."""
    spec = _trace_replay_spec(tmp_path, "inorder")
    snap = build_warm_snapshot(dataclasses.replace(spec, warmup=200))
    with pytest.raises(SnapshotError, match="op count"):
        restore_snapshot(snap, program_factory=_WorkloadPrograms(
            "RC", 4, SCALE, "packed", 0))
    machine = restore_snapshot(snap, program_factory=TracePrograms(
        spec.trace.path, spec.trace.digest, spec.num_threads))
    assert all(core.program is not None for core in machine.cores)


def test_engine_warm_disk_cache_hit_and_quarantine(tmp_path):
    spec = RunSpec(tag="RC", scale=SCALE)
    cold = execute_spec(spec)
    warm = RunSpec(tag="RC", scale=SCALE, warmup=cold.cycles // 2)

    first = Engine(cache_dir=tmp_path)
    first.run_many([warm])
    assert first.stats["warm_built"] == 1
    warm_files = list(tmp_path.glob("warm_*.pkl"))
    assert len(warm_files) == 1

    # Second engine: result-cache entries removed so it must re-run, but
    # the warm snapshot comes from disk.
    for p in tmp_path.glob("*.json"):
        p.unlink()
    second = Engine(cache_dir=tmp_path)
    records = second.run_many([warm])
    assert second.stats["warm_hits"] == 1
    assert second.stats["warm_built"] == 0
    assert records[0].cycles == cold.cycles

    # Corrupt snapshot: quarantined, rebuilt, run still correct.
    warm_files[0].write_bytes(b"not a pickle")
    for p in tmp_path.glob("*.json"):
        p.unlink()
    third = Engine(cache_dir=tmp_path)
    records = third.run_many([warm])
    assert third.stats["quarantined"] == 1
    assert third.stats["warm_built"] == 1
    assert records[0].cycles == cold.cycles
    assert (tmp_path / ".quarantine" / warm_files[0].name).exists()


def test_engine_warm_build_failure_falls_back_cold(monkeypatch):
    import repro.harness.engine as engine_mod

    def boom(spec):
        raise RuntimeError("no snapshot for you")

    monkeypatch.setattr(engine_mod, "build_warm_snapshot", boom)
    spec = RunSpec(tag="RC", scale=SCALE)
    cold = execute_spec(spec)
    engine = Engine()
    records = engine.run_many(
        [RunSpec(tag="RC", scale=SCALE, warmup=cold.cycles // 2)])
    assert engine.stats["warm_built"] == 0
    assert records[0].cycles == cold.cycles


def _sometimes_failing_executor(spec, warm=None):
    if spec.tag == "ww":
        raise RuntimeError("boom")
    return execute_spec(spec, warm=warm)


@pytest.mark.parametrize("jobs", [1, 2])
def test_partial_results_survive_batch_failure(tmp_path, jobs):
    """When one spec of a batch keeps failing, serially or in the pool,
    the specs that *did* complete land in ``EngineError.partial`` and in
    the persistent result cache — a crashed campaign resumes warm."""
    good1 = RunSpec(tag="RC", scale=SCALE)
    bad = RunSpec(tag="ww", scale=SCALE)
    good2 = RunSpec(tag="SC", scale=SCALE)
    engine = Engine(executor=_sometimes_failing_executor, jobs=jobs,
                    cache_dir=tmp_path)
    with pytest.raises(EngineError) as excinfo:
        engine.run_many([good1, bad, good2])
    err = excinfo.value
    assert err.spec == bad
    assert err.attempts == 2
    assert set(err.partial) == {good1, good2}
    cached_tags = sorted(json.loads(p.read_text())["record"]["tag"]
                         for p in tmp_path.glob("*.json"))
    assert cached_tags == ["RC", "SC"]
