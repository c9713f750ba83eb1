"""Tests of the parallel cached experiment engine.

Covers the acceptance criteria of the engine PR: in-batch dedup, cache
hit/miss behaviour (including config-change invalidation and the
code-version stamp), cycle-for-cycle determinism of parallel vs serial
execution, worker-crash retry with a structured failure, digest stability
across processes, and a full-figure 100% cache-hit replay.
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.coherence.states import ProtocolMode
from repro.harness import experiments as E
from repro.harness.engine import (Engine, EngineError, code_version,
                                  source_fingerprint)
from repro.harness.export import records_from_json, records_to_json
from repro.harness.runner import RunRecord, RunSpec, execute_spec

from _helpers import (
    PID_DIR_ENV,
    POISON_SEED,
    RecordingExecutor,
    crashing_executor,
    dying_executor,
)

SCALE = 0.1


def _specs():
    return [
        RunSpec(tag="ww", scale=SCALE),
        RunSpec(tag="ww", mode=ProtocolMode.FSLITE, scale=SCALE),
        RunSpec(tag="rw", scale=SCALE),
    ]


class TestRunSpec:
    def test_equal_specs_hash_equal(self):
        assert RunSpec(tag="ww") == RunSpec(tag="ww")
        assert hash(RunSpec(tag="ww")) == hash(RunSpec(tag="ww"))

    def test_none_config_normalized(self):
        explicit = RunSpec(tag="ww")
        from repro.common.config import SystemConfig
        assert explicit.config == SystemConfig()
        assert explicit == RunSpec(tag="ww", config=SystemConfig())

    def test_digest_differs_on_any_field(self):
        base = RunSpec(tag="ww")
        assert base.digest() != RunSpec(tag="rw").digest()
        assert base.digest() != RunSpec(tag="ww", scale=0.5).digest()
        assert base.digest() != RunSpec(tag="ww", seed=1).digest()
        cfg = base.config.with_protocol(tau_p=32)
        assert base.digest() != RunSpec(tag="ww", config=cfg).digest()

    def test_dict_roundtrip(self):
        spec = RunSpec(tag="ww", mode=ProtocolMode.FSLITE, scale=0.3,
                       seed=7, core_model="ooo")
        again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.digest() == spec.digest()

    def test_digest_stable_across_processes(self):
        """sha256-based digests must not depend on Python's hash salt."""
        spec = RunSpec(tag="ww", mode=ProtocolMode.FSLITE, scale=0.25)
        code = ("from repro.harness.runner import RunSpec; "
                "from repro.coherence.states import ProtocolMode; "
                "print(RunSpec(tag='ww', mode=ProtocolMode.FSLITE, "
                "scale=0.25).digest())")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ))
        assert out.stdout.strip() == spec.digest()


class TestDedup:
    def test_duplicates_simulate_once(self):
        executor = RecordingExecutor()
        engine = Engine(executor=executor)
        spec = RunSpec(tag="ww", scale=SCALE)
        records = engine.run_many([spec, spec, spec])
        assert len(executor.calls) == 1
        assert engine.stats["deduped"] == 2
        assert engine.stats["executed"] == 1
        assert records[0] is records[1] is records[2]

    def test_order_preserved_with_mixed_duplicates(self):
        engine = Engine()
        a = RunSpec(tag="ww", scale=SCALE)
        b = RunSpec(tag="rw", scale=SCALE)
        records = engine.run_many([a, b, a])
        assert [r.tag for r in records] == ["ww", "rw", "ww"]
        assert records[0].cycles == records[2].cycles


class TestCache:
    def test_hit_after_miss(self, tmp_path):
        spec = RunSpec(tag="ww", scale=SCALE)
        first = Engine(cache_dir=tmp_path)
        rec1 = first.run_one(spec)
        assert first.stats == {"executed": 1, "cache_hits": 0,
                               "deduped": 0, "retries": 0,
                               "quarantined": 0}
        second = Engine(cache_dir=tmp_path)
        rec2 = second.run_one(spec)
        assert second.stats["cache_hits"] == 1
        assert second.stats["executed"] == 0
        assert rec2.cycles == rec1.cycles
        assert rec2.stats.summary() == rec1.stats.summary()
        assert rec2.spec == spec

    def test_config_change_misses(self, tmp_path):
        spec = RunSpec(tag="ww", scale=SCALE)
        engine = Engine(cache_dir=tmp_path)
        engine.run_one(spec)
        changed = RunSpec(tag="ww", scale=SCALE,
                          config=spec.config.with_protocol(tau_p=32))
        engine.run_one(changed)
        assert engine.stats["executed"] == 2
        assert engine.stats["cache_hits"] == 0

    def test_code_version_invalidates(self, tmp_path):
        spec = RunSpec(tag="ww", scale=SCALE)
        Engine(cache_dir=tmp_path).run_one(spec)
        path = tmp_path / f"{spec.digest()}.json"
        stale = json.loads(path.read_text())
        stale["code_version"] = f"{code_version()}-stale"
        path.write_text(json.dumps(stale))
        engine = Engine(cache_dir=tmp_path)
        engine.run_one(spec)
        assert engine.stats["executed"] == 1  # stale entry re-simulated
        assert json.loads(path.read_text())["code_version"] == code_version()

    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path,
                                                         caplog):
        spec = RunSpec(tag="ww", scale=SCALE)
        Engine(cache_dir=tmp_path).run_one(spec)
        (tmp_path / f"{spec.digest()}.json").write_text("{not json")
        engine = Engine(cache_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro.harness.engine"):
            rec = engine.run_one(spec)
        assert engine.stats["executed"] == 1
        assert engine.stats["quarantined"] == 1
        assert rec.cycles > 0
        # The bad bytes moved to the sidecar, and the entry was rewritten.
        sidecar = tmp_path / ".quarantine" / f"{spec.digest()}.json"
        assert sidecar.read_text() == "{not json"
        assert "quarantined" in caplog.text
        fresh = Engine(cache_dir=tmp_path)
        assert fresh.run_one(spec).cycles == rec.cycles
        assert fresh.stats["cache_hits"] == 1

    def test_undecodable_record_is_quarantined(self, tmp_path):
        spec = RunSpec(tag="ww", scale=SCALE)
        Engine(cache_dir=tmp_path).run_one(spec)
        path = tmp_path / f"{spec.digest()}.json"
        bad = json.loads(path.read_text())
        bad["record"] = {"bogus": True}
        path.write_text(json.dumps(bad))
        engine = Engine(cache_dir=tmp_path)
        engine.run_one(spec)
        assert engine.stats["executed"] == 1
        assert engine.stats["quarantined"] == 1
        assert (tmp_path / ".quarantine" / path.name).exists()

    def test_stale_version_is_not_quarantined(self, tmp_path):
        # A stale-but-well-formed entry is ordinary invalidation, not
        # corruption: no warning, no sidecar, just a re-simulation.
        spec = RunSpec(tag="ww", scale=SCALE)
        Engine(cache_dir=tmp_path).run_one(spec)
        path = tmp_path / f"{spec.digest()}.json"
        stale = json.loads(path.read_text())
        stale["code_version"] = f"{code_version()}-stale"
        path.write_text(json.dumps(stale))
        engine = Engine(cache_dir=tmp_path)
        engine.run_one(spec)
        assert engine.stats["quarantined"] == 0
        assert not (tmp_path / ".quarantine").exists()

    def test_unusable_cache_dir_is_a_clean_error(self, tmp_path):
        from repro.common.errors import ReproError
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("file, not a directory")
        engine = Engine(cache_dir=not_a_dir)
        with pytest.raises(ReproError, match="unusable"):
            engine.run_one(RunSpec(tag="ww", scale=SCALE))

    def test_no_cache_dir_never_writes(self, tmp_path):
        engine = Engine()
        engine.run_one(RunSpec(tag="ww", scale=SCALE))
        engine.run_one(RunSpec(tag="ww", scale=SCALE))
        assert engine.stats["cache_hits"] == 0
        assert engine.stats["executed"] == 2


class TestParallel:
    def test_parallel_matches_serial_exactly(self):
        specs = _specs()
        serial = Engine(jobs=1).run_many(specs)
        parallel = Engine(jobs=2).run_many(specs)
        for s_rec, p_rec in zip(serial, parallel):
            assert p_rec.cycles == s_rec.cycles
            assert p_rec.stats.summary() == s_rec.stats.summary()
            assert p_rec.stats.per_core == s_rec.stats.per_core
            assert p_rec.stats.network == s_rec.stats.network

    def test_parallel_fills_cache(self, tmp_path):
        specs = _specs()
        first = Engine(jobs=2, cache_dir=tmp_path)
        first.run_many(specs)
        assert first.stats["executed"] == len(specs)
        second = Engine(jobs=2, cache_dir=tmp_path)
        second.run_many(specs)
        assert second.stats["cache_hits"] == len(specs)
        assert second.stats["executed"] == 0

    def test_parallel_failure_surfaces_engine_error(self):
        bad = RunSpec(tag="ww", scale=SCALE, seed=POISON_SEED)
        engine = Engine(jobs=2, executor=crashing_executor)
        with pytest.raises(EngineError) as info:
            engine.run_many([bad, RunSpec(tag="ww", scale=SCALE)])
        assert info.value.spec == bad
        assert info.value.attempts == 2
        assert bad.digest() in str(info.value)

    def test_dead_worker_is_retried_in_parent(self):
        """A pool worker that dies outright (no exception, no result)
        breaks the pool; every spec the pool still owed is retried in the
        parent and the batch completes with the records a serial run
        produces."""
        specs = [RunSpec(tag="ww", scale=SCALE, seed=POISON_SEED),
                 RunSpec(tag="ww", scale=SCALE),
                 RunSpec(tag="rw", scale=SCALE)]
        serial = Engine(jobs=1).run_many(specs)
        engine = Engine(jobs=2, executor=dying_executor)
        parallel = engine.run_many(specs)
        assert engine.stats["retries"] >= 1
        assert engine.stats["executed"] == len(specs)
        for s_rec, p_rec in zip(serial, parallel):
            assert p_rec.cycles == s_rec.cycles
            assert p_rec.stats.summary() == s_rec.stats.summary()


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    if not os.path.isdir("/proc"):
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


#: A driver that runs two specs on a two-worker pool whose executor
#: records each worker's pid and then sleeps.
_ORPHAN_DRIVER = """
import sys
sys.path[:0] = {paths!r}
from _helpers import sleeping_executor
from repro.harness.engine import Engine
from repro.harness.runner import RunSpec
Engine(jobs=2, executor=sleeping_executor).run_many(
    [RunSpec(tag="ww", seed=1), RunSpec(tag="ww", seed=2)])
"""


class TestOrphanedWorkers:
    def test_workers_exit_when_the_engine_is_killed(self, tmp_path):
        """SIGKILL the process running an engine with two busy pool
        workers: both workers exit within seconds instead of running on
        as orphans."""
        import repro

        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        paths = [str(pathlib.Path(__file__).parent),
                 str(pathlib.Path(repro.__file__).parents[1])]
        driver = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_DRIVER.format(paths=paths)],
            env=dict(os.environ, **{PID_DIR_ENV: str(pid_dir)}))
        pids: list = []
        try:
            deadline = time.monotonic() + 120
            while len(pids) < 2:
                assert driver.poll() is None, "driver exited early"
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.1)
                pids = [int(p.name) for p in pid_dir.iterdir()
                        if p.name.isdigit()]
            driver.kill()
            driver.wait()
            deadline = time.monotonic() + 5
            while any(_running(pid) for pid in pids) and \
                    time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            if driver.poll() is None:
                driver.kill()
                driver.wait()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestRetry:
    def test_crash_retried_once_then_succeeds(self):
        flaky = RecordingExecutor(fail_first=True)
        engine = Engine(executor=flaky)
        record = engine.run_one(RunSpec(tag="ww", scale=SCALE))
        assert len(flaky.calls) == 2
        assert engine.stats["retries"] == 1
        assert record.cycles > 0

    def test_persistent_failure_is_structured(self):
        spec = RunSpec(tag="ww", scale=SCALE)
        engine = Engine(executor=RecordingExecutor(always_fail=True))
        with pytest.raises(EngineError) as info:
            engine.run_one(spec)
        err = info.value
        assert err.spec == spec
        assert err.attempts == 2
        assert isinstance(err.cause, RuntimeError)
        assert engine.stats["retries"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partial_results_survive_batch_failure(self, tmp_path, jobs):
        """When one spec of a batch keeps failing, serially or in the pool,
        the specs that *did* complete land in ``EngineError.partial`` and
        in the persistent result cache — a crashed campaign resumes from
        the cache."""
        good1 = RunSpec(tag="RC", scale=SCALE)
        bad = RunSpec(tag="ww", scale=SCALE, seed=POISON_SEED)
        good2 = RunSpec(tag="SC", scale=SCALE)
        engine = Engine(executor=crashing_executor, jobs=jobs,
                        cache_dir=tmp_path)
        with pytest.raises(EngineError) as info:
            engine.run_many([good1, bad, good2])
        err = info.value
        assert err.spec == bad
        assert err.attempts == 2
        assert set(err.partial) == {good1, good2}
        cached_tags = sorted(json.loads(p.read_text())["record"]["tag"]
                             for p in tmp_path.glob("*.json"))
        assert cached_tags == ["RC", "SC"]


class TestValidation:
    def test_bad_layout_fails_at_construction(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError, match="layout"):
            RunSpec(tag="ww", layout="interleaved")

    def test_bad_core_model_fails_at_construction(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError, match="core_model"):
            RunSpec(tag="ww", core_model="no-such-core")

    def test_thread_count_checked_against_config(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError, match="num_threads"):
            RunSpec(tag="ww", num_threads=99)
        with pytest.raises(ConfigError, match="num_threads"):
            RunSpec(tag="ww", num_threads=0)

    def test_scale_and_window_checked(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError, match="scale"):
            RunSpec(tag="ww", scale=0)
        with pytest.raises(ConfigError, match="ooo_window"):
            RunSpec(tag="ww", core_model="ooo", ooo_window=0)

    def test_empty_tag_rejected(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError, match="tag"):
            RunSpec(tag="")

    def test_unreachable_r2_threshold_rejected(self):
        from repro.common.config import SystemConfig
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError, match="tau_r2"):
            SystemConfig().with_protocol(tau_r2=500, counter_max=127)


class TestProgress:
    def test_callback_sees_runs_and_cache_hits(self, tmp_path):
        events = []

        def progress(done, total, spec, seconds, source):
            events.append((done, total, spec.tag, source))

        spec = RunSpec(tag="ww", scale=SCALE)
        Engine(cache_dir=tmp_path, progress=progress).run_one(spec)
        Engine(cache_dir=tmp_path, progress=progress).run_one(spec)
        assert events == [(1, 1, "ww", "run"), (1, 1, "ww", "cache")]

    def test_timings_recorded(self):
        engine = Engine()
        spec = RunSpec(tag="ww", scale=SCALE)
        engine.run_one(spec)
        assert engine.timings[spec.digest()] > 0


class TestJsonRoundTrip:
    def test_record_roundtrips_with_spec(self):
        spec = RunSpec(tag="ww", mode=ProtocolMode.FSDETECT, scale=0.3)
        record = execute_spec(spec)
        (again,) = records_from_json(records_to_json([record]))
        assert isinstance(again, RunRecord)
        assert again.spec == spec
        assert again.cycles == record.cycles
        assert again.stats.summary() == record.stats.summary()
        # Reports survive as real dataclasses, not strings.
        assert len(again.stats.reports) == len(record.stats.reports)
        for orig, back in zip(record.stats.reports, again.stats.reports):
            assert back == orig

    def test_json_file_written(self, tmp_path):
        record = execute_spec(RunSpec(tag="ww", scale=SCALE))
        path = tmp_path / "records.json"
        records_to_json([record], str(path))
        assert records_from_json(path.read_text())[0].cycles == record.cycles


class TestExperimentCaching:
    def test_fig14_replay_hits_cache_for_every_spec(self, tmp_path):
        """Acceptance: a repeated fig14 run is served 100% from cache."""
        first = Engine(cache_dir=tmp_path)
        r1 = E.fig14_speedup_energy(scale=SCALE, engine=first)
        assert first.stats["executed"] > 0
        second = Engine(cache_dir=tmp_path)
        r2 = E.fig14_speedup_energy(scale=SCALE, engine=second)
        assert second.stats["executed"] == 0
        assert second.stats["cache_hits"] == len(set(r2.specs))
        assert r2.rows == r1.rows
        assert r2.summary == r1.summary

    def test_experiment_carries_specs(self):
        result = E.fig13_miss_fraction(scale=SCALE)
        assert len(result.specs) == 8
        assert all(isinstance(s, RunSpec) for s in result.specs)

    def test_drivers_share_baselines_via_cache(self, tmp_path):
        """fig13's MESI baselines are exactly fig02's — the cache dedups
        across figures, which is the engine's reason to exist."""
        engine = Engine(cache_dir=tmp_path)
        E.fig13_miss_fraction(scale=SCALE, engine=engine)
        executed_before = engine.stats["executed"]
        E.fig02_manual_fix(scale=SCALE, engine=engine)
        # fig02 adds only the 8 padded runs; its 8 baselines are cache hits.
        assert engine.stats["executed"] == executed_before + 8
        assert engine.stats["cache_hits"] == 8


class TestCliEngineFlags:
    def test_run_no_cache(self, capsys):
        from repro.cli import main
        assert main(["run", "ww", "--scale", "0.1", "--no-cache"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_experiment_cache_dir_and_progress(self, tmp_path, capsys):
        from repro.cli import main
        cache = str(tmp_path / "cache")
        argv = ["experiment", "fig13", "--scale", "0.1",
                "--cache-dir", cache, "--progress"]
        assert main(argv) == 0
        first_err = capsys.readouterr().err
        assert "[8/8]" in first_err
        assert main(argv) == 0
        second_err = capsys.readouterr().err
        assert second_err.count("(cached)") == 8

    def test_compare_batches_through_engine(self, capsys):
        from repro.cli import main
        assert main(["compare", "ww", "--scale", "0.1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fslite" in out and "manual-fix" in out


class TestCodeVersion:
    """The cache stamp is a fingerprint of the behaviour packages' source,
    so an edit that forgets to announce itself still invalidates every
    cached result."""

    @staticmethod
    def _copy_package(tmp_path):
        import repro

        root = tmp_path / "repro"
        shutil.copytree(os.path.dirname(repro.__file__), root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    def test_code_version_is_this_source_fingerprint(self):
        import pathlib

        import repro

        version = code_version()
        assert version == source_fingerprint(
            pathlib.Path(repro.__file__).resolve().parent)
        assert len(version) == 64
        assert code_version() is version  # computed once per process

    @pytest.mark.parametrize("module", [
        "coherence/l1_controller.py", "cpu/ops.py", "common/events.py",
        "workloads/trace.py", "system/builder.py",
        # Not simulated behaviour, but each writes part of a cached
        # record: stats.energy, extra["obs"], the sanitizer's extras, and
        # the record itself.
        "energy/model.py", "obs/episodes.py", "check/sanitizer.py",
        "harness/runner.py"])
    def test_editing_a_behaviour_module_changes_the_key(self, tmp_path,
                                                        module):
        root = self._copy_package(tmp_path)
        before = source_fingerprint(root)
        with open(root / module, "a") as fh:
            fh.write("\n# edited\n")
        assert source_fingerprint(root) != before

    def test_adding_a_behaviour_module_changes_the_key(self, tmp_path):
        root = self._copy_package(tmp_path)
        before = source_fingerprint(root)
        (root / "core" / "extra.py").write_text("X = 1\n")
        assert source_fingerprint(root) != before

    def test_editing_a_non_behaviour_module_keeps_the_key(self, tmp_path):
        root = self._copy_package(tmp_path)
        before = source_fingerprint(root)
        with open(root / "cli.py", "a") as fh:
            fh.write("\n# edited\n")
        assert source_fingerprint(root) == before


class TestCacheCompatibility:
    """Cached entries stamped by older code are invalidated (re-simulated),
    but the *results* they held are still reproduced bit-for-bit by the
    new code."""

    FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "data",
                               "engine_cache")
    FIXTURE_SPEC = RunSpec(tag="ww", mode=ProtocolMode.FSLITE, scale=0.5)

    def test_spec_digest_unchanged_without_obs(self):
        # The obs field is only serialized when set, so every pre-existing
        # spec digest — cache filenames, the golden cycle-identity table —
        # is still addressed identically.
        fixture = os.path.join(self.FIXTURE_DIR,
                               self.FIXTURE_SPEC.digest() + ".json")
        assert os.path.exists(fixture), \
            "cache fixture missing: spec digest drifted"

    def test_prechange_cache_entry_is_stale_and_rewritten(self, tmp_path):
        fixture = os.path.join(self.FIXTURE_DIR,
                               self.FIXTURE_SPEC.digest() + ".json")
        cache = tmp_path / "cache"
        cache.mkdir()
        shutil.copy(fixture, cache)
        engine = Engine(cache_dir=cache)
        engine.run_one(self.FIXTURE_SPEC)
        assert engine.stats["cache_hits"] == 0, \
            "a version-2 entry must not replay under the source fingerprint"
        assert engine.stats["executed"] == 1
        with open(cache / (self.FIXTURE_SPEC.digest() + ".json")) as fh:
            assert json.load(fh)["code_version"] == code_version()

    def test_prechange_record_matches_fresh_run(self):
        # Behaviour preservation: the version-2 fixture's stats are exactly
        # what the observability-era code computes for the same spec.
        from repro.harness.export import record_from_dict, record_stats_digest

        fixture = os.path.join(self.FIXTURE_DIR,
                               self.FIXTURE_SPEC.digest() + ".json")
        with open(fixture) as fh:
            cached = record_from_dict(json.load(fh)["record"])
        fresh = execute_spec(self.FIXTURE_SPEC)
        assert cached.cycles == fresh.cycles
        assert record_stats_digest(cached) == record_stats_digest(fresh)
