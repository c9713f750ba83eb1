"""Self-test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload at ``--quick`` size, traced and untraced, and checks
the instrumentation in-process: wrappers never change what is simulated,
self times close against the root span, and every wrapper is removed
afterwards without ever touching ``PamTable.record_access``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def _run(tmp_path, workload: str, trace: int) -> tuple:
    out = tmp_path / "runs.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, json.loads(out.read_text())["runs"][-1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    result, record = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace:
        metrics = record["metrics"]
        assert metrics["trace.overhead_x"]["value"] > 1.0
        assert metrics["builder.machines"]["value"] >= 1
        # Every reported time is measured work on every workload, never a
        # constant zero.
        for name, m in metrics.items():
            if m["unit"] in ("s", "us"):
                assert m["value"] > 0, name
    else:
        for name in ("round_s", "sim_ops_per_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_every_span_is_in_one_reported_group():
    assert len(set(layers.LAYERS)) == len(layers.LAYERS)
    with layers.Instruments(traced=True) as inst:
        assert inst.tracer.names == list(layers.LAYERS)
    assert [f"{group}.self_s" for group in layers.GROUPS] == \
        [m["name"] for m in SPEC["per_layer"]][:len(layers.GROUPS)]


def _round(workload, traced: bool):
    """One round under the benchmark's instruments, timed from outside."""
    with layers.Instruments(traced=traced) as inst:
        run_round = workload.run_round
        if traced:
            run_round = inst.tracer.wrap(layers.ROOT, run_round)
        start = time.perf_counter()
        rnd = run_round()
        seconds = time.perf_counter() - start
    return rnd, seconds, inst


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_nothing_and_closes(tmp_path, name):
    workload = workloads.WORKLOADS[name](0, True, tmp_path)
    plain, _, plain_inst = _round(workload, traced=False)
    traced, seconds, inst = _round(workload, traced=True)
    assert traced.failed == plain.failed == 0
    assert traced.digest == plain.digest
    assert traced.summary == plain.summary
    assert inst.work.snapshot()["cpu.ops"] == \
        plain_inst.work.snapshot()["cpu.ops"] > 0
    tracer = inst.tracer
    self_s, wrapper_s = tracer.self_seconds()
    root_s = tracer.root_ns / 1e9
    assert sum(self_s.values()) + wrapper_s == pytest.approx(root_s,
                                                             rel=1e-9)
    assert root_s == pytest.approx(seconds, rel=0.02)
    assert all(seconds >= 0 for seconds in self_s.values())
    assert tracer.spans and all(span[4] == 0 or span[4] < span[3]
                                for span in tracer.spans)


def test_sampler_samples_inside_the_block_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        seconds = time.perf_counter() - start
    assert len(host.samples) >= 3
    assert 0 < host.spent < 0.5 * seconds
    assert host.speed > 0
    assert host.to_reference(seconds) == pytest.approx(
        (seconds - host.spent) * host.speed)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # A block shorter than one interval still gets a sample.
    with hostspeed.Sampler() as host:
        pass
    assert len(host.samples) == 1 and host.spent == 0.0


def test_wrappers_are_removed_and_pam_is_never_touched():
    from repro.coherence import l1_controller
    from repro.core.pam import PamTable

    pam_before = dict(vars(PamTable))
    inst = layers.Instruments(traced=True)
    with inst:
        patched = inst.patched
        assert PamTable.record_access is l1_controller._PAM_RECORD_PRISTINE
        assert dict(vars(PamTable)) == pam_before
        assert all(owner is not PamTable for owner, _, _ in patched)
        owners = {getattr(owner, "__name__", "") for owner, _, _ in patched}
        for expected in ("L1Controller", "EventQueue", "DirectorySlice",
                         "Network", "CacheArray", "SamEntry", "Simulator",
                         "repro.harness.runner", "repro.check.diff"):
            assert expected in owners
        assert all(getattr(owner, name) is not original
                   for owner, name, original in patched)
    assert inst.patched == []
    for owner, name, original in patched:
        assert getattr(owner, name) is original, (owner, name)
    assert dict(vars(PamTable)) == pam_before


def test_fig14_workload_is_the_figure_driver(tmp_path):
    """At seed 0 the fig14 workload submits exactly the specs of
    ``fig14_speedup_energy`` and reproduces its summary."""
    from repro.harness.experiments import fig14_speedup_energy

    workload = workloads.Fig14(0, True, tmp_path)
    scale = next(iter(workload.specs.values())).scale
    figure = fig14_speedup_energy(scale=scale)
    assert set(figure.specs) == set(workload.specs.values())
    summary = workload.run_round().summary
    assert summary["fslite_geomean"] == round(
        figure.summary["fslite_geomean"], 3)
    assert summary["fslite_energy_geomean"] == round(
        figure.summary["fslite_energy_geomean"], 3)


def test_campaign_seeds_skip_the_failing_ones(tmp_path):
    """Every benchmark seed maps to a campaign seed outside the known
    failures; seeds 0-13 keep their own campaign seed."""
    campaign = workloads.Campaign
    assert len(campaign.SEEDS) == 60 - len(workloads.CAMPAIGN_FAILING_SEEDS)
    picked = {campaign(seed, True, tmp_path).campaign_seed
              for seed in range(200)}
    assert picked == set(campaign.SEEDS)
    assert [campaign(seed, True, tmp_path).campaign_seed
            for seed in range(14)] == list(range(14))


def test_bare_checkout_fails_without_a_result(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files there is no
    program to measure: exit nonzero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig14",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("head, failed, expected", [
    ([10.0 + 0.1 * (i % 3) for i in range(10)], 0, "no change"),
    ([12.0 + 0.1 * (i % 3) for i in range(10)], 0, "REGRESSION"),
    ([9.0 + 0.1 * (i % 3) for i in range(10)], 0, "win"),
    # Faster, but an operation failed its check: no win, no "no change".
    ([9.0 + 0.1 * (i % 3) for i in range(10)], 1, "FAILED"),
    ([10.0 + 0.1 * (i % 3) for i in range(10)], 2, "FAILED"),
])
def test_compare_applies_the_bounds(head, failed, expected):
    base = [10.0 + 0.1 * (i % 3) for i in range(10)]
    assert compare.verdict(base, head, "lower", 0.05,
                           failed)["verdict"] == expected


def test_compare_fails_on_failed_runs(tmp_path, capsys):
    def runs(seconds: float, failed_seed: int = -1) -> pathlib.Path:
        path = tmp_path / f"runs-{seconds}-{failed_seed}.json"
        path.write_text(json.dumps({"runs": [{
            "workload": "fig14", "seed": seed, "trace": 0,
            "correct": seed != failed_seed,
            "failed": int(seed == failed_seed),
            "metrics": {m["name"]: {"value": seconds + 0.01 * (seed % 3)}
                        for m in SPEC["end_to_end"]},
        } for seed in range(1, 11)]}))
        return path

    base = runs(10.0)
    assert compare.main(["--base", str(base), "--head",
                         str(runs(10.0))]) == 0
    assert compare.main(["--base", str(base), "--head",
                         str(runs(9.0, failed_seed=4))]) == 1
    rows = capsys.readouterr().out.splitlines()[-len(SPEC["end_to_end"]):]
    assert all(" FAILED (1 failed operations)" in row for row in rows)


def test_compare_reports_wide_spread_as_unresolved():
    base = [10.0, 14.0] * 5
    head = [9.5, 13.0] * 5
    assert compare.verdict(base, head, "lower", 0.05)["verdict"] == \
        "unresolved"
    assert compare.verdict(base[:6], head[:6], "lower", 0.05)["verdict"] \
        == "too few pairs"
