"""Tests of the harness: runner, baselines, tables, experiment drivers."""

import functools

import pytest

from repro.coherence.states import ProtocolMode
from repro.harness import experiments as E
from repro.harness.baselines import run_huron, run_manual_fix
from repro.harness.engine import Engine
from repro.harness.runner import RunRecord, run_workload
from repro.harness.tables import format_table, geomean

SCALE = 0.12


@functools.lru_cache(maxsize=None)
def fig13():
    """One ``fig13_miss_fraction`` run at :data:`SCALE`, shared by the
    tests that only read it."""
    return E.fig13_miss_fraction(scale=SCALE)


class TestGeomean:
    def test_simple(self):
        assert geomean([2, 8]) == pytest.approx(4.0)

    def test_identity(self):
        assert geomean([1, 1, 1]) == pytest.approx(1.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([0, 4]) == pytest.approx(4.0)


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 3.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.50" in out
        assert "3.25" in out


class TestRunner:
    def test_returns_record(self):
        rec = run_workload("ww", scale=SCALE)
        assert isinstance(rec, RunRecord)
        assert rec.cycles > 0
        assert rec.tag == "ww"

    def test_speedup_and_energy_helpers(self):
        base = run_workload("ww", scale=SCALE)
        fsl = run_workload("ww", ProtocolMode.FSLITE, scale=SCALE)
        assert fsl.speedup_over(base) > 1.0
        assert fsl.energy_vs(base) < 1.0

    def test_manual_fix_runs_padded(self):
        rec = run_manual_fix("ww", scale=SCALE)
        assert rec.layout == "padded"

    def test_huron_discount_applies_to_bs(self):
        rec = run_huron("BS", scale=SCALE)
        assert rec.extra.get("instruction_discount") == pytest.approx(0.87)

    def test_huron_partial_repair_rc(self):
        """Huron pads only one of RC's two falsely-shared arrays, so FSLite
        must beat it (the paper's Fig. 17 RC story)."""
        base = run_workload("RC", scale=0.5)
        hur = run_huron("RC", scale=0.5)
        fsl = run_workload("RC", ProtocolMode.FSLITE, scale=0.5)
        s_hur = base.cycles / hur.cycles
        s_fsl = base.cycles / fsl.cycles
        assert 1.0 < s_hur < s_fsl


class TestExperimentDrivers:
    """Smoke-level runs of each driver at tiny scale; the full-scale shape
    checks live in the benchmarks."""

    def test_fig02(self):
        r = E.fig02_manual_fix(scale=SCALE)
        assert r.rows[-1][0] == "geomean"
        assert r.summary["geomean"] > 1.0

    def test_fig13(self):
        r = fig13()
        assert 0 < r.summary["mean"] < 0.5
        assert len(r.rows) == 9

    def test_fig15(self):
        r = E.fig15_no_fs(scale=SCALE)
        assert r.summary["speedup_geomean"] == pytest.approx(1.0, abs=0.02)

    def test_table2(self):
        r = E.table2_overheads()
        assert r.summary["overhead_fraction"] < 0.05
        assert "PAM" in r.render()
        assert r.cycles is None and "cycles=" not in r.render()

    def test_reader_opt(self):
        r = E.reader_opt(scale=SCALE)
        assert r.summary["storage_saving"] == pytest.approx(0.25, abs=0.01)

    def test_render_contains_rows(self):
        r = fig13()
        text = r.render()
        assert "RC" in text and "mean" in text

    def test_render_ends_with_cycle_checksum(self, tmp_path):
        engine = Engine(cache_dir=tmp_path)
        r = E.fig13_miss_fraction(scale=SCALE, engine=engine)
        total = sum(rec.cycles for rec in engine.run_many(r.specs))
        assert r.cycles == total > 0
        assert r.render().splitlines()[-1] == f"cycles={total}"

    def test_column_accessor(self):
        r = fig13()
        assert r.column("app")[0] == "BS"

    def test_ablation_unknown_flag(self):
        with pytest.raises(ValueError):
            E.ablation("turbo", scale=SCALE)

    def test_ablation_hysteresis_runs(self):
        r = E.ablation("hysteresis", scale=SCALE, tags=["SF"])
        assert len(r.rows) == 2
