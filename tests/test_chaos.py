"""Tests of the chaos campaign driver (:mod:`repro.faults.chaos`).

The headline guarantee mirrors the fuzzer's: a clean protocol survives a
fault campaign (and measurably degrades, proving the injection is real),
while a known protocol mutation is caught by the campaign's oracles and
rendered as a runnable pytest repro.  Shrinking over fired-fault scripts
reuses the fuzzer's generic ddmin.
"""

import random

import pytest

from repro.check.fuzz import CampaignResult, render_repro, shrink_schedule
from repro.coherence.states import ProtocolMode
from repro.faults import CHAOS_FAMILIES, FaultEvent, FaultPlan, family_plan
from repro.faults.chaos import chaos_campaign, chaos_config
from repro.faults.plan import render_plan


class TestCampaign:
    def test_clean_protocol_survives_and_degrades(self):
        result = chaos_campaign(iterations=6, seed=0,
                                modes=[ProtocolMode.FSLITE], length=50)
        assert result.ok, [f.failure.describe() for f in result.findings]
        assert len(result.cases) == 6
        fired = result.family_fired()
        assert all(fired[f] > 0 for f in CHAOS_FAMILIES), fired
        degraded = result.family_degraded()
        assert any(degraded.values()), \
            "no family measurably degraded any run"

    def test_campaign_is_deterministic(self):
        kw = dict(iterations=4, seed=9, modes=[ProtocolMode.FSLITE],
                  length=40)
        a = chaos_campaign(**kw)
        b = chaos_campaign(**kw)
        assert [c.case_seed for c in a.cases] == \
               [c.case_seed for c in b.cases]
        assert [c.report.delta() for c in a.cases] == \
               [c.report.delta() for c in b.cases]
        assert [c.report.faults_fired for c in a.cases] == \
               [c.report.faults_fired for c in b.cases]

    def test_families_and_modes_rotate(self):
        result = chaos_campaign(iterations=6, seed=1,
                                modes=[ProtocolMode.FSLITE,
                                       ProtocolMode.FSDETECT],
                                length=30)
        fams = [c.fault_family for c in result.cases]
        assert fams[:3] == list(CHAOS_FAMILIES)
        modes = [c.mode for c in result.cases]
        assert ProtocolMode.FSLITE in modes
        assert ProtocolMode.FSDETECT in modes

    def test_mutated_protocol_is_caught(self):
        """A protocol bug makes the campaign fail: the fault-free twin
        trips the oracles and the finding renders a runnable repro that
        carries the mutation."""
        result = chaos_campaign(iterations=3, seed=7,
                                modes=[ProtocolMode.FSLITE],
                                mutation="sam-drops-writes", shrink=False)
        assert not result.ok
        finding = result.findings[0]
        assert finding.plan is None  # twin failed: not a fault problem
        assert "mutation='sam-drops-writes'" in finding.repro_source
        compile(finding.repro_source, "<chaos-repro>", "exec")


class TestShrinking:
    def test_ddmin_over_fault_events(self):
        """The fuzzer's shrinker works verbatim over FaultEvent lists:
        a failure caused by one event shrinks to exactly that event."""
        culprit = FaultEvent("pam_clear", 3)
        events = ([FaultEvent("dup_md", i) for i in range(5)]
                  + [culprit]
                  + [FaultEvent("l1_evict", i) for i in range(5)])

        def still_fails(candidate):
            return culprit in candidate

        shrunk = shrink_schedule(events, still_fails, budget=200)
        assert shrunk == [culprit]

    def test_render_plan_roundtrips_scripts(self):
        plan = FaultPlan(seed=5, state_period=24,
                         script=(FaultEvent("sam_invalidate", 1),
                                 FaultEvent("llc_evict", 0)))
        source = render_plan(plan)
        namespace = {"FaultPlan": FaultPlan, "FaultEvent": FaultEvent}
        rebuilt = eval(source, namespace)  # noqa: S307 — our own rendering
        assert rebuilt == plan

    def test_render_plan_rate_mode(self):
        plan = family_plan("pressure", seed=2)
        source = render_plan(plan)
        namespace = {"FaultPlan": FaultPlan, "FaultEvent": FaultEvent}
        rebuilt = eval(source, namespace)  # noqa: S307
        assert rebuilt.l1_evict == plan.l1_evict
        assert rebuilt.state_period == plan.state_period

    def test_rendered_repro_is_valid_python(self):
        from repro.check.fuzz import FuzzOp, make_schedule
        schedule = make_schedule("disjoint", random.Random(3), length=10)
        plan = FaultPlan(script=(FaultEvent("dup_md", 0),))
        source = render_repro(
            "chaos", schedule, [ProtocolMode.FSLITE], None,
            "invariant/InvariantViolation", case_seed=1, plan=plan,
            shrunken_sam=True)
        assert "def test_chaos_repro_fslite_seed1" in source
        assert "shrunken_sam=True" in source
        compile(source, "<chaos-repro>", "exec")


class TestConfig:
    def test_shrunken_sam_config(self):
        base = chaos_config()
        tiny = chaos_config(shrunken_sam=True)
        assert tiny.protocol.sam_sets == 1
        assert tiny.protocol.sam_ways == 2
        assert base.protocol.sam_sets * base.protocol.sam_ways > 2
        assert tiny.l1 == base.l1  # only the SAM shrinks

    def test_result_family_maps_cover_all_families(self):
        result = CampaignResult(iterations=0)
        assert set(result.family_fired()) == set(CHAOS_FAMILIES)
        assert set(result.family_degraded()) == set(CHAOS_FAMILIES)


class TestCli:
    def test_chaos_verb_clean(self, capsys):
        from repro.cli import main
        argv = ["chaos", "--iterations", "3", "--protocol", "fslite",
                "--length", "30", "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sanitizer-clean" in out

    def test_chaos_verb_mutation_writes_repros(self, tmp_path, capsys):
        from repro.cli import main
        out_path = tmp_path / "chaos_repros.py"
        argv = ["chaos", "--iterations", "3", "--protocol", "fslite",
                "--length", "40", "--mutate", "sam-drops-writes",
                "--no-shrink", "--quiet", "--out", str(out_path)]
        assert main(argv) == 1
        assert out_path.exists()
        compile(out_path.read_text(), str(out_path), "exec")
        assert "failing case" in capsys.readouterr().out
