"""Tests for the differential conformance harness (repro.check.diff).

The load-bearing half is the mutation-escape suite: each of the five
seeded protocol bugs in :mod:`repro.check.mutations` must be caught by the
differential oracle ALONE — sanitizer off, no in-program load assertions —
and ddmin-shrunk to at most 10 ops.  That is the evidence the oracle can
judge arbitrary schedules, not just ones with baked-in expectations.
"""

import random

import pytest

from repro.check.diff import (
    MUTATION_PROBES,
    counter_probe_config,
    counter_probe_schedule,
    diff_campaign,
    diff_workload,
    differential_check,
    hunt_mutation_escape,
    render_diff_repro,
    run_differential,
)
from repro.check.fuzz import FAMILIES, FuzzOp, fuzz_config, make_schedule
from repro.check.mutations import MUTATIONS
from repro.check.refmodel import run_reference
from repro.coherence.states import ProtocolMode
from repro.harness.runner import RunSpec


# ------------------------------------------------------------ clean runs


@pytest.mark.parametrize("family", FAMILIES)
def test_clean_schedules_have_no_divergence(family):
    schedule = make_schedule(family, random.Random(7), length=50)
    report = run_differential(schedule)
    assert report.ok, report.describe()
    assert report.modes_run == list(ProtocolMode)
    assert report.blocks_compared > 0


def _detailed_machine(schedule, mode, config, sanitize):
    """A finished detailed run of ``schedule`` with assertion-free
    programs (the sanitizer, when attached, must stay clean)."""
    from repro.check.fuzz import _schedule_program, _translate
    from repro.check.sanitizer import Sanitizer
    from repro.system.builder import build_machine
    from repro.system.simulator import Simulator

    machine = build_machine(config, mode)
    per_thread, _ = _translate(schedule, 4, config, check_loads=False)
    machine.attach_programs(
        programs=[_schedule_program(items) for items in per_thread])
    sanitizer = Sanitizer(machine).attach() if sanitize else None
    Simulator(machine).run()
    if sanitizer is not None:
        sanitizer.check_all()
        sanitizer.detach()
    return machine


def test_differential_check_post_run():
    """differential_check layers onto an existing detailed run."""
    schedule = make_schedule("mixed", random.Random(3), length=40)
    config = fuzz_config(4)
    machine = _detailed_machine(schedule, ProtocolMode.FSLITE, config,
                                sanitize=True)
    ref = run_reference(schedule, 4, config)
    report = differential_check(machine, ref)
    assert report.ok, report.describe()


def test_memory_divergence_is_reported():
    """Corrupting one byte of the detailed machine's result must produce a
    memory divergence (the comparison is not vacuous)."""
    from repro.system.simulator import flush_machine_memory

    schedule = [FuzzOp(0, "store", line=0, offset=0, size=8, value=0x42)]
    config = fuzz_config(4)
    machine = _detailed_machine(schedule, ProtocolMode.MESI, config,
                                sanitize=False)
    ref = run_reference(schedule, 4, config)
    image = dict(flush_machine_memory(machine))
    base = 0x40000
    data = bytearray(image[base])
    data[0] ^= 0xFF
    image[base] = bytes(data)
    report = differential_check(machine, ref, image=image)
    assert not report.ok
    assert report.divergences[0].kind == "memory"
    assert report.divergences[0].block == base


def test_cross_mode_comparison_covers_all_modes():
    schedule = make_schedule("disjoint", random.Random(11), length=30)
    report = run_differential(
        schedule, modes=[ProtocolMode.MESI, ProtocolMode.FSLITE])
    assert report.ok, report.describe()
    assert report.modes_run == [ProtocolMode.MESI, ProtocolMode.FSLITE]


# ------------------------------------------------------ mutation escapes


def test_probe_table_covers_all_mutations():
    assert set(MUTATION_PROBES) | {"counters-never-saturate"} == set(MUTATIONS)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_caught_by_differential_oracle_alone(mutation):
    """Satellite: every seeded protocol bug is caught by the differential
    comparison with the sanitizer disabled and no load assertions, and the
    diverging schedule shrinks to <= 10 ops."""
    escape = hunt_mutation_escape(mutation)
    assert escape.caught, (
        f"{mutation} escaped after {escape.attempts} attempt(s)")
    assert len(escape.shrunk) <= 10, (
        f"{mutation} repro is {len(escape.shrunk)} ops: {escape.shrunk}")
    assert escape.detail
    # The shrunk schedule still diverges when replayed from scratch.
    config = (counter_probe_config()
              if mutation == "counters-never-saturate" else None)
    threads = 1 if mutation == "counters-never-saturate" else 4
    replay = run_differential(
        escape.shrunk, modes=[escape.mode], num_threads=threads,
        config=config, mutation=mutation)
    assert not replay.ok


def test_counter_probe_is_clean_without_mutation():
    """The tailored counter probe must NOT flag the unmutated protocol:
    saturate-reset keeps FC within bounds."""
    report = run_differential(
        counter_probe_schedule(), modes=[ProtocolMode.FSDETECT],
        num_threads=1, config=counter_probe_config())
    assert report.ok, report.describe()


# --------------------------------------------------------------- campaign


def test_diff_campaign_clean_and_deterministic():
    first = diff_campaign(iterations=4, seed=5, length=40)
    second = diff_campaign(iterations=4, seed=5, length=40)
    assert first.ok
    assert first.blocks_compared == second.blocks_compared > 0


def test_diff_campaign_finds_and_shrinks_mutation():
    result = diff_campaign(iterations=2, seed=0, length=60,
                           families=["disjoint"],
                           modes=[ProtocolMode.FSLITE],
                           mutation="sam-drops-writes")
    assert not result.ok
    finding = result.findings[0]
    assert len(finding.shrunk) <= len(finding.schedule)
    assert "run_differential" in finding.repro_source
    assert "sam-drops-writes" in finding.repro_source


def test_render_diff_repro_is_valid_python():
    schedule = [FuzzOp(0, "store", line=0, offset=0, size=8, value=1)]
    source = render_diff_repro(schedule, [ProtocolMode.MESI], None,
                               "memory: test", case_seed=1)
    compile(source, "<repro>", "exec")


# -------------------------------------------------------- chaos + harness


def test_chaos_differential_clean():
    from repro.faults.chaos import chaos_campaign

    result = chaos_campaign(iterations=3, seed=2, differential=True)
    assert result.ok, [f.failure.describe() for f in result.findings]


def test_chaos_differential_catches_mutation():
    """The differential stage catches what the chaos driver's other
    oracles cannot: a metadata-only corruption (bogus PAM write bits)
    leaves every loaded and final value intact, so only the reference
    model's ground-truth subset check fails — with sanitizer off and
    verdict/counter checks disabled."""
    from repro.faults.chaos import run_chaos_case

    schedule = [FuzzOp(0, "load", line=0, offset=0, size=8)]
    report = run_chaos_case(schedule, mode=ProtocolMode.FSDETECT,
                            sanitize=False,
                            mutation="pam-reads-count-as-writes",
                            differential=True)
    assert not report.ok
    assert report.failure.stage == "differential"
    assert report.failure.kind == "pam"


@pytest.mark.parametrize("mode", list(ProtocolMode))
def test_diff_workload_microbenchmark(mode):
    report = diff_workload(RunSpec(tag="ww", mode=mode, scale=0.2))
    assert report.ok, report.describe()


def test_diff_workload_true_sharing():
    """A truly-shared fetch-add workload: the atomic reference's sum must
    satisfy the workload's own verify, even though every granule races."""
    report = diff_workload(RunSpec(tag="FA", mode=ProtocolMode.FSLITE,
                                   scale=0.2))
    assert report.ok, report.describe()
