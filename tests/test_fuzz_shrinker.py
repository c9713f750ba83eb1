"""Tests for the random protocol tester and its delta-debugging shrinker.

The headline guarantee: inject a known protocol mutation, and the fuzzer
(a) detects it, (b) shrinks the failing schedule to a handful of ops, and
(c) renders a pytest repro that fails while the bug exists and passes once
it is fixed.
"""

import pytest

from repro.check.fuzz import (
    FuzzFailure,
    FuzzOp,
    fuzz_campaign,
    make_schedule,
    render_repro,
    run_schedule,
    shrink_schedule,
)
from repro.coherence.states import ProtocolMode

import random

MUTATION_CASES = [
    # (mutation, family that provokes it fastest)
    ("merge-drop-granule", "disjoint"),
    ("chk-write-always-passes", "mixed"),
    ("pam-reads-count-as-writes", "mixed"),
    ("sam-drops-writes", "disjoint"),
]


@pytest.mark.parametrize("mutation,family", MUTATION_CASES)
def test_mutation_detected_and_shrunk(mutation, family):
    result = fuzz_campaign(iterations=3, seed=7,
                           modes=[ProtocolMode.FSLITE], families=[family],
                           mutation=mutation)
    assert result.findings, f"{mutation} not detected in 3 schedules"
    finding = result.findings[0]
    assert len(finding.shrunk) <= 10, (
        f"{mutation}: shrunk schedule still has {len(finding.shrunk)} ops")
    assert len(finding.shrunk) <= len(finding.schedule)
    # The shrunk schedule still fails under the mutation...
    assert not run_schedule(finding.shrunk, mode=finding.mode,
                            mutation=mutation).ok
    # ...and passes on the unmutated protocol (the bug, not the schedule,
    # is at fault).
    assert run_schedule(finding.shrunk, mode=finding.mode).ok


def test_rendered_repro_is_valid_python():
    result = fuzz_campaign(iterations=3, seed=7,
                           modes=[ProtocolMode.FSLITE],
                           families=["disjoint"],
                           mutation="sam-drops-writes")
    assert result.findings
    source = result.findings[0].repro_source
    compile(source, "<repro>", "exec")  # must be pastable into a test file
    assert "def test_fuzz_repro" in source
    assert "sam-drops-writes" in source


def test_clean_protocol_survives_campaign():
    result = fuzz_campaign(iterations=6, seed=3)
    assert result.ok, result.findings[0].failure.describe()
    assert result.iterations == 6


def test_regression_eviction_vs_episode_races():
    """This exact schedule exposed two real FSLite bugs in the interaction
    of eviction writebacks with episode transitions (see the race table in
    docs/PROTOCOL.md): a dirty owner's PUTM racing TR_PRV at initiation,
    and a mid-episode departure merge erasing SAM claims while another
    sharer held a pre-merge Data_PRV copy. Both manifested as lost
    fetch-adds in the final image."""
    schedule = make_schedule("mixed", random.Random(3), num_lines=1,
                             length=400)
    report = run_schedule(schedule, mode=ProtocolMode.FSLITE)
    assert report.ok, report.failure.describe()


def test_campaign_is_deterministic():
    a = fuzz_campaign(iterations=2, seed=11, modes=[ProtocolMode.FSLITE],
                      families=["mixed"], mutation="pam-reads-count-as-writes")
    b = fuzz_campaign(iterations=2, seed=11, modes=[ProtocolMode.FSLITE],
                      families=["mixed"], mutation="pam-reads-count-as-writes")
    assert [f.shrunk for f in a.findings] == [f.shrunk for f in b.findings]
    assert [f.repro_source for f in a.findings] == \
        [f.repro_source for f in b.findings]


def test_make_schedule_deterministic_and_well_formed():
    ops_a = make_schedule("mixed", random.Random(42))
    ops_b = make_schedule("mixed", random.Random(42))
    assert ops_a == ops_b
    assert len(ops_a) == 80
    assert {op.kind for op in ops_a} <= \
        {"load", "store", "rmw", "evict", "pause"}
    with pytest.raises(ValueError):
        make_schedule("nonsense", random.Random(0))


def test_shrinker_respects_oracle():
    """ddmin on a synthetic oracle: only ops 2 and 5 matter."""
    schedule = [FuzzOp(0, "pause") for _ in range(8)]
    schedule[2] = FuzzOp(1, "store", offset=8, value=1)
    schedule[5] = FuzzOp(2, "store", offset=16, value=2)
    needed = {schedule[2], schedule[5]}

    calls = []

    def still_fails(sub):
        calls.append(len(sub))
        return needed <= set(sub)

    shrunk = shrink_schedule(schedule, still_fails)
    assert set(shrunk) == needed
    assert len(shrunk) == 2
    assert calls, "shrinker never consulted the oracle"


def test_render_pytest_repro_roundtrip():
    schedule = [FuzzOp(0, "store", line=1, offset=0, size=8, value=5),
                FuzzOp(1, "load", line=1, offset=8, size=8)]
    report = run_schedule(schedule)
    assert report.ok
    failure = FuzzFailure("final-image", "mismatch", "demo failure")
    source = render_repro("fuzz", schedule, [ProtocolMode.FSLITE], None,
                          f"{failure.stage}/{failure.kind}", case_seed=123)
    namespace = {}
    exec(compile(source, "<repro>", "exec"), namespace)
    test_fn = next(v for k, v in namespace.items()
                   if k.startswith("test_fuzz_repro"))
    test_fn()  # schedule passes on the clean protocol, so this must too
