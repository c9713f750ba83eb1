"""Every rendered repro reproduces its finding.

A campaign's repro is pasted into a test suite as the regression test for
its finding, so it must re-run the case exactly as the campaign ran it:
same mode(s), fault plan, SAM size, mutation, differential oracle, thread
count and probe config.  Each repro asserts the case passes; while the
(seeded) bug is present, running it must raise ``AssertionError``.
"""

import pytest

from test_campaign_golden import CAMPAIGNS, contract_campaign, contract_hunts


def _run_repro(source: str) -> None:
    namespace: dict = {}
    exec(compile(source, "<repro>", "exec"), namespace)  # noqa: S102
    tests = [fn for name, fn in namespace.items()
             if name.startswith("test_")]
    assert len(tests) == 1, sorted(namespace)
    tests[0]()


def _assert_reproduces(source: str) -> None:
    with pytest.raises(AssertionError):
        _run_repro(source)


@pytest.mark.parametrize("name", sorted(
    name for name, (_, kwargs) in CAMPAIGNS.items() if "mutation" in kwargs))
def test_campaign_repros_reproduce(name):
    findings = contract_campaign(name).findings
    assert findings
    for finding in findings:
        _assert_reproduces(finding.repro_source)


def test_hunt_repros_reproduce():
    for name, escape in contract_hunts().items():
        assert escape.caught, name
        _assert_reproduces(escape.repro_source)


def test_repro_of_a_clean_case_passes():
    """The check has teeth in both directions: a repro rendered for a case
    that does not fail runs green."""
    from repro.check.fuzz import FuzzOp, render_repro
    from repro.coherence.states import ProtocolMode

    source = render_repro(
        "fuzz", [FuzzOp(0, "store", value=5), FuzzOp(1, "load")],
        [ProtocolMode.FSLITE], None, "run/AssertionError", case_seed=1,
        num_threads=2, differential=True)
    assert "num_threads=2" in source and "differential=True" in source
    _run_repro(source)
