"""Tier audit: every test in the repository carries a tier marker.

The tier-1 gate is ``python -m pytest tests/ -x -q`` (conftest auto-marks
everything under ``tests/`` as ``tier1``); the full-scale paper benchmarks
under ``benchmarks/`` are auto-marked ``bench`` by their own conftest.
These tests fail if either auto-marking hook breaks or a test file lands
outside both trees — i.e. outside every tier.
"""

import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
TESTS = REPO / "tests"
BENCHMARKS = REPO / "benchmarks"


def test_every_collected_test_is_tier1(request):
    """Audit the LIVE collection: every item pytest gathered in this run
    that lives under tests/ must carry the tier1 marker (the conftest
    hook, not trust)."""
    unmarked = [
        item.nodeid for item in request.session.items
        if TESTS in pathlib.Path(str(item.fspath)).parents
        and item.get_closest_marker("tier1") is None
    ]
    assert not unmarked, f"tests without tier1 marker: {unmarked[:10]}"


def test_every_test_file_belongs_to_a_tier():
    """Every test/bench module in the repository lives under a directory
    whose conftest assigns it a tier marker."""
    patterns = ("test_*.py", "bench_*.py")
    strays = []
    for pattern in patterns:
        for path in REPO.rglob(pattern):
            if any(part.startswith(".") or part in ("build", "dist",
                                                    "__pycache__")
                   for part in path.parts):
                continue
            if TESTS in path.parents or BENCHMARKS in path.parents:
                continue
            strays.append(str(path.relative_to(REPO)))
    assert not strays, f"test files outside tests//benchmarks/: {strays}"


def test_tier_markers_are_registered():
    """Both tier markers must be declared in pyproject (undeclared markers
    only warn by default, which would silently rot the tiers)."""
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    for marker in ("tier1", "bench"):
        assert f'"{marker}:' in pyproject, f"marker {marker} unregistered"


def test_coverage_baseline_is_sound():
    """The committed coverage floor (read by the CI coverage job) is a
    sane percentage, and the workflow actually consumes it."""
    import json

    baseline = json.loads(
        (TESTS / "data" / "coverage_baseline.json").read_text())
    floor = baseline["fail_under"]
    assert isinstance(floor, int) and 0 < floor <= 100
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "coverage_baseline.json" in workflow
    assert "--cov-fail-under" in workflow


def test_trace_suite_is_collected(request):
    """The trace layer's three test modules (codec properties, golden
    conformance corpus, differential oracle) live under tests/ and are
    present in the live collection — the tier-1 gate cannot silently drop
    them."""
    expected = ("test_trace_properties.py", "test_trace_golden.py",
                "test_trace_diff.py")
    for name in expected:
        assert (TESTS / name).is_file(), f"missing trace suite file {name}"
    collected = {pathlib.Path(str(item.fspath)).name
                 for item in request.session.items}
    if len(collected) < 10:
        pytest.skip("partial collection: full-suite audit only")
    missing = [n for n in expected if n not in collected]
    assert not missing, f"trace suites not collected: {missing}"


def test_ci_runs_trace_smoke():
    """The CI test job must exercise the golden-trace conformance corpus
    (record→replay→digest-compare)."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "test_trace_golden.py" in workflow, \
        "CI lost the trace-smoke conformance step"


def test_benchmarks_conftest_applies_bench_marker():
    source = (BENCHMARKS / "conftest.py").read_text(encoding="utf-8")
    assert "pytest.mark.bench" in source


def test_tests_conftest_applies_tier1_marker():
    source = (TESTS / "conftest.py").read_text(encoding="utf-8")
    assert "pytest.mark.tier1" in source
