"""Section VIII-B SAM-size study.

Paper: with the default 128-entry SAM per slice, only ~0.13% of
allocations replace a valid entry, so doubling the table to 256 entries
changes nothing — a small SAM suffices because few lines are falsely
shared at a time.
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_sam_size(experiment_cache, record_result):
    result = experiment_cache("sam_size", E.sam_size, BENCH_SCALE)
    record_result("sam_size", result)
    rel = dict(zip(result.column("app"), result.column("rel_speedup_256")))

    for app, r in rel.items():
        if app != "mean":
            assert 0.98 <= r <= 1.02, (app, r)
    assert result.summary["mean_replacement_rate"] < 0.02
