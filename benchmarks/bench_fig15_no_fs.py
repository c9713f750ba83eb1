"""Figure 15: FSLite on applications *without* false sharing.

Paper: mean slowdown and energy expense both within 0.1% of baseline —
the protocol must be invisible when there is nothing to repair.
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_fig15_no_fs(experiment_cache, record_result):
    result = experiment_cache("fig15", E.fig15_no_fs, BENCH_SCALE)
    record_result("fig15_no_fs", result)

    assert abs(result.summary["speedup_geomean"] - 1.0) < 0.01
    assert abs(result.summary["energy_geomean"] - 1.0) < 0.03
    # And zero privatizations anywhere.
    for row in result.rows[:-1]:
        assert row[3] == 0, f"{row[0]} was privatized"
