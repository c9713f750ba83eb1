"""Figure 17: manual fix vs Huron vs FSLite on the Huron-artifact apps.

Paper: FSLite beats Huron by ~19.8% and the manual fix by ~6.8% geomean.
Huron wins on BS (it also removes redundant work: 15% fewer committed
instructions) but fails to mitigate all of RC's false sharing, where it
lags both FSLite and the manual fix badly.
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_fig17_huron(experiment_cache, record_result):
    result = experiment_cache("fig17", E.fig17_huron, BENCH_SCALE)
    record_result("fig17_huron", result)
    man = dict(zip(result.column("app"), result.column("manual")))
    hur = dict(zip(result.column("app"), result.column("huron")))
    fsl = dict(zip(result.column("app"), result.column("fslite")))

    # Overall ordering: FSLite > manual > Huron (geomean).
    assert result.summary["fslite_geomean"] > result.summary["huron_geomean"]
    assert result.summary["fslite_geomean"] >= \
        result.summary["manual_geomean"] - 0.02
    # Huron's documented per-app profile.
    assert hur["BS"] > fsl["BS"]          # wins BS via fewer instructions
    assert hur["RC"] < fsl["RC"] - 0.5    # misses RC instances
    assert hur["RC"] < man["RC"] - 0.5
    # Near-parity on LL and SM (paper: "nearly similar performance").
    for tie in ("LL", "SM"):
        assert abs(hur[tie] - fsl[tie]) < 0.25, (tie, hur[tie], fsl[tie])
