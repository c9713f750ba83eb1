"""Figure 14b: cache-hierarchy energy, normalized to baseline MESI.

Paper: FSDetect is within ~4% of baseline everywhere; FSLite saves 27% on
average (geomean 0.73), peaking on RC (0.26).
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_fig14b_energy(experiment_cache, record_result):
    result = experiment_cache("fig14", E.fig14_speedup_energy, BENCH_SCALE)
    record_result("fig14b_energy", result)
    det = dict(zip(result.column("app"), result.column("fsdetect_energy")))
    fsl = dict(zip(result.column("app"), result.column("fslite_energy")))

    for app, e in det.items():
        if app != "geomean":
            assert 0.95 <= e <= 1.06, (app, e)

    geo = result.summary["fslite_energy_geomean"]
    assert 0.6 <= geo <= 0.9, f"FSLite energy geomean {geo} vs paper 0.73"
    assert fsl["RC"] == min(v for k, v in fsl.items() if k != "geomean")
    assert fsl["RC"] < 0.45
    for mild in ("BS", "SC", "SF", "SM"):
        assert 0.9 <= fsl[mild] <= 1.06
