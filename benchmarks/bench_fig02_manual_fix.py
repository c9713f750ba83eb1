"""Figure 2: speedup achieved after manually fixing false sharing.

Paper: geomean 1.34X over baseline MESI; RC peaks at 3.06X; BS/SC/SF/SM
barely move (1.02-1.05X).
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_fig02_manual_fix(experiment_cache, record_result):
    result = experiment_cache("fig02", E.fig02_manual_fix, BENCH_SCALE)
    record_result("fig02_manual_fix", result)
    speedups = dict(zip(result.column("app"), result.column("speedup")))

    # Paper shape: every FS app benefits or is neutral; RC dominates.
    geo = result.summary["geomean"]
    assert 1.15 <= geo <= 1.6, f"geomean {geo} far from paper's 1.34"
    assert speedups["RC"] == max(
        v for k, v in speedups.items() if k != "geomean")
    assert speedups["RC"] > 2.5
    for mild in ("BS", "SC", "SF", "SM"):
        assert 0.97 <= speedups[mild] <= 1.15, (mild, speedups[mild])
    for strong in ("LL", "LR"):
        assert speedups[strong] > 1.3, (strong, speedups[strong])
