"""Figure 13: fraction of L1D accesses that miss (FS apps, baseline MESI).

Paper: mean 0.05; RC 0.18; SM < 0.005; a fraction of these misses is the
false sharing FSLite later removes.
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_fig13_miss_fraction(experiment_cache, record_result):
    result = experiment_cache("fig13", E.fig13_miss_fraction, BENCH_SCALE)
    record_result("fig13_miss_fraction", result)
    miss = dict(zip(result.column("app"), result.column("miss_fraction")))

    assert 0.02 <= result.summary["mean"] <= 0.10, result.summary
    # RC is the worst offender, SM the mildest — the paper's ordering.
    assert miss["RC"] == max(v for k, v in miss.items() if k != "mean")
    assert miss["RC"] > 0.12
    assert miss["SM"] == min(v for k, v in miss.items() if k != "mean")
    assert miss["SM"] < 0.02
