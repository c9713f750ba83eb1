"""Figure 16: sensitivity of FSLite to the privatization threshold τP.

Paper: raising τP to 32/64 delays privatization and costs ~1% on average
(worst cases LT and RC at τP=64 around 4%); SM is flat.
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_fig16_tau_p(experiment_cache, record_result):
    result = experiment_cache("fig16", E.fig16_tau_p, BENCH_SCALE)
    record_result("fig16_tau_p", result)

    g32 = result.summary["rel32_geomean"]
    g64 = result.summary["rel64_geomean"]
    # Small mean slowdown, monotone in τP.
    assert 0.90 <= g32 <= 1.01, g32
    assert 0.85 <= g64 <= 1.005, g64
    assert g64 <= g32 + 0.01
