"""Section VIII-B out-of-order cores.

Paper: 8-wide OoO cores speed the baseline up 5.1X over in-order by
partially hiding false-sharing stalls (86% fewer commit stalls); FSLite
still gains 1.63X on top of the OoO baseline, vs 1.56X on in-order cores
for the same six applications. The reproduced magnitudes are smaller (our
OoO model is a bounded window, not an 8-wide pipeline) but the ordering —
OoO hides some of the penalty and FSLite removes most of the rest — holds.
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_ooo(experiment_cache, record_result):
    result = experiment_cache("ooo", E.ooo, BENCH_SCALE)
    record_result("ooo", result)

    # OoO meaningfully accelerates the baseline...
    assert result.summary["ooo_gain_geomean"] > 1.3
    # ...and FSLite still wins on top of it.
    assert result.summary["fslite_ooo_geomean"] > 1.1
    fsl_ooo = dict(zip(result.column("app"),
                       result.column("fslite_on_ooo")))
    assert fsl_ooo["RC"] > 1.5
