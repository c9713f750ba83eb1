"""Section VIII-B larger-private-cache studies.

Paper: (i) iso-storage — FSLite with 32 KB L1Ds still delivers 1.21X over
a baseline given 128 KB L1Ds, averaged over all 14 apps (throwing SRAM at
the problem does not fix false sharing); (ii) with 512 KB private caches
(mimicking a mid-level cache) FSLite keeps its 1.39X on the FS apps.
"""

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_big_l1d(experiment_cache, record_result):
    result = experiment_cache("big_l1d", E.big_l1d, BENCH_SCALE)
    record_result("big_l1d", result)

    # Iso-storage: capacity does not cure false sharing.
    assert result.summary["iso_geomean"] > 1.1
    # Large private caches: the FS-app win is undiminished.
    assert 1.2 <= result.summary["fs512_geomean"] <= 1.6
