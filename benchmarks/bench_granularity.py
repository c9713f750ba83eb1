"""Section VIII-B coarse-grain tracking.

Paper: tracking access metadata at 2- or 4-byte granularity (instead of
per byte) loses no performance — most false-sharing instances manifest on
4-byte data — while shrinking the PAM to 2 KB and the optimized SAM to
3 KB per slice.
"""

from repro.common.config import SystemConfig
from repro.energy.model import AreaModel
from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_granularity(experiment_cache, record_result):
    result = experiment_cache("granularity", E.granularity, BENCH_SCALE)
    record_result("granularity", result)

    assert 0.95 <= result.summary["rel2_geomean"] <= 1.05
    assert 0.95 <= result.summary["rel4_geomean"] <= 1.05


def test_granularity_storage():
    cfg4 = SystemConfig().with_protocol(tracking_granularity=4)
    pam_kb = AreaModel(cfg4).pam_table_bits() / 8 / 1024
    assert pam_kb < 2.5  # paper: "reduces the size of the PAM table to 2 KB"
