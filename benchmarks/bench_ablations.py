"""Ablations of the Section VI design refinements (DESIGN.md §6).

* Hysteresis counter (HC): without it, blocks with interspersed true/false
  sharing privatize-and-terminate repeatedly; with it the churn damps.
* Periodic metadata reset (τR1/τR2): without it, the data-initialization
  pattern (main thread writes everything once) permanently poisons the TS
  bit and blocks privatization.
"""

from repro.coherence.states import ProtocolMode
from repro.common.config import SystemConfig
from repro.harness import experiments as E
from repro.harness.runner import run_workload

from _bench_common import BENCH_SCALE


def test_ablation_metadata_reset(experiment_cache, record_result):
    result = experiment_cache("abl_reset", E.ablation, "metadata_reset",
                              BENCH_SCALE, ["LR", "LL", "RC"])
    record_result("ablation_metadata_reset", result)
    rows = {r[0]: r for r in result.rows}
    # LR's main thread initializes every accumulator: without the reset,
    # privatization of its lines is lost or delayed and LR slows down.
    assert rows["LR"][1] > 1.05, rows["LR"]


def test_ablation_hysteresis(experiment_cache, record_result):
    result = experiment_cache("abl_hc", E.ablation, "hysteresis",
                              BENCH_SCALE, ["SF", "LL", "RC"])
    record_result("ablation_hysteresis", result)
    rows = {r[0]: r for r in result.rows}
    # SF intersperse true sharing with false sharing: without HC it churns
    # through more privatize/terminate cycles.
    assert rows["SF"][3] >= rows["SF"][2], rows["SF"]
    # Pure-FS apps are insensitive to HC.
    assert 0.95 <= rows["RC"][1] <= 1.05


def test_ablation_detection_disabled_is_baseline():
    """Sanity anchor: FSLite with an impossible threshold behaves like
    plain MESI (privatization never triggers)."""
    cfg = SystemConfig().with_protocol(tau_p=127, tau_r1=127)
    base = run_workload("RC", scale=BENCH_SCALE)
    neutered = run_workload("RC", ProtocolMode.FSLITE, config=cfg,
                            scale=BENCH_SCALE)
    assert neutered.stats.privatizations == 0
    assert abs(neutered.cycles - base.cycles) / base.cycles < 0.05
