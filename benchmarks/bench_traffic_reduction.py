"""Section VIII-B interconnect accounting.

Paper: FSLite cuts L1 request messages by 80% on average for the FS apps;
metadata messages add ~5% traffic, for a net ~75% reduction from the cores
to the LLC. FSDetect's metadata overhead stays within 1-2% of baseline.
"""

from repro.coherence.states import ProtocolMode
from repro.harness import experiments as E
from repro.harness.runner import run_workload

from _bench_common import BENCH_SCALE


def test_traffic_reduction(experiment_cache, record_result):
    result = experiment_cache("traffic", E.traffic_reduction, BENCH_SCALE)
    record_result("traffic_reduction", result)
    req = dict(zip(result.column("app"),
                   result.column("l1_request_reduction")))

    # Strong reductions where false sharing dominates the traffic.
    for app in ("LL", "LR", "RC"):
        assert req[app] > 0.5, (app, req[app])
    assert result.summary["mean_request_reduction"] > 0.35
    # Metadata messages stay a small fraction of total traffic.
    md = dict(zip(result.column("app"),
                  result.column("metadata_msg_fraction")))
    for app, frac in md.items():
        if app != "mean":
            assert frac < 0.25, (app, frac)


def test_fsdetect_traffic_overhead_small():
    for tag in ("LL", "RC", "SM"):
        base = run_workload(tag, scale=BENCH_SCALE)
        det = run_workload(tag, ProtocolMode.FSDETECT, scale=BENCH_SCALE)
        ratio = det.stats.total_bytes / base.stats.total_bytes
        # Detection metadata inflates traffic modestly (paper: 1-2% of the
        # baseline's *network bandwidth*; message-count overhead is higher
        # because contended lines each carry REP_MDs).
        assert ratio < 1.35, (tag, ratio)
