"""The performance record: ``benchmarks/record.py`` and the snapshots it
keeps in ``benchmarks/results/BENCH_e2e.json``.

A snapshot's rows must be exactly what ``benchmarks/e2e/compare.py``
judges for the same run files, so the record can never disagree with the
verdicts the A/B printed.
"""

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

import record  # noqa: E402

compare = record.compare
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _runs(path: pathlib.Path, seconds: float) -> pathlib.Path:
    """A tiny ``run.py --out`` file: ten untraced fig14 seeds."""
    path.write_text(json.dumps({"runs": [{
        "workload": "fig14", "seed": seed, "trace": 0,
        "correct": True, "failed": 0,
        "metrics": {m["name"]: {"value": seconds + 0.01 * (seed % 3)}
                    for m in SPEC["end_to_end"]},
    } for seed in range(1, 11)]}))
    return path


def test_record_appends_compare_rows(tmp_path):
    base = _runs(tmp_path / "base.json", 10.0)
    head = _runs(tmp_path / "head.json", 9.0)
    out = tmp_path / "BENCH_e2e.json"
    earlier = {"label": "earlier", "commit": "0", "date": "2000-01-01",
               "backfilled": True, "rows": []}
    out.write_text(json.dumps([earlier]))
    assert record.main(["--label", "faster", "--commit", "abc123",
                        "--base", str(base), "--head", str(head),
                        "--out", str(out)]) == 0
    snapshots = json.loads(out.read_text())
    assert snapshots[0] == earlier and len(snapshots) == 2
    snapshot = snapshots[1]
    assert (snapshot["label"], snapshot["commit"], snapshot["backfilled"]) \
        == ("faster", "abc123", False)
    rows = compare.compare(compare.load([base]), compare.load([head]), SPEC)
    assert snapshot["rows"] == rows
    assert {r["verdict"] for r in rows} != {"no change"}


def test_committed_record_is_well_formed():
    snapshots = json.loads(
        (REPO / "benchmarks" / "results" / "BENCH_e2e.json").read_text())
    assert snapshots
    for snapshot in snapshots:
        assert {"label", "commit", "date", "backfilled", "rows"} \
            <= set(snapshot), snapshot.get("label")
        assert isinstance(snapshot["backfilled"], bool)
        assert snapshot["rows"] and all(
            {"workload", "metric"} <= set(row) for row in snapshot["rows"])
