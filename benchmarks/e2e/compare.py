"""Compare two sets of benchmark runs with the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py --base A.json [A2.json ...] \\
                                      --head B.json [B2.json ...]

The files are ``run.py --out`` results; untraced runs are paired by
(workload, seed), and each side should hold at least ten seeds run as
alternating pairs (base then head for one seed, head then base for the
next).  One row per workload and end-to-end metric, with a verdict:

* ``FAILED`` — a base or head run of the workload failed some of its
  operations' checks; its timings prove nothing;
* ``REGRESSION`` — head's median is worse than base's by more than the
  metric's bound;
* ``unresolved`` — base's spread (quartile distance over median) exceeds
  the bound, unless every head run reads better than every base run;
* ``win`` — head wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ by more than base's quartile distance;
* ``no change`` — anything else; ``too few pairs`` below ten pairs.

Exits 1 when any row is a regression or a failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

from run import quartiles

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths) -> dict:
    """``{workload: {seed: run record}}`` over untraced runs."""
    out: dict = {}
    for path in paths:
        for run in json.loads(pathlib.Path(path).read_text())["runs"]:
            if not run["trace"]:
                out.setdefault(run["workload"], {})[run["seed"]] = run
    return out


def verdict(base: list, head: list, better: str, bound: float,
            failed: int = 0) -> dict:
    """Judge paired runs (``base[i]`` and ``head[i]`` share a seed);
    ``failed`` counts the failed operations of both sides' runs."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, b_q3 = quartiles(base)
    worse_by = sign * (h_med - b_med) / b_med
    spread = (b_q3 - b_q1) / b_med
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    all_better = max(sign * h for h in head) < min(sign * b for b in base)
    if failed:
        call = "FAILED"
    elif len(base) < MIN_PAIRS:
        call = "too few pairs"
    elif worse_by > bound:
        call = "REGRESSION"
    elif spread > bound and not all_better:
        call = "unresolved"
    elif (wins >= WIN_SHARE * len(base) and worse_by < 0
          and abs(h_med - b_med) > b_q3 - b_q1):
        call = "win"
    else:
        call = "no change"
    return {"base": b_med, "head": h_med,
            "change": (h_med - b_med) / b_med, "spread": spread,
            "wins": wins, "pairs": len(base), "failed": failed,
            "verdict": call}


def compare(base: dict, head: dict, spec: dict) -> list:
    rows = []
    for workload in sorted(set(base) & set(head)):
        seeds = sorted(set(base[workload]) & set(head[workload]))
        runs = [*base[workload].values(), *head[workload].values()]
        failed = sum(max(run["failed"], not run["correct"]) for run in runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [base[workload][s]["metrics"][name]["value"] for s in seeds],
                [head[workload][s]["metrics"][name]["value"] for s in seeds],
                metric["better"], metric["bound"], failed)
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.base), load(args.head), spec)
    print(f"{'workload':<16} {'metric':<14} {'base':>12} {'head':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6} {'won':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<16} {r['metric']:<14} {r['base']:>12.6g} "
              f"{r['head']:>12.6g} {100 * r['change']:>+7.2f}% "
              f"{100 * r['spread']:>6.2f}% {100 * r['bound']:>5.0f}% "
              f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}"
              + (f" ({r['failed']} failed operations)" if r["failed"]
                 else ""))
    return 1 if any(r["verdict"] in ("REGRESSION", "FAILED")
                    for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
