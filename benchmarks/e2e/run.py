"""End-to-end benchmark of the simulator's host time, layer by layer.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                   [--trace [0|1]] [--quick] [--out FILE]
                                   [--spans FILE]

Each workload runs in fresh interpreters: ``SETUP_PROBES`` of them time
set-up (process start to inputs ready: imports, input generation, trace
synthesis), and the last one goes on to the timed phase, a closed loop of
identical rounds on one serial client (``Engine(jobs=1)``).  The metric
names, units and bounds come from ``BENCHMARK.json`` at the repository
root; untraced runs report its ``end_to_end`` metrics, ``--trace`` runs its
``per_layer`` metrics.  Every metric is printed by name with its unit,
median, quartiles and sample count, and the last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Host times are
in reference seconds (see ``hostspeed.py``); the run records keep the
measured host seconds beside them.

Without ``--workload`` all four workloads run one after another.  ``--out``
appends the run records to a JSON results file (the input of
``compare.py``); ``--spans`` writes the traced rounds' spans as
Chrome-trace JSON.  The exit code is nonzero when any operation failed
its checks or a worker did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("fig14", "coherence-storm", "trace-replay", "campaign")
#: Interpreters started per run to measure set-up; the last one also runs
#: the timed phase.
SETUP_PROBES = 3
#: Wall-clock limit for one workload, set-up probes included.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    """A worker exited early, timed out or printed no result."""


def quartiles(values: list) -> tuple:
    """First and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _worker(args: argparse.Namespace, workload: str, setup_only: bool,
            deadline: float) -> tuple:
    """Start one worker; return ``(raw setup seconds, setup in reference
    seconds, result or None)``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--quick"] if args.quick else []
    cmd += ["--setup-only"] if setup_only else []
    if args.spans and not setup_only:
        cmd += ["--spans", str(pathlib.Path(args.spans).resolve())]
    lines: queue.Queue = queue.Queue()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)

    def read() -> None:
        for line in proc.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    setup_s = ref_setup_s = last = None
    try:
        while True:
            try:
                stamp, line = lines.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise WorkerError(f"{workload}: worker timed out") from None
            if line is None:
                break
            if line.startswith("READY ") and setup_s is None:
                setup_s = stamp - start
                speed, spent = map(float, line.split()[1:])
                ref_setup_s = hostspeed.to_reference(setup_s, speed, spent)
            elif line:
                last = line
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
    if code != 0 or setup_s is None:
        raise WorkerError(f"{workload}: worker exited with code {code}")
    if setup_only:
        return setup_s, ref_setup_s, None
    if last is None:
        raise WorkerError(f"{workload}: worker printed no result")
    return setup_s, ref_setup_s, json.loads(last)


def _metric(values: list, unit: str) -> dict:
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def run_workload(args: argparse.Namespace, workload: str,
                 spec: dict) -> dict:
    """All set-ups and the timed worker of one workload; one run record."""
    deadline = time.perf_counter() + DEADLINE_S
    setups, raw_setups = [], []
    for k in range(SETUP_PROBES):
        raw, setup, result = _worker(args, workload, k < SETUP_PROBES - 1,
                                     deadline)
        raw_setups.append(raw)
        setups.append(setup)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    rounds = result["round_s"]
    metrics: dict = {}
    if args.trace:
        for name in (m["name"] for m in spec["per_layer"]):
            if name == "trace.overhead_x":
                metrics[name] = _metric([result["overhead_x"]], units[name])
            else:
                metrics[name] = _metric([s[name] for s in result["layers"]],
                                        units[name])
    else:
        metrics = {
            "round_s": _metric(rounds, units["round_s"]),
            "sim_ops_per_s": _metric([result["sim_ops"] / s for s in rounds],
                                     units["sim_ops_per_s"]),
            "setup_s": _metric(setups, units["setup_s"]),
            "peak_rss_mb": _metric([result["peak_rss_mb"]],
                                   units["peak_rss_mb"]),
        }
    spans = {}
    if args.trace:
        spans = {name: statistics.median(s["spans"][name]
                                         for s in result["layers"])
                 for name in result["layers"][0]["spans"]}
    return {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "seconds": args.seconds,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "errors": result["errors"], "metrics": metrics, "spans": spans,
        "summary": result["summary"], "paper": result["paper"],
        "extras": result["extras"], "sim_ops": result["sim_ops"],
        "round_s": rounds, "raw_round_s": result["raw_round_s"],
        "speed": result["speed"],
        "traced_round_s": result.get("traced_round_s"),
        "setup_s": setups, "raw_setup_s": raw_setups,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
    }


def report(record: dict) -> None:
    """Print one run record for people (stdout, before the JSON line)."""
    mode = "traced" if record["trace"] else "untraced"
    raw = statistics.median(record["raw_round_s"])
    print(f"== {record['workload']} (seed {record['seed']}, {mode}, "
          f"{len(record['round_s'])} untraced round(s) of {raw:.3f} host s, "
          f"{record['sim_ops']} simulated ops each) ==")
    rows = sorted(record["metrics"].items())
    root = None
    if record["trace"]:
        # Self times first, largest first: where the traced wall time went.
        root = record["metrics"]["trace.root_s"]["value"] or 1.0
        rows.sort(key=lambda kv: (not kv[0].endswith(".self_s"),
                                  -kv[1]["value"]))
    for name, m in rows:
        share = (f"{100 * m['value'] / root:5.1f}%"
                 if root and name.endswith(".self_s") else "")
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']:<6} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}] {share}")
    # The spans folded into a reported group (the harness split).
    for name, seconds in sorted(record["spans"].items(),
                                key=lambda kv: -kv[1]):
        if seconds and f"{name}.self_s" not in record["metrics"]:
            print(f"    {name:<24} {seconds:>14.6g} s      "
                  f"{100 * seconds / root:5.1f}%")
    print(f"  outputs: {json.dumps(record['summary'], sort_keys=True)}")
    if record["paper"]:
        print(f"  paper:   {json.dumps(record['paper'], sort_keys=True)} "
              "(no other simulated number is validated against the paper)")
    if record["extras"]:
        print(f"  extras: {json.dumps(record['extras'], sort_keys=True)}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    print(f"  {record['failed']} of {record['attempted']} operations "
          f"failed")


def _append(path: pathlib.Path, records: list) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].extend(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"run.py: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0, the pinned outputs)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of the timed phase per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (self-test)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="append run records to this results file")
    parser.add_argument("--spans", help="Chrome-trace JSON of the traced "
                        "rounds (with --workload and --trace)")
    args = parser.parse_args(argv)
    if args.spans and not (args.workload and args.trace):
        parser.error("--spans needs --workload and --trace")

    records = []
    for workload in ([args.workload] if args.workload else WORKLOADS):
        try:
            records.append(run_workload(args, workload, spec))
        except WorkerError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        report(records[-1])
    if args.out:
        _append(args.out, records)
    if args.workload:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in records
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
