"""Benchmark worker: set up one workload, then time its rounds.

``run.py`` starts one in a fresh interpreter per set-up it measures::

    python3 worker.py --workload W --seed S --seconds T --trace 0|1
                      [--quick] [--setup-only] [--spans FILE]

The worker prints ``READY <speed> <sampling seconds>`` once its inputs
exist (``run.py`` times set-up from process start to that line and
converts it to reference seconds with the host speed sampled during
set-up) and, unless ``--setup-only``, one JSON line with the measured
rounds when the timed phase ends.

Untraced, rounds run back to back until the next one would overrun
``--seconds``.  With ``--trace 1`` the first third of the time goes to
untraced rounds and the rest to traced ones; the per-layer numbers come
from the traced rounds and ``trace.overhead_x`` compares the two.  Every
round runs under a :class:`hostspeed.Sampler`, which converts its host
times to reference seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
from typing import NamedTuple

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import hostspeed  # noqa: E402

#: Host speed during set-up, which starts with the imports below.
SETUP_HOST = hostspeed.Sampler().start()

import layers  # noqa: E402
import workloads  # noqa: E402

EXPECTED = HERE / "expected.json"


class Timed(NamedTuple):
    """One round: host seconds measured, the host's mean speed during it,
    the round in reference seconds, the round's outcome, and its sample
    (per-layer metrics when traced, simulated thread ops when not)."""

    raw_s: float
    speed: float
    ref_s: float
    round: workloads.Round
    sample: object


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(inst: layers.Instruments, workload, rnd,
                  to_ref: float) -> dict:
    """Per-layer metrics of one traced round; ``to_ref`` converts its host
    seconds to reference seconds."""
    tracer = inst.tracer
    spans_s, wrapper_s = tracer.self_seconds()
    self_s = {group: to_ref * sum(spans_s[name] for name in members)
              for group, members in layers.GROUPS.items()}
    work = inst.work.snapshot()
    calls = dict(zip(tracer.names, tracer.calls))
    out = {f"{name}.self_s": seconds for name, seconds in self_s.items()}
    us = 1e6
    out.update({
        "l1.accesses": work["l1.accesses"],
        "l1.hits": work["l1.hits"],
        "l1.hit_ratio": _ratio(work["l1.hits"], work["l1.accesses"]),
        "l1.us_per_access": _ratio(self_s["l1.access"] * us,
                                   work["l1.accesses"]),
        "events.executed": work["events.executed"],
        "events.us_per_event": _ratio(self_s["events"] * us,
                                      work["events.executed"]),
        "cpu.ops": work["cpu.ops"],
        "cpu.mem_ops": work["cpu.mem_ops"],
        "dir.requests": work["dir.requests"],
        "dir.llc_data_accesses": work["dir.llc_data_accesses"],
        "dir.memory_fetches": work["dir.memory_fetches"],
        "dir.us_per_request": _ratio(self_s["dir.handle"] * us,
                                     work["dir.requests"]),
        "core.sam_accesses": work["core.sam_accesses"],
        "core.sam_allocations": work["core.sam_allocations"],
        "core.privatizations": work["core.privatizations"],
        "core.chk_pass_ratio": _ratio(
            work["core.chk_pass"],
            work["core.chk_pass"] + work["core.chk_fail"]),
        "net.msgs": work["net.msgs"],
        "net.bytes": work["net.bytes"],
        "net.us_per_msg": _ratio(self_s["net.send"] * us, work["net.msgs"]),
        "workloads.ops": calls["workloads"],
        "workloads.us_per_op": _ratio(self_s["workloads"] * us,
                                      calls["workloads"]),
        "trace.bytes_per_op": workload.bytes_per_op,
        "builder.machines": calls["builder"],
        "builder.us_per_machine": _ratio(self_s["builder"] * us,
                                         calls["builder"]),
        "check.cases": rnd.extras.get("cases", 0),
        "check.shrink_evals": tracer.shrink_evals,
        "check.replay_hit_ratio": inst.replay_hit_ratio(),
        "trace.root_s": to_ref * tracer.root_ns / 1e9,
        "trace.wrapper_s": to_ref * wrapper_s,
    })
    # The finer split of the harness group, for the report only.
    out["spans"] = {name: to_ref * seconds
                    for name, seconds in spans_s.items()}
    return out


def run_rounds(workload, budget_s: float, inst: layers.Instruments) -> list:
    """Run rounds until the next one would overrun ``budget_s`` (always at
    least one); returns one :class:`Timed` per round."""
    run_round = workload.run_round
    if inst.tracer is not None:
        run_round = inst.tracer.wrap(layers.ROOT, run_round)
    out = []
    begin = time.perf_counter()
    while True:
        inst.reset()
        with hostspeed.Sampler() as host:
            start = time.perf_counter()
            rnd = run_round()
            seconds = time.perf_counter() - start
        ref_s = host.to_reference(seconds)
        sample = (layer_metrics(inst, workload, rnd, ref_s / seconds)
                  if inst.tracer else inst.work.snapshot()["cpu.ops"])
        out.append(Timed(seconds, host.speed, ref_s, rnd, sample))
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(t.raw_s for t in out) > budget_s:
            return out


def check(workload, rounds: list, ops: list, quick: bool,
          errors: list) -> int:
    """Checks across all rounds of one run; returns the failed units.

    Rounds repeat the same inputs, so they must agree with each other
    (traced rounds included) and, for the default seed, with the outputs
    pinned in expected.json.  A disagreement fails every unit."""
    failed = sum(rnd.failed for rnd in rounds)
    for rnd in rounds:
        errors.extend(rnd.errors)
    units = sum(rnd.units for rnd in rounds)
    first = rounds[0]
    if any(rnd.digest != first.digest for rnd in rounds) \
            or len(set(ops)) != 1:
        errors.append(f"rounds of the same inputs disagree: digests "
                      f"{sorted({rnd.digest for rnd in rounds})}, "
                      f"simulated ops {sorted(set(ops))}")
        return units
    if workload.seed == 0 and not failed:
        pinned = json.loads(EXPECTED.read_text())[
            "quick" if quick else "full"][workload.name]
        if first.summary != pinned:
            errors.append(f"default-seed outputs {first.summary} differ "
                          f"from expected.json {pinned}")
            return units
    return failed


def measure(workload, args) -> dict:
    begin = time.perf_counter()
    untraced_budget = args.seconds / 3 if args.trace else args.seconds
    with layers.Instruments(traced=False) as inst:
        untraced = run_rounds(workload, untraced_budget, inst)
    rounds = [t.round for t in untraced]
    ops = [t.sample for t in untraced]
    result = {
        "round_s": [t.ref_s for t in untraced],
        "raw_round_s": [t.raw_s for t in untraced],
        "speed": [t.speed for t in untraced],
        "sim_ops": ops[0],
        "summary": rounds[0].summary,
        "paper": workload.paper,
        "extras": {key: statistics.median(rnd.extras[key] for rnd in rounds)
                   for key in rounds[0].extras},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        with layers.Instruments(traced=True) as inst:
            remaining = args.seconds - (time.perf_counter() - begin)
            traced = run_rounds(workload, remaining, inst)
        rounds += [t.round for t in traced]
        ops += [t.sample["cpu.ops"] for t in traced]
        result["traced_round_s"] = [t.ref_s for t in traced]
        result["layers"] = [t.sample for t in traced]
        result["overhead_x"] = (statistics.median(result["traced_round_s"])
                                / statistics.median(result["round_s"]))
        if args.spans:
            pathlib.Path(args.spans).write_text(
                json.dumps(inst.tracer.chrome_trace()))
    errors: list = []
    result["failed"] = check(workload, rounds, ops, args.quick, errors)
    result["attempted"] = sum(rnd.units for rnd in rounds)
    result["errors"] = errors
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.quick, workdir)
        SETUP_HOST.stop()
        print(f"READY {SETUP_HOST.speed!r} {SETUP_HOST.spent!r}", flush=True)
        if args.setup_only:
            return 0
        print(json.dumps(measure(workload, args)), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
