"""Command-line interface.

``python -m repro <command>``:

* ``run <tag>`` — simulate one workload under a protocol and print stats.
* ``compare <tag>`` — baseline vs FSDetect vs FSLite vs manual fix.
* ``detect <tag...>`` — FSDetect report: falsely-shared lines, contended
  truly-shared lines, conflict evidence.
* ``experiment <name>`` — run one paper experiment (fig02, fig13, fig14,
  fig15, fig16, fig17, traffic, sam_size, reader_opt, granularity,
  big_l1d, ooo, table2) and print its table.
* ``fuzz`` — random protocol testing: drive randomized load/store/RMW/
  evict schedules through the protocols with the online sanitizer
  attached, and shrink any failure to a minimal pytest repro.
* ``chaos`` — fault-injection campaigns: run fuzz schedules while a
  deterministic :mod:`repro.faults` injector drops/duplicates/delays
  metadata messages, corrupts PAM/SAM/counter state and forces evictions;
  every faulted run must stay sanitizer-clean and is compared against its
  fault-free twin (graceful degradation); failures shrink to scripted
  fault plans rendered as pytest repros.
* ``diff`` — differential conformance campaigns: replay random schedules
  on the detailed simulator under every protocol mode *and* on the atomic
  reference model (:mod:`repro.check.refmodel`), comparing final memory
  images, detection verdicts, metadata and cross-mode agreement; any
  divergence is ddmin-shrunk to a pytest repro.  ``--workload TAG``
  instead checks one harness workload against the reference.  ``--smoke``
  is the CI gate: ≥50 seeded schedules × 3 modes with zero divergences,
  plus every seeded protocol mutation caught by the differential oracle
  alone and shrunk to ≤10 ops.
* ``profile`` — run one workload under cProfile and print the hottest
  functions.
* ``trace <tag|experiment>`` — run one workload with the observability
  layer attached and export a Chrome-trace/Perfetto JSON timeline of its
  detection/privatization episodes and metric time series.
* ``trace-record <tag>`` — run one workload live and freeze its
  per-thread access streams into a binary ``.rtrace`` file
  (:mod:`repro.workloads.trace`).
* ``trace-run <path>`` — replay an ``.rtrace`` trace through the engine
  (streamed off disk; the trace's content digest keys the result cache)
  and print the run's stats.
* ``trace-info <path>`` — inspect an ``.rtrace`` file: header fields,
  and by default a full streaming scan verifying structure, per-thread
  op counts and the content digest.
* ``list`` — available workloads and experiments.

Every simulating command accepts ``--jobs N`` (fan simulations out over N
worker processes; 0 = one per CPU), ``--no-cache`` (skip the persistent
result cache) and ``--cache-dir PATH`` (cache location; defaults to
``$REPRO_CACHE_DIR`` or ``~/.cache/repro/engine``).  Results are
deterministic per spec, so cached and parallel runs are cycle-for-cycle
identical to fresh serial ones.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.check.fuzz import FAMILIES, fuzz_campaign
from repro.check.mutations import MUTATIONS
from repro.faults.plan import CHAOS_FAMILIES
from repro.coherence.states import ProtocolMode
from repro.common.config import ObsConfig, SystemConfig
from repro.common.errors import ReproError
from repro.harness import experiments as E
from repro.harness import profiling
from repro.harness.engine import Engine, default_cache_dir
from repro.harness.export import records_to_csv
from repro.harness.runner import RunSpec
from repro.workloads.registry import ALL_WORKLOADS, MICROBENCHMARKS, REGISTRY

EXPERIMENTS = {
    "fig02": E.fig02_manual_fix,
    "fig13": E.fig13_miss_fraction,
    "fig14": E.fig14_speedup_energy,
    "fig15": E.fig15_no_fs,
    "fig16": E.fig16_tau_p,
    "fig17": E.fig17_huron,
    "traffic": E.traffic_reduction,
    "sam_size": E.sam_size,
    "reader_opt": E.reader_opt,
    "granularity": E.granularity,
    "big_l1d": E.big_l1d,
    "ooo": E.ooo,
}


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for simulations "
                             "(0 = one per CPU; default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent "
                             "result cache")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/engine)")


def _add_campaign_args(parser: argparse.ArgumentParser, noun: str,
                       cases: str, iterations: int, shrink_budget: int,
                       smoke_help: str) -> None:
    """The flags the fuzz, chaos and diff campaigns share; ``noun`` names
    one campaign case and ``cases`` describes what ``--iterations``
    counts."""
    parser.add_argument("--iterations", type=int, default=iterations,
                        metavar="N",
                        help=f"number of {cases} (default {iterations})")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed; same seed, same campaign")
    parser.add_argument("--protocol", default="all",
                        choices=["all"] + [m.value for m in ProtocolMode],
                        help="protocol mode(s) to run (default all)")
    parser.add_argument("--mutate", metavar="NAME", default=None,
                        choices=sorted(MUTATIONS),
                        help="inject a known protocol mutation, so the "
                             "campaign should fail "
                             f"({', '.join(sorted(MUTATIONS))})")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--lines", type=int, default=3,
                        help="distinct cache lines per schedule (default 3)")
    parser.add_argument("--length", type=int, default=80,
                        help="ops per schedule (default 80)")
    parser.add_argument("--no-shrink", action="store_true",
                        help=f"report raw failing {noun}s without "
                             "delta-debugging them")
    parser.add_argument("--shrink-budget", type=int, default=shrink_budget,
                        metavar="N",
                        help="max re-executions the shrinker may spend "
                             f"(default {shrink_budget})")
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    parser.add_argument("--out", metavar="PATH",
                        help="write generated pytest repros to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help=f"suppress per-{noun} progress output")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FSDetect/FSLite reproduction (MICRO 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("tag", choices=sorted(REGISTRY))
    run_p.add_argument("--protocol", default="mesi",
                       choices=[m.value for m in ProtocolMode])
    run_p.add_argument("--layout", default="packed",
                       choices=["packed", "padded", "huron"])
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--threads", type=int, default=4)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--core", default="inorder",
                       choices=["inorder", "ooo"])
    run_p.add_argument("--sanitize", action="store_true",
                       help="run with the online protocol sanitizer "
                            "attached (invariant violations abort the run)")
    run_p.add_argument("--csv", metavar="PATH",
                       help="append the flattened record to a CSV file")
    run_p.add_argument("--obs", action="store_true",
                       help="attach the observability layer (episode "
                            "tracker + metrics sampler) and print a "
                            "summary")
    run_p.add_argument("--obs-out", metavar="PATH",
                       help="also export the run's Chrome-trace JSON to "
                            "PATH (implies --obs)")
    run_p.add_argument("--progress", action="store_true",
                       help="print per-spec progress plus the engine's "
                            "batch counters (runs, cache hits, dedup, "
                            "retries, quarantines) to stderr")
    _add_engine_args(run_p)

    cmp_p = sub.add_parser("compare",
                           help="baseline vs FSDetect vs FSLite vs manual")
    cmp_p.add_argument("tag", choices=sorted(REGISTRY))
    cmp_p.add_argument("--scale", type=float, default=1.0)
    _add_engine_args(cmp_p)

    det_p = sub.add_parser("detect", help="FSDetect profiling report")
    det_p.add_argument("tags", nargs="+", choices=sorted(REGISTRY))
    det_p.add_argument("--scale", type=float, default=0.5)
    _add_engine_args(det_p)

    exp_p = sub.add_parser("experiment", help="run one paper experiment")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS) + ["table2"])
    exp_p.add_argument("--scale", type=float, default=1.0)
    exp_p.add_argument("--progress", action="store_true",
                       help="print per-spec progress/timing to stderr")
    _add_engine_args(exp_p)

    fuzz_p = sub.add_parser("fuzz", help="random protocol testing with the "
                                         "online sanitizer")
    _add_campaign_args(fuzz_p, "schedule", "random schedules", 30, 400,
                       "small fixed CI campaign (one 40-op schedule per "
                       "mode x family pair)")
    fuzz_p.add_argument("--family", default="all",
                        choices=["all"] + list(FAMILIES),
                        help="schedule family (default all)")
    fuzz_p.add_argument("--differential", action="store_true",
                        help="additionally judge every schedule against "
                             "the atomic reference model (repro.check.diff)")

    chaos_p = sub.add_parser(
        "chaos", help="fault-injection campaigns with graceful-degradation "
                      "checking")
    _add_campaign_args(chaos_p, "case", "(schedule, fault plan) cases", 18,
                       250, "small fixed CI campaign (one 40-op case per "
                            "mode x fault-family pair; also requires every "
                            "family to show degradation)")
    chaos_p.add_argument("--fault-family", default="all",
                         choices=["all"] + list(CHAOS_FAMILIES),
                         help="fault family: message, metadata or pressure "
                              "(default all, rotating)")
    chaos_p.add_argument("--intensity", type=float, default=1.0,
                         help="scale factor on every fault rate "
                              "(default 1.0)")
    chaos_p.add_argument("--differential", action="store_true",
                         help="additionally judge every faulted run's "
                              "memory/metadata against the atomic "
                              "reference model (verdict and counter "
                              "checks stay off: faults may corrupt those)")

    diff_p = sub.add_parser(
        "diff", help="differential conformance campaigns against the "
                     "atomic reference model")
    _add_campaign_args(diff_p, "schedule", "random schedules, each replayed "
                       "on every selected mode", 30, 400,
                       "CI gate: 51 seeded 40-op schedules x 3 modes with "
                       "zero divergences, plus every seeded mutation caught "
                       "and shrunk to <=10 ops")
    diff_p.add_argument("--family", default="all",
                        choices=["all"] + list(FAMILIES),
                        help="schedule family (default all)")
    diff_p.add_argument("--workload", metavar="TAG", default=None,
                        choices=sorted(REGISTRY),
                        help="instead of random schedules, differentially "
                             "check one harness workload under every "
                             "selected mode")
    diff_p.add_argument("--scale", type=float, default=0.5,
                        help="workload scale for --workload (default 0.5)")

    prof_p = sub.add_parser("profile", help="profile one workload run "
                                            "under cProfile")
    prof_p.add_argument("tag", choices=sorted(REGISTRY))
    prof_p.add_argument("--protocol", default="mesi",
                        choices=[m.value for m in ProtocolMode])
    prof_p.add_argument("--layout", default="packed",
                        choices=["packed", "padded", "huron"])
    prof_p.add_argument("--scale", type=float, default=1.0)
    prof_p.add_argument("--threads", type=int, default=4)
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument("--core", default="inorder",
                        choices=["inorder", "ooo"])
    prof_p.add_argument("--sanitize", action="store_true",
                        help="profile with the online sanitizer attached "
                             "(shows the hook-path overhead)")
    prof_p.add_argument("--sort", default=profiling.DEFAULT_SORT,
                        choices=profiling.SORT_KEYS,
                        help="pstats sort key (default cumulative; use "
                             "tottime for hot leaf functions)")
    prof_p.add_argument("--top", type=int, default=profiling.DEFAULT_LIMIT,
                        metavar="N",
                        help=f"entries to print "
                             f"(default {profiling.DEFAULT_LIMIT})")
    prof_p.add_argument("--stats-out", metavar="PATH",
                        help="also dump the raw profile for pstats/snakeviz")

    trc_p = sub.add_parser("trace", help="export a Chrome-trace/Perfetto "
                                         "timeline of one observed run")
    trc_p.add_argument("target", nargs="?", default="RC",
                       help="workload tag or experiment name (an experiment "
                            "maps to a representative workload; default RC)")
    trc_p.add_argument("--protocol", default="fslite",
                       choices=[m.value for m in ProtocolMode])
    trc_p.add_argument("--layout", default="packed",
                       choices=["packed", "padded", "huron"])
    trc_p.add_argument("--scale", type=float, default=1.0)
    trc_p.add_argument("--threads", type=int, default=4)
    trc_p.add_argument("--seed", type=int, default=0)
    trc_p.add_argument("--sample-period", type=int, default=2000,
                       metavar="CYCLES",
                       help="cycles between metric samples (default 2000)")
    trc_p.add_argument("--out", metavar="PATH",
                       help="trace file to write (default trace_<tag>.json)")
    trc_p.add_argument("--smoke", action="store_true",
                       help="small fixed CI run (ww microbenchmark at "
                            "scale 0.1)")
    _add_engine_args(trc_p)

    rec_p = sub.add_parser(
        "trace-record", help="freeze one workload's access streams into a "
                             "binary .rtrace file")
    rec_p.add_argument("tag", choices=sorted(REGISTRY))
    rec_p.add_argument("--out", metavar="PATH", required=True,
                       help=".rtrace file to write")
    rec_p.add_argument("--protocol", default="mesi",
                       choices=[m.value for m in ProtocolMode],
                       help="capture mode (replay under the same mode is "
                            "cycle-identical to the live run; default mesi)")
    rec_p.add_argument("--layout", default="packed",
                       choices=["packed", "padded", "huron"])
    rec_p.add_argument("--scale", type=float, default=1.0)
    rec_p.add_argument("--threads", type=int, default=4)
    rec_p.add_argument("--seed", type=int, default=0)
    rec_p.add_argument("--core", default="inorder",
                       choices=["inorder", "ooo"])
    rec_p.add_argument("--chunk-ops", type=int, default=4096, metavar="N",
                       help="ops per compressed frame (default 4096)")

    trun_p = sub.add_parser(
        "trace-run", help="replay an .rtrace trace through the engine "
                          "(streamed off disk)")
    trun_p.add_argument("path", help=".rtrace file to replay")
    trun_p.add_argument("--protocol", default=None,
                        choices=[m.value for m in ProtocolMode],
                        help="replay mode (default: the capture mode "
                             "recorded in the trace metadata)")
    trun_p.add_argument("--check", action="store_true",
                        help="fully verify the trace (structure, counts, "
                             "content digest) before replaying")
    _add_engine_args(trun_p)

    tinfo_p = sub.add_parser(
        "trace-info", help="inspect an .rtrace file header and verify its "
                           "content digest")
    tinfo_p.add_argument("path", help=".rtrace file to inspect")
    tinfo_p.add_argument("--quick", action="store_true",
                         help="header only; skip the full streaming scan")

    sub.add_parser("list", help="available workloads and experiments")
    return parser


def _print_progress(done, total, spec, seconds, source) -> None:
    note = "cached" if source == "cache" else f"{seconds:.2f}s"
    print(f"[{done}/{total}] {spec.tag} {spec.mode.value} {spec.layout} "
          f"({note})", file=sys.stderr)


def _print_engine_stats(engine: Engine) -> None:
    s = engine.stats
    print(f"engine: {s['executed']} executed, {s['cache_hits']} cache "
          f"hit(s), {s['deduped']} deduped, {s['retries']} retry(ies), "
          f"{s['quarantined']} quarantined", file=sys.stderr)


def _engine_from_args(args, progress=None) -> Engine:
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir:
        cache_dir = args.cache_dir
    else:
        cache_dir = default_cache_dir()
    return Engine(jobs=args.jobs, cache_dir=cache_dir, progress=progress)


def _cmd_run(args) -> int:
    engine = _engine_from_args(
        args, progress=_print_progress if args.progress else None)
    config = SystemConfig().with_sanitizer() if args.sanitize else None
    obs = ObsConfig() if (args.obs or args.obs_out) else None
    spec = RunSpec(tag=args.tag, mode=ProtocolMode(args.protocol),
                   layout=args.layout, config=config, scale=args.scale,
                   num_threads=args.threads, seed=args.seed,
                   core_model=args.core, obs=obs)
    record = engine.run_one(spec)
    if args.progress:
        _print_engine_stats(engine)
    for key, value in record.stats.summary().items():
        print(f"{key:22s} {value}")
    if args.sanitize:
        checked = record.extra.get("sanitizer_blocks_checked", "?")
        print(f"{'sanitizer':22s} clean ({checked} block states checked)")
    if obs is not None:
        payload = record.extra["obs"]
        episodes = payload.get("episodes", [])
        samples = len(payload.get("metrics", {}).get("series", []))
        print(f"{'obs':22s} {len(episodes)} episode(s), "
              f"{samples} metric sample(s)")
        if args.obs_out:
            from repro.obs import trace_from_record, write_chrome_trace

            write_chrome_trace(args.obs_out, trace_from_record(record))
            print(f"trace written to {args.obs_out}")
    if args.csv:
        records_to_csv([record], args.csv)
        print(f"record written to {args.csv}")
    return 0


def _cmd_compare(args) -> int:
    engine = _engine_from_args(args)
    records = engine.run_keyed({
        "mesi": RunSpec(tag=args.tag, scale=args.scale),
        "fsdetect": RunSpec(tag=args.tag, mode=ProtocolMode.FSDETECT,
                            scale=args.scale),
        "fslite": RunSpec(tag=args.tag, mode=ProtocolMode.FSLITE,
                          scale=args.scale),
        "manual-fix": RunSpec(tag=args.tag, layout="padded",
                              scale=args.scale),
    })
    base = records["mesi"]
    print(f"{'variant':12s} {'cycles':>10s} {'speedup':>8s} {'miss':>7s} "
          f"{'energy':>7s} {'priv':>5s}")
    for name in ("mesi", "fsdetect", "fslite", "manual-fix"):
        rec = records[name]
        print(f"{name:12s} {rec.cycles:10d} "
              f"{base.cycles / rec.cycles:8.2f} "
              f"{rec.l1_miss_rate:7.2%} "
              f"{rec.energy_nj / base.energy_nj:7.2f} "
              f"{rec.stats.privatizations:5d}")
    return 0


def _cmd_detect(args) -> int:
    engine = _engine_from_args(args)
    records = engine.run_many([
        RunSpec(tag=tag, mode=ProtocolMode.FSDETECT, scale=args.scale)
        for tag in args.tags])
    for tag, record in zip(args.tags, records):
        stats = record.stats
        lines = sorted({r.block_addr for r in stats.reports})
        print(f"\n{tag}: {len(stats.reports)} false-sharing instance(s) "
              f"on {len(lines)} line(s)")
        for report in stats.reports[:5]:
            print(f"  {report}")
        contended = stats.extra.get("contended_lines", [])
        if contended:
            print(f"  {len(contended)} contended truly-shared line "
                  f"report(s) (likely synchronization variables):")
            for rep in contended[:3]:
                print(f"    {rep}")
        conflicts = stats.extra.get("true_sharing_conflicts", [])
        if conflicts:
            print(f"  {len(conflicts)} byte-level true-sharing "
                  f"observation(s) recorded")
    return 0


def _cmd_experiment(args) -> int:
    if args.name == "table2":
        print(E.table2_overheads().render())
        return 0
    progress = _print_progress if args.progress else None
    engine = _engine_from_args(args, progress=progress)
    result = EXPERIMENTS[args.name](scale=args.scale, engine=engine)
    if args.progress:
        _print_engine_stats(engine)
    print(result.render())
    return 0


def _campaign_modes(args) -> List[ProtocolMode]:
    return (list(ProtocolMode) if args.protocol == "all"
            else [ProtocolMode(args.protocol)])


def _campaign_kwargs(args, smoke_iterations: int, describe) -> dict:
    """The campaign keyword arguments the shared flags give.

    ``--smoke`` (the small, fixed, deterministic CI campaign) runs every
    mode, ``smoke_iterations`` cases and 40-op schedules.  Unless
    ``--quiet``, progress goes to stderr, ``describe(case, report)``
    giving the text after each case's counter."""
    iterations = smoke_iterations if args.smoke else args.iterations

    def progress(index, case, report):
        print(f"[{index + 1}/{iterations}] {describe(case, report)}",
              file=sys.stderr)

    return dict(
        iterations=iterations,
        seed=args.seed,
        modes=list(ProtocolMode) if args.smoke else _campaign_modes(args),
        num_threads=args.threads,
        num_lines=args.lines,
        length=40 if args.smoke else args.length,
        mutation=args.mutate,
        shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget,
        progress=None if args.quiet else progress,
    )


def _report_findings(args, result, noun: str, describe) -> int:
    """Print a failing campaign's findings, then its pytest repros to
    ``--out`` or stdout; ``describe(finding)`` gives each finding's lines
    after its case seed.  Returns the exit code."""
    print(f"{args.command}: {len(result.findings)} {noun} out of "
          f"{result.iterations} (seed {args.seed})")
    for f in result.findings:
        heading, *details = describe(f)
        print(f"\ncase seed {f.case_seed}: {heading}")
        for line in details:
            print(f"  {line}")
    repros = "\n\n".join(f.repro_source for f in result.findings)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(repros + "\n")
        print(f"\npytest repro(s) written to {args.out}")
    else:
        print("\n# --- minimal pytest repro(s) ---\n")
        print(repros)
    return 1


def _shrunk_schedule(f) -> str:
    return f"schedule: {len(f.schedule)} op(s), shrunk to {len(f.shrunk)}"


def _mutation_note(f) -> str:
    return f" +{f.mutation}" if f.mutation else ""


def _families(args) -> List[str]:
    return (list(FAMILIES) if args.smoke or args.family == "all"
            else [args.family])


def _cmd_fuzz(args) -> int:
    def describe(case, report):
        status = "ok" if report.ok else report.failure.describe()
        return f"{case.mode.value:9s} {case.family:9s} {status}"

    # --smoke: one schedule per (mode, family) pair.
    result = fuzz_campaign(
        families=_families(args), differential=args.differential,
        **_campaign_kwargs(args, len(ProtocolMode) * len(FAMILIES),
                           describe))
    if result.ok:
        oracle = " + differential oracle" if args.differential else ""
        print(f"fuzz: {result.iterations} schedule(s), no failures"
              f"{oracle} (seed {args.seed})")
        return 0
    return _report_findings(args, result, "failing schedule(s)", lambda f: (
        f"{f.mode.value}/{f.family}{_mutation_note(f)}",
        f.failure.describe(), _shrunk_schedule(f)))


def _cmd_chaos(args) -> int:
    from repro.faults.chaos import chaos_campaign

    fault_families = (list(CHAOS_FAMILIES)
                      if args.smoke or args.fault_family == "all"
                      else [args.fault_family])

    def describe(case, report):
        if report.ok:
            fired = sum(report.fired_by_kind().values())
            status = f"ok ({fired} fault(s) fired)"
        else:
            status = report.failure.describe()
        return f"{case.mode.value:9s} {case.fault_family:9s} {status}"

    # --smoke: one case per (mode, fault family) pair — the CI gate.
    result = chaos_campaign(
        fault_families=fault_families, intensity=args.intensity,
        differential=args.differential,
        **_campaign_kwargs(args, len(ProtocolMode) * len(CHAOS_FAMILIES),
                           describe))
    fired = result.family_fired()
    degraded = result.family_degraded()
    for family in sorted(fired):
        note = ("degradation measured" if degraded[family]
                else "no degradation observed")
        print(f"chaos: {family:9s} {fired[family]:4d} fault(s) fired, "
              f"{note}")
    if result.ok:
        print(f"chaos: {result.iterations} case(s), every faulted run "
              f"sanitizer-clean and terminating (seed {args.seed})")
        # The smoke gate additionally demands that injection is non-vacuous:
        # each exercised family must have measurably perturbed some run.
        if args.smoke and not all(degraded[f] for f in fault_families):
            missing = [f for f in fault_families if not degraded[f]]
            print(f"chaos: error: fault family(ies) with no measured "
                  f"degradation: {', '.join(missing)}", file=sys.stderr)
            return 1
        return 0
    return _report_findings(args, result, "failing case(s)", lambda f: (
        f"{f.mode.value}/{f.fault_family} on a {f.family} schedule",
        f.failure.describe(),
        "fault-free twin failed: plain protocol bug (see fuzz repro)"
        if f.plan is None else
        f"{len(f.fired)} fault(s) fired, script shrunk to "
        f"{len(f.shrunk)} event(s)"))


def _cmd_diff(args) -> int:
    from repro.check.diff import (
        diff_campaign,
        diff_workload,
        mutation_escape_sweep,
    )

    if args.workload is not None:
        # Workload-level differential check: detailed machine vs atomic
        # round-robin execution of the same generator programs.
        failures = 0
        for mode in _campaign_modes(args):
            spec = RunSpec(tag=args.workload, mode=mode, scale=args.scale,
                           num_threads=args.threads, seed=args.seed)
            report = diff_workload(spec)
            status = ("ok" if report.ok
                      else f"DIVERGED\n{report.describe()}")
            print(f"diff: {args.workload} {mode.value:9s} "
                  f"{report.blocks_compared} block(s) compared: {status}")
            failures += 0 if report.ok else 1
        return 1 if failures else 0

    def describe(case, report):
        status = ("ok" if report.ok
                  else report.divergences[0].describe())
        return (f"{case.family:9s} {report.blocks_compared:3d} block(s) "
                f"{status}")

    # --smoke, the CI gate: 51 seeded schedules, every one replayed on all
    # three modes and the atomic reference — then the mutation-escape
    # sweep proving the oracle catches every seeded protocol bug.
    kwargs = _campaign_kwargs(args, 51, describe)
    result = diff_campaign(families=_families(args), **kwargs)
    exit_code = 0
    if result.ok:
        print(f"diff: {result.iterations} schedule(s) x "
              f"{len(kwargs['modes'])} mode(s), {result.blocks_compared} "
              f"block comparison(s), no divergence (seed {args.seed})")
    else:
        exit_code = _report_findings(
            args, result, "diverging schedule(s)", lambda f: (
                f"{f.family}{_mutation_note(f)}",
                f.failure.detail.splitlines()[0], _shrunk_schedule(f)))
    if args.smoke:
        # Second half of the gate: the oracle must have teeth.  Every
        # seeded mutation caught by the differential comparison alone,
        # shrunk to a handful of ops.
        def show(escape):
            if escape.caught:
                status = (f"caught in {len(escape.shrunk)} op(s) "
                          f"({escape.detail.splitlines()[0]})")
            else:
                status = f"ESCAPED after {escape.attempts} attempt(s)"
            print(f"diff: mutation {escape.mutation:28s} {status}",
                  file=sys.stderr)

        sweep = mutation_escape_sweep(
            seed=args.seed, progress=None if args.quiet else show)
        escaped = sorted(name for name, e in sweep.items() if not e.caught)
        oversize = sorted(name for name, e in sweep.items()
                          if e.caught and len(e.shrunk) > 10)
        if escaped or oversize:
            if escaped:
                print(f"diff: error: mutation(s) escaped the differential "
                      f"oracle: {', '.join(escaped)}", file=sys.stderr)
            if oversize:
                print(f"diff: error: mutation repro(s) not shrunk to <=10 "
                      f"ops: {', '.join(oversize)}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"diff: all {len(sweep)} seeded mutation(s) caught by "
                  f"the differential oracle alone, each shrunk to "
                  f"<=10 ops")
    return exit_code


def _cmd_profile(args) -> int:
    config = SystemConfig().with_sanitizer() if args.sanitize else None
    spec = RunSpec(tag=args.tag, mode=ProtocolMode(args.protocol),
                   layout=args.layout, config=config, scale=args.scale,
                   num_threads=args.threads, seed=args.seed,
                   core_model=args.core)
    profiling.profile_spec(spec, sort=args.sort, limit=args.top,
                           stats_out=args.stats_out)
    return 0


#: Representative workload traced when the target names an experiment:
#: fig15 studies the no-false-sharing applications, everything else is
#: dominated by the falsely-sharing ones.
_TRACE_EXPERIMENT_TAG = {"fig15": "FA"}


def _cmd_trace(args) -> int:
    from repro.obs import trace_from_record, write_chrome_trace

    target = args.target
    if target in REGISTRY:
        tag = target
    elif target in EXPERIMENTS:
        tag = _TRACE_EXPERIMENT_TAG.get(target, "RC")
        print(f"tracing representative workload {tag} for {target}",
              file=sys.stderr)
    else:
        print(f"repro: error: unknown trace target {target!r} (expected a "
              f"workload tag or experiment name)", file=sys.stderr)
        return 2
    scale = args.scale
    if args.smoke:
        tag, scale = "ww", min(scale, 0.1)
    engine = _engine_from_args(args)
    spec = RunSpec(tag=tag, mode=ProtocolMode(args.protocol),
                   layout=args.layout, scale=scale,
                   num_threads=args.threads, seed=args.seed,
                   obs=ObsConfig(sample_period=args.sample_period))
    record = engine.run_one(spec)
    trace = trace_from_record(record)
    out = args.out or f"trace_{tag}.json"
    write_chrome_trace(out, trace)

    payload = record.extra["obs"]
    episodes = payload.get("episodes", [])
    flagged = sorted({e["block_addr"] for e in episodes
                      if e["flag_cycle"] is not None})
    causes: dict = {}
    for episode in episodes:
        cause = episode["termination_cause"]
        if cause is not None and cause != "report":
            causes[cause] = causes.get(cause, 0) + 1
    samples = len(payload.get("metrics", {}).get("series", []))
    print(f"{tag} {spec.mode.value}: {record.cycles} cycles, "
          f"{len(episodes)} episode(s) on {len(flagged)} block(s), "
          f"{samples} metric sample(s)")
    for cause, count in sorted(causes.items()):
        print(f"  terminations[{cause}] = {count}")
    print(f"trace written to {out} "
          f"({len(trace['traceEvents'])} events; open in "
          f"https://ui.perfetto.dev or chrome://tracing)")

    # Consistency: the spans must tell the same story as the FsReport.
    reported = sorted({r.block_addr for r in record.stats.reports})
    stat_terms = {c: n for c, n in record.stats.terminations.items() if n}
    ok = True
    if flagged != reported:
        print(f"repro: trace/FsReport mismatch: episode blocks {flagged} "
              f"vs reported blocks {reported}", file=sys.stderr)
        ok = False
    if causes != stat_terms:
        print(f"repro: trace/stats mismatch: episode terminations {causes} "
              f"vs slice counters {stat_terms}", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def _cmd_trace_record(args) -> int:
    import os

    from repro.workloads.trace import record_trace

    spec = RunSpec(tag=args.tag, mode=ProtocolMode(args.protocol),
                   layout=args.layout, scale=args.scale,
                   num_threads=args.threads, seed=args.seed,
                   core_model=args.core)
    info, record = record_trace(spec, args.out, chunk_ops=args.chunk_ops)
    size = os.path.getsize(info.path)
    per_op = size / info.total_ops if info.total_ops else 0.0
    print(f"recorded {info.total_ops} op(s) from {args.tag} under "
          f"{spec.mode.value} in {record.cycles} cycle(s)")
    print(f"trace    {info.path} ({size} bytes, {per_op:.2f} B/op)")
    print(f"digest   {info.digest}")
    print(f"replay   python -m repro.cli trace-run {info.path}")
    return 0


def _cmd_trace_run(args) -> int:
    from repro.workloads.trace import trace_spec, verify_trace

    if args.check:
        info = verify_trace(args.path)
        print(f"verified {info.total_ops} op(s), digest ok", file=sys.stderr)
    spec = trace_spec(args.path, mode=args.protocol)
    engine = _engine_from_args(args)
    record = engine.run_one(spec)
    print(f"replayed {spec.trace.digest[:12]}… under {spec.mode.value} "
          f"({spec.num_threads} thread(s))")
    for key, value in record.stats.summary().items():
        print(f"{key:22s} {value}")
    return 0


def _cmd_trace_info(args) -> int:
    from repro.workloads.trace import trace_info, verify_trace

    info = trace_info(args.path) if args.quick else verify_trace(args.path)
    print(f"path        {info.path}")
    print(f"version     {info.version}")
    print(f"threads     {info.num_threads}")
    print(f"line size   {info.block_size} B")
    print(f"total ops   {info.total_ops}")
    print(f"digest      {info.digest}")
    source = info.meta.get("source")
    if isinstance(source, dict) and source:
        print("source      "
              + " ".join(f"{k}={v}" for k, v in sorted(source.items())))
    if "profile" in info.meta:
        print("synthesized from a sharing profile")
    if info.per_thread_ops is not None:
        print(f"ops/thread  {info.per_thread_ops}")
        for kind, count in (info.kind_counts or {}).items():
            print(f"  {kind:10s} {count}")
        print("verified    structure, counts and content digest ok")
    return 0


def _cmd_list(_args) -> int:
    print("Applications with false sharing (Table III):")
    print("  " + " ".join(t for t in ALL_WORKLOADS
                          if REGISTRY[t].has_false_sharing))
    print("Applications without false sharing:")
    print("  " + " ".join(t for t in ALL_WORKLOADS
                          if not REGISTRY[t].has_false_sharing))
    print("Microbenchmarks:")
    print("  " + " ".join(MICROBENCHMARKS))
    print("Experiments:")
    print("  " + " ".join(sorted(EXPERIMENTS) + ["table2"]))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "detect": _cmd_detect,
        "experiment": _cmd_experiment,
        "fuzz": _cmd_fuzz,
        "chaos": _cmd_chaos,
        "diff": _cmd_diff,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "trace-record": _cmd_trace_record,
        "trace-run": _cmd_trace_run,
        "trace-info": _cmd_trace_info,
        "list": _cmd_list,
    }[args.command]
    try:
        return handler(args)
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
