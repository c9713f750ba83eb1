"""Chaos campaign: fault injection with the sanitizer as oracle.

Each campaign case pairs a random fuzz schedule (families from
:mod:`repro.check.fuzz`) with a :func:`~repro.faults.plan.family_plan`
preset and runs it twice on the stress-prone fuzz machine: once fault-free
(the *twin*) and once with a :class:`~repro.faults.injector.FaultInjector`
attached.  Three oracles judge the faulted run exactly as the fuzzer
judges schedules:

1. the run itself (invariant violations, protocol errors, deadlocks,
   in-program load assertions),
2. the sanitizer's final full pass, and
3. the flushed memory image against the schedule's reference values
   (faults may never corrupt data — only detection accuracy).

A surviving case yields a :class:`~repro.faults.degradation.
DegradationReport` against its twin; a failing case has its fired-fault
list converted to a scripted plan, ddmin-shrunk with the fuzzer's
:func:`~repro.check.fuzz.shrink_schedule` (fault events are just another
shrinkable list), and rendered as a ready-to-paste pytest repro.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from repro.check.fuzz import (
    FAMILIES,
    Case,
    CampaignResult,
    Finding,
    FuzzOp,
    RunReport,
    ShrinkSession,
    campaign_cases,
    execute,
    fuzz_config,
    render_repro,
)
from repro.coherence.states import ProtocolMode
from repro.common.config import SystemConfig
from repro.faults.degradation import DegradationReport
from repro.faults.plan import CHAOS_FAMILIES, FaultPlan, family_plan

#: The differential oracle's checks under fault injection: faults may
#: legitimately corrupt detection accuracy and counter state, so verdict
#: and counter checks stay off.
FAULTED_CHECKS = dict(check_verdicts=False, check_counters=False)


def chaos_config(num_threads: int = 4,
                 shrunken_sam: bool = False) -> SystemConfig:
    """The fuzzer's stress machine, optionally with a 2-entry SAM so
    resource-pressure campaigns exercise SAM displacement constantly."""
    config = fuzz_config(num_threads)
    if shrunken_sam:
        config = config.with_protocol(sam_sets=1, sam_ways=2)
    return config


def run_chaos_case(
    schedule: List[FuzzOp],
    mode: ProtocolMode = ProtocolMode.FSLITE,
    plan: Optional[FaultPlan] = None,
    num_threads: int = 4,
    config: Optional[SystemConfig] = None,
    shrunken_sam: bool = False,
    sanitize: bool = True,
    mutation: Optional[str] = None,
    differential: bool = False,
) -> RunReport:
    """Execute one schedule under ``plan`` (None = fault-free twin) through
    :func:`repro.check.fuzz.execute`; never raises for protocol failures.

    With ``differential`` the atomic reference model additionally judges
    the final state (:func:`repro.check.diff.differential_check`).  Verdict
    and counter checks stay off — faults may legitimately corrupt detection
    accuracy — but memory bytes, the metadata subset property and mode
    purity must survive arbitrary fault injection (the paper's claim that
    faults degrade detection, never correctness).
    """
    config = config or chaos_config(num_threads, shrunken_sam=shrunken_sam)
    return execute(
        schedule, mode, num_threads, config, plan, sanitize=sanitize,
        mutation=mutation,
        differential=FAULTED_CHECKS if differential else None)[0]


# -------------------------------------------------------------- campaign


@dataclass
class ChaosCase:
    """One surviving campaign case and its degradation measurement."""

    index: int
    case_seed: int
    fault_family: str
    schedule_family: str
    mode: ProtocolMode
    report: DegradationReport


def chaos_campaign(
    iterations: int = 18,
    seed: int = 0,
    modes: Optional[List[ProtocolMode]] = None,
    fault_families: Optional[List[str]] = None,
    num_threads: int = 4,
    num_lines: int = 3,
    length: int = 80,
    intensity: float = 1.0,
    mutation: Optional[str] = None,
    differential: bool = False,
    shrink: bool = True,
    shrink_budget: int = 250,
    progress: Optional[Callable[[int, Case, RunReport], None]] = None,
) -> CampaignResult:
    """Run ``iterations`` (schedule, fault plan) cases; every failure is
    shrunk to a minimal fired-fault script and rendered as a pytest repro.

    Fully deterministic for a given ``seed`` and parameter set.  Fault
    families rotate fastest, then protocol modes, then schedule families;
    resource-pressure cases additionally run with a shrunken (2-entry)
    SAM so displacement pressure is constant.
    """
    axes = (("fault_family", fault_families or list(CHAOS_FAMILIES)),
            ("mode", modes or list(ProtocolMode)),
            ("family", FAMILIES))
    result = CampaignResult(iterations=iterations)
    for case, schedule in campaign_cases(iterations, seed, axes, num_threads,
                                         num_lines, length):
        shrunken_sam = case.fault_family == "pressure"
        plan = family_plan(case.fault_family, seed=case.case_seed,
                           intensity=intensity)
        case_config = chaos_config(num_threads, shrunken_sam=shrunken_sam)

        def run(the_plan: Optional[FaultPlan]) -> RunReport:
            return run_chaos_case(
                schedule, mode=case.mode, plan=the_plan,
                num_threads=num_threads, config=case_config,
                shrunken_sam=shrunken_sam,
                mutation=mutation, differential=differential)

        twin = run(None)
        faulted = run(plan)
        if progress is not None:
            progress(case.index, case, faulted)
        if twin.ok and faulted.ok:
            result.cases.append(ChaosCase(
                index=case.index, case_seed=case.case_seed,
                fault_family=case.fault_family,
                schedule_family=case.family, mode=case.mode,
                report=DegradationReport.from_stats(
                    faulted.stats, twin.stats, faulted.fired_by_kind())))
            continue
        if not twin.ok:
            # The schedule fails with *no* faults: a plain protocol bug the
            # fuzzer's oracles caught.  Report it without a fault plan.
            failing, repro_plan, shrunk = twin, None, []
        else:
            # Faulted run failed: convert the fired faults to a script,
            # verify the scripted replay still fails, then ddmin the event
            # list.  The schedule is fixed, so a candidate is known by its
            # fault events alone.
            session = ShrinkSession(
                lambda candidate: run(replace(plan, script=tuple(candidate))),
                key_of=lambda candidate: tuple(
                    (e.kind, e.opportunity) for e in candidate))
            shrunk = [f.event() for f in faulted.fired]
            replayable = session.fails(shrunk)
            if replayable and shrink:
                shrunk = session.shrink(shrunk, shrink_budget)
            failing = faulted
            repro_plan = (replace(plan, script=tuple(shrunk)) if replayable
                          else plan)
        failure = failing.failure
        result.findings.append(Finding(
            **vars(case), mutation=mutation, failure=failure,
            schedule=schedule, shrunk=shrunk, plan=repro_plan,
            fired=failing.fired,
            repro_source=render_repro(
                "chaos", schedule, [case.mode], mutation,
                f"{failure.stage}/{failure.kind}", case.case_seed,
                plan=repro_plan, shrunken_sam=shrunken_sam,
                differential=differential, num_threads=num_threads)))
    return result
