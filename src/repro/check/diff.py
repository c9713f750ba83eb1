"""Differential conformance harness: detailed simulator vs atomic model.

The driver replays one schedule on both machines and compares everything
the paper makes claims about:

* **memory** — the detailed machine's flushed final image must equal the
  atomic model's byte-for-byte (FSLite's SAM byte-merge must reconstruct
  exactly what a conventional machine produces);
* **verdicts** — every flagged/privatized block must be one at least two
  cores really accessed (IC > 0 requires a second requesting core, so a
  single-core flag is unsound);
* **mode purity** — FSDetect is stats-only: zero privatizations, no PRV
  states anywhere, none of the privatization message vocabulary on the
  wire; baseline MESI additionally sends no metadata messages;
* **metadata** — SAM last-writers/readers and PAM read/write bits must be
  sub-approximations of the ground-truth access sets (detection hardware
  may forget accesses, never invent them);
* **counters** — FC/IC within ``counter_max``, HC within
  ``hysteresis_max`` (the 7-/2-bit fields of Figure 5c).

On top of the per-mode checks, :func:`run_differential` adds the
*metamorphic cross-mode* oracle: baseline vs FSDetect vs FSLite replay the
identical op stream, so their final memory images must agree byte-for-byte
regardless of how detection or privatization interleaved the traffic.

:func:`diff_campaign` drives seeded random campaigns with ddmin shrinking
(:func:`repro.check.fuzz.shrink_schedule` — every sub-schedule is a valid
program, and the atomic reference recomputes its expected outcome from
scratch), and :func:`hunt_mutation_escape` demonstrates the oracle has
teeth: each seeded protocol mutation of :mod:`repro.check.mutations` is
caught by the differential comparison *alone* — no sanitizer, no embedded
load assertions — and shrunk to a handful of ops.

CLI: ``python -m repro diff`` (``--smoke`` is the CI gate).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.fuzz import (
    FAMILIES,
    Case,
    CampaignResult,
    FuzzFailure,
    FuzzOp,
    ShrinkSession,
    _split,
    campaign_cases,
    execute,
    fuzz_config,
    render_repro,
    schedule_campaign,
    schedule_to_ops,
)
from repro.check.mutations import MUTATIONS, mutation_context
from repro.check.refmodel import RefResult, run_programs_atomic, run_reference
from repro.coherence.states import DirState, L1State, ProtocolMode
from repro.common.bitvec import iter_set_bits
from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.common.statkeys import SLICE_PRIVATIZATIONS
from repro.interconnect.message import FSLITE_TYPES, MessageType
from repro.system.builder import Machine
from repro.system.simulator import flush_machine_memory

#: Message types only the FSLite privatization engine may ever send.
PRV_TYPES = frozenset(FSLITE_TYPES - {MessageType.REP_MD,
                                      MessageType.PHANTOM_MD})


@dataclass
class Divergence:
    """One disagreement between the detailed machine and the reference."""

    kind: str  # memory | verdict | mode-purity | sam | pam | counter |
    #          # cross-mode | run | workload-verify
    mode: Optional[ProtocolMode]
    block: Optional[int]
    detail: str

    def describe(self) -> str:
        where = f" block {self.block:#x}" if self.block is not None else ""
        mode = f" [{self.mode.value}]" if self.mode is not None else ""
        return f"{self.kind}{mode}{where}: {self.detail}"


@dataclass
class DiffReport:
    """Outcome of one differential comparison."""

    divergences: List[Divergence] = field(default_factory=list)
    blocks_compared: int = 0
    modes_run: List[ProtocolMode] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.ok:
            return (f"no divergence over {self.blocks_compared} block(s), "
                    f"modes {[m.value for m in self.modes_run]}")
        return "\n".join(d.describe() for d in self.divergences)

    @property
    def failure(self) -> Optional[FuzzFailure]:
        """The report as a campaign failure: the first divergence's kind,
        every divergence's description."""
        if self.ok:
            return None
        return FuzzFailure("differential", self.divergences[0].kind,
                           self.describe())


# ------------------------------------------------------------ per-machine


def differential_check(
    machine: Machine,
    ref: RefResult,
    image=None,
    check_memory: bool = True,
    check_verdicts: bool = True,
    check_mode_purity: bool = True,
    check_metadata: bool = True,
    check_counters: bool = True,
) -> DiffReport:
    """Compare one finished detailed machine against the atomic reference.

    Pure post-run inspection: reads the machine's caches, SAM/PAM tables,
    counters and network accounting, never perturbing them, so it can be
    layered onto any existing run (the fuzzer's, the chaos driver's, a
    hand-built one).  Under fault injection disable ``check_verdicts`` and
    ``check_counters``: faults may legitimately corrupt detection accuracy
    and counter state — but never memory or the metadata subset property.
    """
    mode = machine.mode
    report = DiffReport(modes_run=[mode])
    out = report.divergences
    if image is None:
        image = flush_machine_memory(machine)

    if check_memory:
        for block in ref.blocks():
            want = ref.image.get(block)
            got = bytes(image.get(block))
            report.blocks_compared += 1
            if got != want:
                byte = next(i for i in range(len(want)) if got[i] != want[i])
                out.append(Divergence(
                    "memory", mode, block,
                    f"byte {byte}: machine {got[byte]:#04x} != "
                    f"reference {want[byte]:#04x}"))

    detectors = [sl.detector for sl in machine.slices
                 if sl.detector is not None]

    if check_verdicts:
        multi = ref.multi_core_blocks()
        for detector in detectors:
            for rep in detector.reports:
                if rep.block_addr not in multi:
                    out.append(Divergence(
                        "verdict", mode, rep.block_addr,
                        f"flagged (privatized={rep.privatized}) but only "
                        f"one core ever accessed the block"))
        for sl in machine.slices:
            for entry in sl.llc.iter_valid():
                if entry.payload.state == DirState.PRV:
                    addr = sl.llc.addr_of(entry)
                    if addr not in multi:
                        out.append(Divergence(
                            "verdict", mode, addr,
                            "left privatized but single-core"))

    if check_mode_purity and mode is not ProtocolMode.FSLITE:
        stats = machine.network.stats
        forbidden = (FSLITE_TYPES if mode is ProtocolMode.MESI
                     else PRV_TYPES)
        for mtype in sorted(forbidden, key=lambda t: t.value):
            count = stats.count_of_type(mtype)
            if count:
                out.append(Divergence(
                    "mode-purity", mode, None,
                    f"{count} {mtype.name} message(s) under "
                    f"{mode.value}"))
        privatizations = sum(sl.stats.get(SLICE_PRIVATIZATIONS, 0)
                             for sl in machine.slices)
        if privatizations:
            out.append(Divergence(
                "mode-purity", mode, None,
                f"{privatizations} privatization(s) under {mode.value}"))
        for l1 in machine.l1s:
            for entry in l1.cache.iter_valid():
                if entry.payload.state == L1State.PRV:
                    out.append(Divergence(
                        "mode-purity", mode, l1.cache.addr_of(entry),
                        f"L1[{l1.core_id}] line in PRV under "
                        f"{mode.value}"))
        for sl in machine.slices:
            for entry in sl.llc.iter_valid():
                if entry.payload.state == DirState.PRV:
                    out.append(Divergence(
                        "mode-purity", mode, sl.llc.addr_of(entry),
                        f"directory entry in PRV under {mode.value}"))

    if check_metadata:
        for detector in detectors:
            for block in detector.sam.resident_blocks():
                entry = detector.sam.peek(block)
                truth = ref.truth.get(block)
                true_r = truth.read_bits if truth is not None else {}
                true_w = truth.write_bits if truth is not None else {}
                bad_writes = [writes & ~true_w.get(core, 0) for core, writes
                              in enumerate(entry.write_masks)]
                bad_reads = [reads & ~true_r.get(core, 0) for core, reads
                             in enumerate(entry.read_masks)]
                bad = 0
                for mask in bad_writes + bad_reads:
                    bad |= mask
                for granule in iter_set_bits(bad):
                    for writer, mask in enumerate(bad_writes):
                        if mask >> granule & 1:
                            out.append(Divergence(
                                "sam", mode, block,
                                f"granule {granule}: SAM last writer "
                                f"{writer} never wrote it"))
                    bogus = [core for core, mask in enumerate(bad_reads)
                             if mask >> granule & 1]
                    if bogus:
                        out.append(Divergence(
                            "sam", mode, block,
                            f"granule {granule}: SAM readers {bogus} "
                            f"never read it"))
        for l1 in machine.l1s:
            core = l1.core_id
            for block in l1.pam.resident_blocks():
                entry = l1.pam.get(block)
                truth = ref.truth.get(block)
                true_r = truth.read_bits.get(core, 0) if truth else 0
                true_w = truth.write_bits.get(core, 0) if truth else 0
                if entry.write_bits & ~true_w:
                    out.append(Divergence(
                        "pam", mode, block,
                        f"core {core}: PAM write bits "
                        f"{entry.write_bits:#x} not within true writes "
                        f"{true_w:#x}"))
                if entry.read_bits & ~true_r:
                    out.append(Divergence(
                        "pam", mode, block,
                        f"core {core}: PAM read bits "
                        f"{entry.read_bits:#x} not within true reads "
                        f"{true_r:#x}"))

    if check_counters:
        for detector in detectors:
            for block, meta in sorted(detector.counter_metas().items()):
                if not 0 <= meta.fc <= meta.counter_max:
                    out.append(Divergence(
                        "counter", mode, block,
                        f"FC={meta.fc} outside [0, {meta.counter_max}]"))
                if not 0 <= meta.ic <= meta.counter_max:
                    out.append(Divergence(
                        "counter", mode, block,
                        f"IC={meta.ic} outside [0, {meta.counter_max}]"))
                if not 0 <= meta.hc <= meta.hysteresis_max:
                    out.append(Divergence(
                        "counter", mode, block,
                        f"HC={meta.hc} outside [0, {meta.hysteresis_max}]"))
    return report


# ------------------------------------------------------------- cross-mode


def run_differential(
    schedule: List[FuzzOp],
    modes: Optional[List[ProtocolMode]] = None,
    num_threads: int = 4,
    config: Optional[SystemConfig] = None,
    mutation: Optional[str] = None,
) -> DiffReport:
    """Replay one schedule on every requested mode and on the atomic
    reference; compare each machine against the reference and the modes
    against each other (metamorphic: same op stream, so the final images
    must agree byte-for-byte).

    The reference executes the *unmutated* specification even when
    ``mutation`` is set — that is the point: the mutated detailed machine
    must diverge from it.
    """
    modes = list(modes or ProtocolMode)
    config = config or fuzz_config(num_threads)
    # Translate the schedule once and share the op stream: the reference
    # and every detailed mode execute the same footprint by construction,
    # so there is no reason to pay the O(n) translation 1 + len(modes)
    # times per call (mutations rewrite protocol behaviour, never the
    # schedule translation).
    flat, expectations = schedule_to_ops(schedule, num_threads, config,
                                         check_loads=False)
    translated = (_split(flat, num_threads), expectations)
    ref = run_reference(schedule, num_threads, config, flat=flat)
    report = DiffReport(modes_run=list(modes))
    images: List[Tuple[ProtocolMode, object]] = []
    for mode in modes:
        run, image, per_mode = execute(
            schedule, mode, num_threads, config, sanitize=False,
            mutation=mutation, check_loads=False,
            differential={}, reference=ref, translated=translated)
        if per_mode is None:
            report.divergences.append(Divergence(
                "run", mode, None, run.failure.describe()))
            continue
        images.append((mode, image))
        report.divergences.extend(per_mode.divergences)
        report.blocks_compared += per_mode.blocks_compared
    if len(images) >= 2:
        base_mode, base_image = images[0]
        for mode, image in images[1:]:
            for block in ref.blocks():
                a = bytes(base_image.get(block))
                b = bytes(image.get(block))
                if a != b:
                    byte = next(i for i in range(len(a)) if a[i] != b[i])
                    report.divergences.append(Divergence(
                        "cross-mode", mode, block,
                        f"byte {byte}: {mode.value} {b[byte]:#04x} != "
                        f"{base_mode.value} {a[byte]:#04x}"))
    return report


# --------------------------------------------------------------- campaign


#: Renders a diff repro: ``render_diff_repro(schedule, modes, mutation,
#: detail, case_seed=None, ...)``.  ``benchmarks/e2e`` renders its mutation
#: hunts through this name.
render_diff_repro = functools.partial(render_repro, "diff")


def diff_campaign(
    iterations: int = 30,
    seed: int = 0,
    modes: Optional[List[ProtocolMode]] = None,
    families: Optional[List[str]] = None,
    num_threads: int = 4,
    num_lines: int = 3,
    length: int = 80,
    mutation: Optional[str] = None,
    shrink: bool = True,
    shrink_budget: int = 400,
    progress: Optional[Callable[[int, Case, DiffReport], None]] = None,
) -> CampaignResult:
    """Run ``iterations`` random schedules through the full differential
    oracle (every mode, cross-mode metamorphic comparison); shrink and
    render any divergence.  Fully deterministic for a given ``seed``."""
    modes = list(modes or ProtocolMode)
    config = fuzz_config(num_threads)
    axes = (("family", list(families or FAMILIES)),)

    def run(case, schedule):
        return run_differential(schedule, modes=modes,
                                num_threads=num_threads, config=config,
                                mutation=mutation)

    return schedule_campaign(
        "diff", iterations,
        campaign_cases(iterations, seed, axes, num_threads, num_lines,
                       length),
        run, modes=modes, mutation=mutation, shrink=shrink,
        shrink_budget=shrink_budget, progress=progress,
        num_threads=num_threads)


# ------------------------------------------------------- mutation escapes


#: Where each seeded protocol bug is most readily provoked: the schedule
#: family that exercises the broken mechanism and the single mode to run.
MUTATION_PROBES: Dict[str, Tuple[str, ProtocolMode]] = {
    "merge-drop-granule": ("mixed", ProtocolMode.FSLITE),
    "chk-write-always-passes": ("mixed", ProtocolMode.FSLITE),
    "pam-reads-count-as-writes": ("disjoint", ProtocolMode.FSDETECT),
    "sam-drops-writes": ("disjoint", ProtocolMode.FSLITE),
}

COUNTER_MUTATION = "counters-never-saturate"


def counter_probe_config() -> SystemConfig:
    """A single-core machine with 2-bit-sized counters and the periodic
    metadata reset disabled, so the *only* thing bounding FC is the
    saturation reset the mutation removes."""
    return fuzz_config(1).with_protocol(
        counter_max=3, tau_r1=1, tau_r2=3, use_metadata_reset=False)


def counter_probe_schedule() -> List[FuzzOp]:
    """Seven ops that make one block's FC reach 4: load, evict (re-fetch
    pressure), three times over, then a final load.  Each post-eviction
    load is an LLC GET, so FC counts 4 — past ``counter_max=3`` unless the
    saturation reset fires."""
    ops: List[FuzzOp] = []
    for _ in range(3):
        ops.append(FuzzOp(0, "load", 0, 0, 8))
        ops.append(FuzzOp(0, "evict", 0))
    ops.append(FuzzOp(0, "load", 0, 0, 8))
    return ops


@dataclass
class MutationEscape:
    """Did the differential oracle alone catch one seeded protocol bug?"""

    mutation: str
    caught: bool
    mode: Optional[ProtocolMode] = None
    family: Optional[str] = None
    case_seed: Optional[int] = None
    attempts: int = 0
    detail: str = ""
    schedule: List[FuzzOp] = field(default_factory=list)
    shrunk: List[FuzzOp] = field(default_factory=list)
    #: The shrunk divergence as a ready-to-paste pytest case.
    repro_source: str = ""


def hunt_mutation_escape(
    mutation: str,
    seed: int = 0,
    max_attempts: int = 40,
) -> MutationEscape:
    """Find (and shrink) a schedule on which the differential oracle alone
    — no sanitizer, no in-program load assertions — catches ``mutation``.
    Candidates are 60-op schedules for four threads; the first caught one
    is shrunk within 400 evaluations.

    Deterministic for a given ``seed``.  The counter mutation needs its
    own probe: under
    the default 7-bit ``counter_max`` no ≤10-op schedule can overflow a
    counter, so it runs on :func:`counter_probe_config`.
    """
    if mutation == COUNTER_MUTATION:
        config = counter_probe_config()
        mode, family, threads = ProtocolMode.FSDETECT, "n/a", 1
        candidates = iter([(Case(0, 0, family), counter_probe_schedule())])
        max_attempts = 1
    else:
        family, mode = MUTATION_PROBES[mutation]
        threads = 4
        config = fuzz_config(threads)
        candidates = campaign_cases(
            max_attempts, seed, (("family", [family]),),
            num_threads=threads, length=60)

    session = ShrinkSession(
        lambda candidate: run_differential(
            candidate, modes=[mode], num_threads=threads,
            config=config, mutation=mutation))
    for attempt, (case, schedule) in enumerate(candidates, start=1):
        if not session.fails(schedule):
            continue
        shrunk = session.shrink(schedule, 400)
        detail = session.evaluate(shrunk).describe()
        return MutationEscape(
            mutation=mutation, caught=True, mode=mode, family=family,
            case_seed=case.case_seed, attempts=attempt, detail=detail,
            schedule=schedule, shrunk=shrunk,
            repro_source=render_diff_repro(
                shrunk, [mode], mutation, detail, case.case_seed,
                num_threads=threads,
                config_factory=("counter_probe_config"
                                if mutation == COUNTER_MUTATION else None)))
    return MutationEscape(mutation=mutation, caught=False, mode=mode,
                          family=family, attempts=max_attempts)


def mutation_escape_sweep(
    seed: int = 0,
    progress: Optional[Callable[[MutationEscape], None]] = None,
) -> Dict[str, MutationEscape]:
    """Hunt every seeded mutation; the CI gate demands each is caught and
    shrunk to at most 10 ops."""
    out: Dict[str, MutationEscape] = {}
    for name in sorted(MUTATIONS):
        escape = hunt_mutation_escape(name, seed=seed)
        out[name] = escape
        if progress is not None:
            progress(escape)
    return out


# ------------------------------------------------------- workload level


def diff_workload(spec) -> DiffReport:
    """Differential check of one harness :class:`~repro.harness.runner.
    RunSpec`: execute it on the detailed machine and drive the same
    workload's generator programs on the atomic machine (fair round-robin).

    Workload schedules race by design, so only two comparisons are sound:

    * the workload's own :meth:`verify` must accept the atomic execution
      (the reference is a valid outcome of the program), and
    * granules only ever touched by a single core must match byte-for-byte
      (their final content is interleaving-independent).
    """
    from repro.harness.runner import execute_spec_with_machine
    from repro.workloads.registry import make_workload

    record, machine = execute_spec_with_machine(spec)
    image = flush_machine_memory(machine)
    machine.close()
    workload = make_workload(spec.tag, num_threads=spec.num_threads,
                             scale=spec.scale, layout=spec.layout,
                             seed=spec.seed)
    atomic = run_programs_atomic(workload.programs(), spec.config)
    report = DiffReport(modes_run=[spec.mode])
    try:
        workload.verify(atomic.image())
    except ReproError as exc:
        report.divergences.append(Divergence(
            "workload-verify", spec.mode, None, str(exc)))
    _compare_single_accessor_granules(report, spec.mode, image, atomic)
    return report


def _compare_single_accessor_granules(report: DiffReport, mode, image,
                                      atomic) -> None:
    """Byte-compare ``image`` with the atomic machine on every granule only
    one core ever touched (its final content is interleaving-independent,
    so the comparison is sound on racy workloads and traces)."""
    gran = atomic.granularity
    reference = atomic.image()
    for block in atomic.blocks():
        pairs = atomic.single_accessor_granules(block)
        if not pairs:
            continue
        want = reference.get(block)
        got = bytes(image.get(block))
        report.blocks_compared += 1
        for granule, core in pairs:
            lo = granule * gran
            if got[lo:lo + gran] != want[lo:lo + gran]:
                report.divergences.append(Divergence(
                    "memory", mode, block,
                    f"single-accessor granule {granule} (core {core}): "
                    f"machine {got[lo:lo + gran].hex()} != reference "
                    f"{want[lo:lo + gran].hex()}"))


def diff_trace(
    path,
    modes: Optional[List[ProtocolMode]] = None,
    config: Optional[SystemConfig] = None,
    mutation: Optional[str] = None,
) -> DiffReport:
    """Differential check of a replayed ``.rtrace`` trace: stream the trace
    through the detailed machine under every requested mode and drive the
    same per-thread op streams on the atomic reference (fair round-robin).
    Each mode runs as the replay spec :func:`~repro.workloads.trace.
    trace_spec` builds (in-order cores, no sanitizer) through
    :func:`~repro.harness.runner.execute_spec_with_machine`.

    A trace froze value-dependent control flow under its capture
    interleaving, so replays under other modes/timings may interleave racy
    granules differently — full-image equality against the reference is
    *not* a sound oracle here (unlike fuzz schedules).  What is sound on
    any trace, and what this checks per mode:

    * verdicts, mode purity, SAM/PAM metadata subsetting and counter
      bounds — all derived from the access *sets*, which are identical in
      every interleaving of the same op streams;
    * byte equality on granules only one core ever touched (their final
      content is interleaving-independent), mirroring
      :func:`diff_workload`.

    As with :func:`run_differential`, the reference always executes the
    unmutated specification; a seeded ``mutation`` must diverge from it.
    """
    from repro.harness.runner import execute_spec_with_machine
    from repro.workloads.trace import TraceWorkload, trace_info, trace_spec

    info = trace_info(path)
    modes = list(modes or ProtocolMode)
    config = (config or fuzz_config(info.num_threads)).with_sanitizer(
        enabled=False)
    specs = [trace_spec(path, mode=mode, config=config, core_model="inorder")
             for mode in modes]
    atomic = run_programs_atomic(TraceWorkload(path).programs(), config)
    ref = RefResult(machine=atomic)
    report = DiffReport(modes_run=list(modes))
    for spec in specs:
        with mutation_context(mutation):
            try:
                _, machine = execute_spec_with_machine(spec)
            except (ReproError, AssertionError) as exc:
                report.divergences.append(Divergence(
                    "run", spec.mode, None,
                    f"{type(exc).__name__}: {exc}"))
                continue
        per_mode = differential_check(machine, ref, check_memory=False)
        report.divergences.extend(per_mode.divergences)
        _compare_single_accessor_granules(
            report, spec.mode, flush_machine_memory(machine), atomic)
        machine.close()
    return report
