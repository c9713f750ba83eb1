"""Random protocol tester, and the campaign core fuzz, diff and chaos share.

Generates randomized per-line load/store/RMW/evict schedules, runs them on
a deliberately stress-prone machine (tiny caches, tiny SAM, τP = 1) with
the online sanitizer attached, and checks four failure channels:

1. the run itself (invariant violations, protocol errors, deadlocks, and
   in-program load-value assertions),
2. the sanitizer's final full pass (``check_all``),
3. the flushed final memory image against a reference computed from the
   schedule alone, and
4. (opt-in, ``differential=True``) a full differential comparison against
   the atomic reference model of :mod:`repro.check.refmodel`.

Reference values are computable for *any* sub-schedule because schedules
are built from single-writer slots (each thread owns one 8-byte slot per
line) plus commutative fetch-adds on shared words — which is what makes
delta-debugging (:func:`shrink_schedule`) sound: every subset of a
schedule is itself a valid program with a known expected outcome.

Schedule families:

* ``disjoint`` — threads touch only their own slots of shared lines: pure
  false sharing, the FSLite privatization fast path.
* ``shared``   — threads fetch-add shared words: pure true sharing, which
  must *not* privatize incorrectly.
* ``mixed``    — both in the same lines: privatization attempts keep
  colliding with true sharing (abort/terminate churn).

The campaign core lives here too, because all three campaign verbs build
on these schedules: :func:`execute` is the one schedule executor behind
:func:`run_schedule`, :func:`repro.check.diff.run_differential` and
:func:`repro.faults.chaos.run_chaos_case`; :func:`campaign_cases` is the
one case rotation; :class:`ShrinkSession` is the one ddmin session; and
:func:`render_repro` renders every failure as a ready-to-paste pytest
case that re-runs it with every argument that shaped it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.check.mutations import mutation_context
from repro.check.sanitizer import InvariantViolation, Sanitizer
from repro.coherence.states import ProtocolMode
from repro.common.config import CacheConfig, SystemConfig
from repro.common.errors import ConfigError, ReproError
from repro.cpu.ops import Op, compute, fetch_add, load, store
from repro.system.builder import build_machine
from repro.system.simulator import Simulator, flush_machine_memory
from repro.system.stats import SimStats

if TYPE_CHECKING:
    from repro.faults.injector import FiredFault
    from repro.faults.plan import FaultPlan

# The replay cache, the fault injector and the fault plans are imported
# where they are used: a fault-free run without a replay cache (every
# harness and sanitizer user of this package) never loads them.

#: Base address of the fuzzed lines (arbitrary, away from zero).
BASE = 0x40000
SLOT = 8  # bytes per thread slot / shared word
#: Event ceiling of one campaign run: past it the run fails as a
#: suspected livelock.
MAX_EVENTS = 5_000_000


@dataclass(frozen=True)
class FuzzOp:
    """One schedule element, executed by thread ``tid`` in list order.

    ``kind``:

    * ``"load"`` / ``"store"`` / ``"rmw"`` — an access of ``size`` bytes at
      ``offset`` within line ``line`` (``rmw`` is a fetch-add of
      ``value``; ``store`` writes ``value``).
    * ``"evict"`` — pressure loads to conflict-mapped private lines that
      force ``line`` out of the thread's L1.
    * ``"pause"`` — ``value`` compute cycles (perturbs message timing).
    """

    tid: int
    kind: str
    line: int = 0
    offset: int = 0
    size: int = 8
    value: int = 0


@dataclass
class FuzzFailure:
    """Why a schedule failed."""

    stage: str  # "invariant" | "run" | "final-image" | "differential"
    kind: str   # exception class name, or "mismatch"
    detail: str

    def describe(self) -> str:
        return f"[{self.stage}/{self.kind}] {self.detail}"


@dataclass
class RunReport:
    """Outcome of one schedule execution, fault-free or under a plan."""

    ok: bool
    failure: Optional[FuzzFailure] = None
    cycles: int = 0
    blocks_checked: int = 0
    #: Blocks the differential stage compared against the reference.
    blocks_compared: int = 0
    stats: Optional[SimStats] = None
    fired: List[FiredFault] = field(default_factory=list)

    def fired_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for fault in self.fired:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out


@dataclass
class Case:
    """One campaign case: its position, seed and rotation labels."""

    index: int
    case_seed: int
    family: str  # schedule family
    mode: Optional[ProtocolMode] = None  # None: the case runs every mode
    fault_family: Optional[str] = None


@dataclass
class Finding(Case):
    """One failing campaign case, shrunk and rendered."""

    mutation: Optional[str] = None
    failure: Optional[FuzzFailure] = None
    schedule: List[FuzzOp] = field(default_factory=list)
    #: What ddmin shrank: the schedule, or (chaos) the fired-fault script.
    shrunk: list = field(default_factory=list)
    repro_source: str = ""
    #: Chaos only: the repro's plan (None when the fault-free twin
    #: failed) and the faults the failing run fired.
    plan: Optional[FaultPlan] = None
    fired: List[FiredFault] = field(default_factory=list)


@dataclass
class CampaignResult:
    iterations: int
    findings: List[Finding] = field(default_factory=list)
    #: Chaos only: the surviving cases and their degradation reports.
    cases: list = field(default_factory=list)
    blocks_compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def family_fired(self) -> Dict[str, int]:
        """Total effective faults per fault family across surviving cases."""
        from repro.faults.plan import CHAOS_FAMILIES

        out = dict.fromkeys(CHAOS_FAMILIES, 0)
        for case in self.cases:
            out[case.fault_family] += case.report.total_fired
        return out

    def family_degraded(self) -> Dict[str, bool]:
        """Per fault family: did some case fire faults *and* measure a
        nonzero degradation delta vs its twin?  (The acceptance check that
        injection is real, not vacuous.)"""
        from repro.faults.plan import CHAOS_FAMILIES

        out = dict.fromkeys(CHAOS_FAMILIES, False)
        for case in self.cases:
            if case.report.degraded:
                out[case.fault_family] = True
        return out


# --------------------------------------------------------------- machine


def fuzz_config(num_threads: int = 4) -> SystemConfig:
    """A stress-prone machine: 2-way 1 KB L1s, a 4-entry SAM and τP = 1,
    so privatization, conflict aborts, SAM/LLC evictions and terminations
    all happen within a handful of operations."""
    return SystemConfig(
        num_cores=num_threads,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        llc=CacheConfig(size_bytes=16 * 1024, associativity=4,
                        tag_latency=2, data_latency=8),
        num_llc_slices=2,
        network_latency=8,
        memory_latency=60,
    ).with_protocol(
        tau_p=1, sam_sets=2, sam_ways=2,
    ).with_sanitizer(enabled=True, sweep_interval=512)


def shared_offsets(num_threads: int, block_size: int = 64) -> List[int]:
    """Word offsets not owned by any thread (true-sharing targets)."""
    return list(range(SLOT * num_threads, block_size, SLOT))


# ------------------------------------------------------------ generation


def make_schedule(
    family: str,
    rng: random.Random,
    num_threads: int = 4,
    num_lines: int = 3,
    length: int = 80,
    block_size: int = 64,
) -> List[FuzzOp]:
    """Generate a random schedule of ``length`` ops in ``family``."""
    if family not in ("disjoint", "shared", "mixed"):
        raise ValueError(f"unknown fuzz family {family!r}")
    shared = shared_offsets(num_threads, block_size)
    ops: List[FuzzOp] = []
    for _ in range(length):
        tid = rng.randrange(num_threads)
        line = rng.randrange(num_lines)
        if family == "shared":
            kind = rng.choices(["rmw", "load", "pause"],
                               weights=[6, 2, 1])[0]
        else:
            kind = rng.choices(["store", "load", "rmw", "evict", "pause"],
                               weights=[5, 4, 2, 2, 1])[0]
        on_shared = (family == "shared"
                     or (family == "mixed" and kind in ("load", "rmw")
                         and rng.random() < 0.4))
        if kind == "pause":
            ops.append(FuzzOp(tid, "pause", value=rng.randrange(1, 24)))
        elif kind == "evict":
            ops.append(FuzzOp(tid, "evict", line=line))
        elif on_shared:
            offset = rng.choice(shared)
            if kind == "rmw":
                ops.append(FuzzOp(tid, "rmw", line, offset, SLOT,
                                  rng.randrange(1, 1 << 16)))
            else:
                ops.append(FuzzOp(tid, "load", line, offset, SLOT))
        else:
            size = rng.choice((1, 2, 4, 8))
            offset = SLOT * tid + size * rng.randrange(SLOT // size)
            if kind == "store":
                value = rng.randrange(1 << (8 * size))
                ops.append(FuzzOp(tid, "store", line, offset, size, value))
            elif kind == "rmw":
                ops.append(FuzzOp(tid, "rmw", line, offset, size,
                                  rng.randrange(1, 256)))
            else:
                ops.append(FuzzOp(tid, "load", line, offset, size))
    return ops


# ------------------------------------------------------------- execution


def _is_shared(op: FuzzOp, num_threads: int) -> bool:
    return op.offset >= SLOT * num_threads


def schedule_to_ops(
    schedule: List[FuzzOp],
    num_threads: int,
    config: SystemConfig,
    check_loads: bool = True,
) -> Tuple[List[Tuple[int, Op, Optional[int], str]],
           List[Tuple[int, int, str]]]:
    """Translate a schedule into one flat ``(tid, op, expected, label)``
    stream in schedule order, plus the expected final image, modelling
    single-writer slots exactly and shared words as sums.

    This is the single schedule→:class:`Op` translation: the detailed
    simulator's thread programs (:func:`execute`) and the atomic
    reference model (:mod:`repro.check.refmodel`) both consume it, so the
    two machines execute the *same* operation footprint by construction.

    ``check_loads=False`` suppresses the expected values of loads and RMWs
    (every ``expected`` is None), producing assertion-free programs for
    differential runs that must be judged by an external oracle only.  The
    :class:`Op` stream is identical either way.

    Returns ``(flat, expectations)`` where each expectation is
    ``(addr, want_value, label)`` for one 8-byte word.  Raises
    :class:`ConfigError` for a schedule line at or past the L1's set
    count: an evict's pressure loads read lines one set span apart, so
    such a line could be one of them.
    """
    block = config.block_size
    num_sets = config.l1.num_sets
    set_span = num_sets * block
    model: Dict[int, bytearray] = {}
    shared_total: Dict[Tuple[int, int], int] = {}
    evict_seq: Dict[Tuple[int, int], int] = {}
    flat: List[Tuple[int, Op, Optional[int], str]] = []

    def line_model(line: int) -> bytearray:
        if line not in model:
            model[line] = bytearray(block)
        return model[line]

    # Labels are *thread-local* (t2#5 = thread 2's 6th schedule element):
    # dropping another thread's op never re-labels this thread's, which is
    # what lets the prefix-replay cache (repro.check.replay) treat a
    # thread's translated item list as a pure function of that thread's
    # own sub-schedule.
    per_thread_index: Dict[int, int] = {}
    for fop in schedule:
        if fop.line >= num_sets:
            raise ConfigError(
                f"schedule line {fop.line} is out of range: lines must be "
                f"below the L1's {num_sets} sets")
        j = per_thread_index.get(fop.tid, 0)
        per_thread_index[fop.tid] = j + 1
        label = f"t{fop.tid}#{j} {fop.kind}"
        if fop.kind == "pause":
            flat.append((fop.tid, compute(fop.value), None, label))
            continue
        if fop.kind == "evict":
            # Loads to never-written private lines that conflict-map to the
            # same L1 set as the target line; enough of them displace it.
            seq = evict_seq.get((fop.tid, fop.line), 0)
            evict_seq[(fop.tid, fop.line)] = seq + 1
            base = BASE + fop.line * block
            ways = config.l1.associativity
            for k in range(ways):
                slot = 1 + (fop.tid * 64 + seq) * ways + k
                addr = base + slot * set_span
                flat.append((fop.tid, load(addr, size=SLOT),
                             0 if check_loads else None,
                             f"{label} pressure#{k}"))
            continue
        addr = BASE + fop.line * block + fop.offset
        data = line_model(fop.line)
        lo, hi = fop.offset, fop.offset + fop.size
        if fop.kind == "store":
            data[lo:hi] = fop.value.to_bytes(fop.size, "little")
            flat.append((fop.tid, store(addr, fop.value, size=fop.size),
                         None, label))
        elif fop.kind == "rmw":
            if _is_shared(fop, num_threads):
                key = (fop.line, fop.offset)
                shared_total[key] = shared_total.get(key, 0) + fop.value
                flat.append((fop.tid,
                             fetch_add(addr, fop.value, size=fop.size),
                             None, label))
            else:
                old = int.from_bytes(data[lo:hi], "little")
                new = (old + fop.value) & ((1 << (8 * fop.size)) - 1)
                data[lo:hi] = new.to_bytes(fop.size, "little")
                flat.append((fop.tid,
                             fetch_add(addr, fop.value, size=fop.size),
                             old if check_loads else None, label))
        else:  # load
            if check_loads and not _is_shared(fop, num_threads):
                expected = int.from_bytes(data[lo:hi], "little")
            else:
                expected = None  # racing adds: value not predictable
            flat.append((fop.tid, load(addr, size=fop.size), expected,
                         label))

    expectations: List[Tuple[int, int, str]] = []
    for line, data in sorted(model.items()):
        base = BASE + line * block
        for off in range(0, block, SLOT):
            key = (line, off)
            if key in shared_total:
                want = shared_total[key] & ((1 << (8 * SLOT)) - 1)
            else:
                want = int.from_bytes(data[off:off + SLOT], "little")
            expectations.append(
                (base + off, want, f"line {line} offset {off}"))
    return flat, expectations


def _schedule_program(items):
    """One thread's generator over translated ``(op, expected, label)``
    items (module-level so :class:`_SchedulePrograms` pickles)."""
    for op, expected, label in items:
        result = yield op
        if expected is not None and result != expected:
            raise AssertionError(
                f"{label}: loaded {result:#x}, expected {expected:#x}")


class _SchedulePrograms:
    """Picklable program factory over per-thread translated item lists.

    Machines attached through this factory snapshot/restore cleanly; the
    replay cache passes a factory built over the *candidate* item lists
    when restoring a shared-prefix checkpoint."""

    __slots__ = ("per_thread",)

    def __init__(self, per_thread) -> None:
        self.per_thread = per_thread

    def __call__(self):
        return [_schedule_program(items) for items in self.per_thread]


def _split(flat, num_threads: int
           ) -> List[List[Tuple[Op, Optional[int], str]]]:
    """Per-thread ``(op, expected, label)`` item lists of a flat stream."""
    per_thread: List[List[Tuple[Op, Optional[int], str]]] = [
        [] for _ in range(num_threads)]
    for tid, op, expected, label in flat:
        per_thread[tid].append((op, expected, label))
    return per_thread


def _translate(
    schedule: List[FuzzOp],
    num_threads: int,
    config: SystemConfig,
    check_loads: bool = True,
) -> Tuple[List[List[Tuple[Op, Optional[int], str]]],
           List[Tuple[int, int, str]]]:
    """Per-thread translated item lists plus the expected final image."""
    flat, expectations = schedule_to_ops(
        schedule, num_threads, config, check_loads=check_loads)
    return _split(flat, num_threads), expectations


def reference_run(schedule, num_threads: int, config: SystemConfig,
                  replay=None, flat=None):
    """The atomic reference's result for ``schedule``, resumed from the
    replay cache's reference snapshots when one is given."""
    if replay is not None:
        return replay.ref_run(schedule, num_threads, config, flat=flat)
    # Imported here: the reference model imports this module's translation.
    from repro.check.refmodel import run_reference

    return run_reference(schedule, num_threads, config, flat=flat)


def execute(
    schedule: List[FuzzOp],
    mode: ProtocolMode,
    num_threads: int,
    config: SystemConfig,
    plan: Optional[FaultPlan] = None,
    sanitize: bool = True,
    mutation: Optional[str] = None,
    check_loads: bool = True,
    differential: Optional[dict] = None,
    reference=None,
    replay=None,
    translated=None,
):
    """Execute one schedule; never raises for protocol failures.

    The one executor behind :func:`run_schedule`,
    :func:`repro.check.diff.run_differential` and
    :func:`repro.faults.chaos.run_chaos_case`.  In order it translates the
    schedule, resumes from or records into the ``replay`` cache, builds the
    machine with ``plan``'s :class:`~repro.faults.injector.FaultInjector`
    (if any) and then the sanitizer attached, runs it, and judges it:

    * ``InvariantViolation`` fails stage ``"invariant"``; any other
      :class:`ReproError` or an in-program ``AssertionError`` fails stage
      ``"run"``;
    * with ``check_loads`` the flushed image must match the schedule's
      expected values (stage ``"final-image"``).  ``check_loads=False``
      builds assertion-free programs (same op stream) and skips this check,
      so only external oracles judge the run;
    * ``differential`` (a dict of :func:`repro.check.diff.
      differential_check` options) compares the machine against the atomic
      reference (``reference``, or computed here) — stage
      ``"differential"``.

    ``replay`` (a :class:`repro.check.replay.PrefixReplayCache`) resumes
    the run from the deepest memoized snapshot whose per-thread op prefix
    (and, under a scripted plan, decided-fault prefix) matches, and
    checkpoints this run for later candidates — results are bit-for-bit
    identical to a cold run.  It is ignored under unscripted plans, whose
    rates draw injector RNG the cache's guards do not model.
    ``translated`` is a precomputed :func:`_translate` result.

    Returns ``(report, image, diff)``: the flushed image and the
    :class:`~repro.check.diff.DiffReport` are None when the run failed
    before them (``diff`` also when ``differential`` is None).
    """
    if replay is not None and plan is not None and plan.script is None:
        replay = None  # unscripted plans draw RNG; prefix reuse is unsound
    with mutation_context(mutation):
        per_thread, expectations = translated or _translate(
            schedule, num_threads, config, check_loads=check_loads)
        factory = _SchedulePrograms(per_thread)
        machine = None
        resume = False
        on_checkpoint = None
        if replay is not None:
            from repro.check.replay import (
                CheckpointHook,
                fault_script_set,
                thread_keys,
            )

            keys = thread_keys(per_thread)
            script = fault_script_set(plan)
            plan_key = ((plan.delay_cycles, plan.state_period)
                        if plan is not None else None)
            context = (mode.value, num_threads, bool(sanitize), mutation,
                       bool(check_loads), plan_key, replay.config_key(config))
            hit = replay.lookup(context, keys, fault_script=script)
            if hit is not None:
                machine = replay.restore(hit, factory)
                resume = True
                restored = machine.extras.get("injector")
                if restored is not None:
                    # The snapshot carries the script it was recorded
                    # under; swap in the candidate's (the decided prefix
                    # is identical by the guard, the future differs).
                    restored.plan = plan
                    restored._script = {(e.kind, e.opportunity)
                                        for e in plan.script}
            if replay.should_record(context, resumed=resume):
                on_checkpoint = CheckpointHook(replay, context, keys,
                                               fault_script=script)
        if machine is None:
            machine = build_machine(config, mode)
            machine.attach_programs(program_factory=factory)
            # Injector first: its state faults land before the sanitizer's
            # per-delivery checks of the same message, so corruption is
            # judged at the earliest possible instant.
            if plan is not None:
                from repro.faults.injector import FaultInjector

                machine.extras["injector"] = \
                    FaultInjector(machine, plan).attach()
            if sanitize:
                machine.extras["sanitizer"] = Sanitizer(machine).attach()
        # Everything returned below (report, image, diff) is built from
        # the machine, never references it: close it so reference
        # counting frees it, not the cyclic GC.
        try:
            injector = machine.extras.get("injector")
            sanitizer = machine.extras.get("sanitizer")
            failure = None
            try:
                result = Simulator(machine, max_events=MAX_EVENTS).run(
                    resume=resume,
                    checkpoint_every=(replay.checkpoint_every
                                      if on_checkpoint else None),
                    on_checkpoint=on_checkpoint)
                if sanitizer is not None:
                    sanitizer.check_all()
            except InvariantViolation as exc:
                failure = FuzzFailure(
                    "invariant", type(exc).__name__, str(exc))
            except (ReproError, AssertionError) as exc:
                failure = FuzzFailure("run", type(exc).__name__, str(exc))
            finally:
                if sanitizer is not None:
                    sanitizer.detach()
                fired = []
                if injector is not None:
                    fired = list(injector.fired)
                    injector.detach()
            if failure is not None:
                return RunReport(False, failure, fired=fired), None, None
            image = flush_machine_memory(machine)
            if check_loads:
                for addr, want, label in expectations:
                    base = addr & ~(config.block_size - 1)
                    data = image.get(base, bytes(config.block_size))
                    off = addr - base
                    got = int.from_bytes(data[off:off + SLOT], "little")
                    if got != want:
                        return RunReport(False, FuzzFailure(
                            "final-image", "mismatch",
                            f"{label}: final value {got:#x}, expected "
                            f"{want:#x}"), fired=fired), image, None
            diff = None
            if differential is not None:
                # Imported lazily: repro.check.diff imports this module.
                from repro.check.diff import differential_check

                ref = (reference if reference is not None
                       else reference_run(schedule, num_threads, config,
                                          replay))
                diff = differential_check(machine, ref, image=image,
                                          **differential)
                if diff.divergences:
                    first = diff.divergences[0]
                    return RunReport(False, FuzzFailure(
                        "differential", first.kind, first.detail),
                        fired=fired), image, diff
            return RunReport(
                True, cycles=result.cycles,
                blocks_checked=sanitizer.blocks_checked if sanitizer else 0,
                blocks_compared=diff.blocks_compared if diff else 0,
                stats=result.stats, fired=fired), image, diff
        finally:
            machine.close()


def run_schedule(
    schedule: List[FuzzOp],
    mode: ProtocolMode = ProtocolMode.FSLITE,
    num_threads: int = 4,
    config: Optional[SystemConfig] = None,
    sanitize: bool = True,
    mutation: Optional[str] = None,
    differential: bool = False,
    replay=None,
) -> RunReport:
    """Execute one fault-free schedule through :func:`execute`; never
    raises for protocol failures.

    ``differential=True`` additionally replays the schedule on the atomic
    reference model (:mod:`repro.check.refmodel`) and compares final memory,
    detection verdicts, metadata attribution and counter bounds
    (:func:`repro.check.diff.differential_check`); a divergence fails the
    report with stage ``"differential"``.

    ``replay`` (a :class:`repro.check.replay.PrefixReplayCache`) makes the
    run resume from and record shared-prefix snapshots (see
    :func:`execute`).  Shrink loops pass one cache per session; one-shot
    callers leave it None.
    """
    return execute(
        schedule, mode, num_threads, config or fuzz_config(num_threads),
        sanitize=sanitize, mutation=mutation,
        differential={} if differential else None, replay=replay)[0]


# ------------------------------------------------------------- shrinking


def shrink_schedule(
    schedule: List[FuzzOp],
    still_fails: Callable[[List[FuzzOp]], bool],
    budget: int = 400,
) -> List[FuzzOp]:
    """Delta-debug ``schedule`` to a locally minimal failing sub-schedule.

    ``still_fails`` must be deterministic; dropping elements preserves each
    thread's relative order, so every candidate is a valid program. Runs
    classic ddmin, then a greedy one-at-a-time pass, within ``budget``
    evaluations.
    """
    runs = 0

    def fails(candidate: List[FuzzOp]) -> bool:
        nonlocal runs
        runs += 1
        return still_fails(candidate)

    current = list(schedule)
    chunks = 2
    while len(current) >= 2 and runs < budget:
        size = max(1, len(current) // chunks)
        reduced = False
        # Scan back-to-front: dropping a tail chunk leaves the candidate
        # sharing the base's entire prefix, so replay caches resume deep
        # instead of re-simulating from cycle zero.
        starts = range(((len(current) - 1) // size) * size, -1, -size)
        for start in starts:
            candidate = current[:start] + current[start + size:]
            if not candidate or runs >= budget:
                continue
            if fails(candidate):
                current = candidate
                chunks = max(chunks - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunks >= len(current):
                break
            chunks = min(len(current), chunks * 2)
    # Greedy single-op minimization until a fixed point.
    improved = True
    while improved and runs < budget:
        improved = False
        for index in range(len(current) - 1, -1, -1):
            if runs >= budget:
                break
            candidate = current[:index] + current[index + 1:]
            if candidate and fails(candidate):
                current = candidate
                improved = True
    return current


class ShrinkSession:
    """One ddmin session: a prefix-replay cache (none with
    ``replay=False``, the cold baseline), the memoizing
    :func:`~repro.check.replay.shrink_evaluator` over it, and
    :func:`shrink_schedule` driven by that evaluator.

    ``run(candidate, cache)`` executes one candidate (resuming from the
    session's replay ``cache``, None when cold) and returns a report with
    ``ok``; ``evaluator_options`` pass through to the evaluator.  One
    cache serves the whole session, so every candidate resumes from the
    prefixes its predecessors recorded — the cache never changes results,
    only wall clock.
    """

    def __init__(self, run, replay: bool = True,
                 **evaluator_options) -> None:
        from repro.check.replay import PrefixReplayCache, shrink_evaluator

        cache = PrefixReplayCache() if replay else None
        self.evaluate = shrink_evaluator(cache, run, **evaluator_options)

    def fails(self, candidate: Sequence) -> bool:
        return bool(candidate) and not self.evaluate(candidate).ok

    def shrink(self, items: Sequence, budget: int) -> list:
        return shrink_schedule(items, self.fails, budget=budget)


# ------------------------------------------------------------- rendering


def render_schedule(schedule: List[FuzzOp], indent: str = "        ") -> str:
    lines = []
    for op in schedule:
        args = [str(op.tid), repr(op.kind)]
        for name in ("line", "offset", "size", "value"):
            default = FuzzOp.__dataclass_fields__[name].default
            got = getattr(op, name)
            if got != default:
                args.append(f"{name}={got}")
        lines.append(f"{indent}FuzzOp({', '.join(args)}),")
    return "\n".join(lines)


#: Per campaign verb: how a repro's header describes the failing input and
#: labels its headline, the module and function the repro calls, and the
#: separator between that call's keyword arguments.
_REPRO_FORMS = {
    "fuzz": ("a {n}-op failing fuzz schedule", "Failure",
             "repro.check.fuzz", "run_schedule", ", "),
    "diff": ("a {n}-op diverging schedule", "Divergence",
             "repro.check.diff", "run_differential", ",\n        "),
    "chaos": ("a failing chaos case ({n}-op schedule)", "Failure",
              "repro.faults.chaos", "run_chaos_case", ", "),
}


def render_repro(
    verb: str,
    schedule: List[FuzzOp],
    modes: List[ProtocolMode],
    mutation: Optional[str],
    headline: str,
    case_seed: Optional[int] = None,
    plan: Optional[FaultPlan] = None,
    shrunken_sam: bool = False,
    differential: bool = False,
    num_threads: int = 4,
    config_factory: Optional[str] = None,
) -> str:
    """Render a failing case of campaign ``verb`` (fuzz, diff or chaos) as
    a ready-to-paste pytest case.

    The test re-runs the case with every argument that shaped it: the
    mode(s), the fault plan (chaos), the shrunken SAM, the mutation, the
    differential oracle, the thread count and the probe config
    (``config_factory`` names a zero-argument factory in
    :mod:`repro.check.diff`).  Arguments at their defaults are left out.
    The test asserts the case *passes*, so it fails while the reproduced
    bug exists and goes green once it is fixed.  Only the first line of
    ``headline`` goes into the header comment.
    """
    source, label, module, function, separator = _REPRO_FORMS[verb]
    name_bits = [m.value for m in modes]
    if mutation:
        name_bits.append(mutation.replace("-", "_"))
    if case_seed is not None:
        name_bits.append(f"seed{case_seed}")
    imports = {"repro.check.fuzz": {"FuzzOp"},
               "repro.coherence.states": {"ProtocolMode"}}
    imports.setdefault(module, set()).add(function)
    if verb == "diff":
        modes_src = ", ".join(f"ProtocolMode.{m.name}" for m in modes)
        args = [f"modes=[{modes_src}]"]
    else:
        args = [f"mode=ProtocolMode.{modes[0].name}"]
    plan_line = ""
    if verb == "chaos":
        args.append("plan=plan")
        plan_src = "None"
        if plan is not None:
            from repro.faults.plan import render_plan

            plan_src = render_plan(plan)
            imports["repro.faults"] = {"FaultEvent", "FaultPlan"}
        plan_line = f"    plan = {plan_src}\n"
    if shrunken_sam:
        args.append("shrunken_sam=True")
    if mutation:
        args.append(f"mutation={mutation!r}")
    if differential:
        args.append("differential=True")
    if num_threads != 4:
        args.append(f"num_threads={num_threads}")
    if config_factory:
        args.append(f"config={config_factory}()")
        imports.setdefault("repro.check.diff", set()).add(config_factory)
    import_lines = "\n".join(
        f"from {mod} import {', '.join(sorted(names))}"
        for mod, names in sorted(imports.items()))
    name = "_".join(name_bits)
    first_line = headline.splitlines()[0] if headline else ""
    describe = ("report.describe()" if verb == "diff"
                else "report.failure.describe()")
    return f'''# Shrunk from {source.format(n=len(schedule))}.
# {label}: {first_line}
{import_lines}


def test_{verb}_repro_{name}():
    schedule = [
{render_schedule(schedule)}
    ]
{plan_line}    report = {function}(
        schedule, {separator.join(args)})
    assert report.ok, {describe}
'''


# -------------------------------------------------------------- campaign


FAMILIES = ("disjoint", "shared", "mixed")


def campaign_cases(
    iterations: int,
    seed: int,
    axes: Sequence[Tuple[str, Sequence]],
    num_threads: int = 4,
    num_lines: int = 3,
    length: int = 80,
) -> Iterator[Tuple[Case, List[FuzzOp]]]:
    """The case rotation every campaign runs.

    Yields ``iterations`` ``(case, schedule)`` pairs.  Each case draws a
    32-bit case seed from ``seed``'s stream and reads its labels off a
    mixed-radix grid over ``axes`` — ``(Case field, values)`` pairs, the
    fastest-rotating first; its schedule is generated from the case seed
    in the case's ``family``.  Same arguments, same cases in the same
    order.
    """
    rng = random.Random(seed)
    for index in range(iterations):
        case_seed = rng.randrange(1 << 32)
        labels = {}
        digit = index
        for name, values in axes:
            labels[name] = values[digit % len(values)]
            digit //= len(values)
        case = Case(index, case_seed, **labels)
        yield case, make_schedule(
            case.family, random.Random(case_seed), num_threads=num_threads,
            num_lines=num_lines, length=length)


def schedule_campaign(
    verb: str,
    iterations: int,
    cases: Iterator[Tuple[Case, List[FuzzOp]]],
    run: Callable,
    modes: Optional[List[ProtocolMode]] = None,
    mutation: Optional[str] = None,
    shrink: bool = True,
    shrink_budget: int = 400,
    replay: bool = True,
    progress: Optional[Callable] = None,
    **render,
) -> CampaignResult:
    """The fuzz and diff campaign loop: run every case's schedule, then
    ddmin-shrink and render each failure.

    ``run(case, schedule, cache)`` executes one schedule of ``case``
    (resuming from the replay ``cache`` when one is given) and returns a
    report with ``ok``, ``failure`` and ``blocks_compared``.
    The repro runs ``modes`` (default: the case's mode) with the
    ``render`` options of :func:`render_repro`.  ``progress(index, case,
    report)`` sees every case's first run.
    """
    result = CampaignResult(iterations=iterations)
    for case, schedule in cases:
        def case_run(candidate, cache=None):
            return run(case, candidate, cache)

        report = case_run(schedule)
        result.blocks_compared += report.blocks_compared
        if progress is not None:
            progress(case.index, case, report)
        if report.ok:
            continue
        if shrink:
            session = ShrinkSession(case_run, replay)
            shrunk = session.shrink(schedule, shrink_budget)
            final = session.evaluate(shrunk)
        else:
            shrunk, final = schedule, case_run(schedule)
        failure = (report if final.ok else final).failure
        headline = (failure.detail if verb == "diff"
                    else f"{failure.stage}/{failure.kind}")
        result.findings.append(Finding(
            **vars(case), mutation=mutation, failure=failure,
            schedule=schedule, shrunk=shrunk,
            repro_source=render_repro(
                verb, shrunk, modes or [case.mode], mutation, headline,
                case.case_seed, **render)))
    return result


def fuzz_campaign(
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
    differential: bool = False,
    replay: bool = True,
    progress: Optional[Callable[[int, Case, RunReport], None]] = None,
) -> CampaignResult:
    """Run ``iterations`` random schedules; shrink and render any failure.

    Schedule families rotate fastest, then protocol modes.
    ``differential=True`` adds the atomic-reference-model oracle to every
    run (including shrink re-executions).  ``replay=False`` disables the
    prefix-replay cache during shrinking (cold re-execution; the benchmark
    baseline).  Fully deterministic for a given ``seed`` and parameter
    set — the replay cache never changes results, only wall clock.
    """
    config = fuzz_config(num_threads)
    axes = (("family", families or list(FAMILIES)),
            ("mode", modes or list(ProtocolMode)))

    def run(case, schedule, cache):
        return run_schedule(schedule, mode=case.mode, num_threads=num_threads,
                            config=config, mutation=mutation,
                            differential=differential, replay=cache)

    return schedule_campaign(
        "fuzz", iterations,
        campaign_cases(iterations, seed, axes, num_threads, num_lines,
                       length),
        run, mutation=mutation, shrink=shrink, shrink_budget=shrink_budget,
        replay=replay, progress=progress, num_threads=num_threads,
        differential=differential)
