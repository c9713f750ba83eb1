"""Prefix-reuse replay cache for shrinking and campaign re-execution.

Delta-debugging (``shrink_schedule``) evaluates hundreds of candidate
schedules that differ from each other only in which ops were dropped —
every candidate shares a (often long) prefix of per-thread operations with
candidates already executed.  This module memoizes machine snapshots taken
at intervals during those runs and restores the longest valid one instead
of re-simulating the shared prefix from cycle zero.

Soundness
---------

The detailed machine is deterministic, and a thread program only interacts
with the simulation through the ops it yields.  Therefore the machine
state after executing ``E`` events is a pure function of, per thread, the
sequence of *items* the core has pulled from its program so far — future
items cannot reach backwards in time.  A checkpoint recorded with
per-thread ``(pulled, done, prefix-of-item-keys)`` (``pulled`` is the
core's ``ops_executed``) is valid for a
candidate whose per-thread item lists

* agree with the recorded prefix on the first ``pulled`` item keys, and
* are exactly ``pulled`` long whenever the program had already been
  exhausted at the checkpoint (a longer list would have yielded more).

A candidate list that is exactly ``pulled`` long against a *non*-exhausted
checkpoint is also valid: the restored generator raises ``StopIteration``
at the next pull, exactly as a cold run of that candidate would at the
same point.  Item keys include the op's full footprint (kind, address,
size, value, RMW function, compute cycles), the embedded expected value,
and the thread-local label — so any translation difference invalidates
the prefix automatically.  This requires labels to be thread-local
(``t0#3 store``), never global-schedule-indexed: dropping thread 1's op
must not re-label thread 0's.

Fault scripts (chaos shrinking) add a second guard: a checkpoint taken
under script A with per-kind opportunity counters C is valid for script B
iff the decided prefix matches — ``{(k, o) in B : o < C[k]} == {(k, o) in
A : o < C[k]}`` — because the injector's opportunity counters advance
deterministically and fault *effects* are a pure function of machine
state plus the decided set.  Only scripted plans participate (rate-based
plans consume RNG whose state the guard does not model).

The cache is **opt-in** (``replay=None`` everywhere): one-shot runs skip
both the checkpointing and the snapshot cost entirely.  Shrink loops
create one cache per session.
"""

from __future__ import annotations

import json
import pickle
from typing import Dict, List, Optional, Sequence, Tuple

from repro.system.snapshot import (
    SNAPSHOT_PROTOCOL,
    MachineSnapshot,
    restore_snapshot,
)

#: Snapshot every this many executed events while a cache is active.
#: Fuzz-machine runs execute a few hundred events and cost ~25-35 µs per
#: event; a snapshot costs ~1 ms, so this spacing keeps recording overhead
#: around a third of a run while giving ddmin candidates (which mostly
#: share >80% prefixes) a nearby resume point.
DEFAULT_CHECKPOINT_EVERY = 60
#: Default byte budget across all retained checkpoints.
DEFAULT_MAX_BYTES = 128 * 1024 * 1024
#: Atomic-reference snapshots are taken every this many schedule items.
#: The atomic machine's state is a few KiB (a handful of blocks, and per
#: block a per-core read and write granule mask plus the last writer of
#: each granule), so a snapshot round trip costs well under a millisecond.
REF_CHECKPOINT_ITEMS = 8


def schedule_memo_key(schedule) -> tuple:
    """Stable identity of a raw ``FuzzOp`` schedule, for whole-run verdict
    memoization (the degenerate 100%-prefix hit: an identical candidate
    needs no re-execution at all — ddmin's greedy fixed-point pass re-tests
    every drop of the final schedule, so exact repeats are common)."""
    return tuple((op.tid, op.kind, op.line, op.offset, op.size, op.value)
                 for op in schedule)


def item_key(op, expected, label) -> tuple:
    """Stable identity of one translated schedule item (see module doc)."""
    modify = op.modify
    if modify is None:
        mod_key = None
    else:
        cls = type(modify).__name__
        state = getattr(modify, "__getstate__", None)
        if state is not None:
            mod_key = (cls, state())
        else:  # pragma: no cover - all shipped modifies are slotted
            mod_key = (cls, repr(modify))
    return (op.kind.name, op.addr, op.size, op.value, op.cycles,
            mod_key, op.need_value, expected, label)


def thread_keys(per_thread: Sequence[Sequence[tuple]]) -> Tuple[tuple, ...]:
    """Per-thread item-key tuples for ``per_thread`` lists of
    ``(op, expected, label)`` items."""
    return tuple(
        tuple(item_key(op, expected, label) for op, expected, label in items)
        for items in per_thread)


def _core_exhausted(core) -> bool:
    return bool(getattr(core, "_exhausted", False)
                or getattr(core, "_program_exhausted", False))


class _Checkpoint:
    """One stored snapshot plus the guards that decide its validity."""

    __slots__ = ("snapshot", "executed", "prefixes", "dones", "fault_guard",
                 "token")

    def __init__(self, snapshot: MachineSnapshot, executed: int,
                 prefixes: Tuple[tuple, ...], dones: Tuple[bool, ...],
                 fault_guard, token: int) -> None:
        self.snapshot = snapshot
        self.executed = executed
        #: Per-thread tuples of the item keys pulled so far.
        self.prefixes = prefixes
        #: Per-thread: was the program exhausted at capture time?
        self.dones = dones
        #: ``None`` (no injector) or ``(counters, decided)`` with
        #: ``counters`` a per-kind opportunity dict and ``decided`` the
        #: frozenset of script events inside those counters.
        self.fault_guard = fault_guard
        self.token = token

    def valid_for(self, keys: Tuple[tuple, ...],
                  fault_script: Optional[frozenset]) -> bool:
        if len(keys) != len(self.prefixes):
            return False
        for cand, prefix, done in zip(keys, self.prefixes, self.dones):
            pulled = len(prefix)
            if len(cand) < pulled or cand[:pulled] != prefix:
                return False
            if done and len(cand) != pulled:
                return False
        # An injector in the machine graph (counters, delivery counts,
        # network seam) makes its state part of the snapshot, so presence
        # must match exactly — even for an empty script.
        if (self.fault_guard is None) != (fault_script is None):
            return False
        if self.fault_guard is not None:
            counters, decided = self.fault_guard
            cand_decided = frozenset(
                (kind, opp) for kind, opp in fault_script
                if opp < counters.get(kind, 0))
            if cand_decided != decided:
                return False
        return True


class _RefCheckpoint:
    """One atomic-reference snapshot, keyed by a *global* schedule-item
    prefix (the atomic model executes ops in schedule list order, so its
    state is a pure function of the item prefix)."""

    __slots__ = ("prefix", "payload", "token")

    def __init__(self, prefix: tuple, payload: bytes, token: int) -> None:
        self.prefix = prefix
        self.payload = payload
        self.token = token


class PrefixReplayCache:
    """LRU-bounded store of mid-run machine snapshots, keyed by run
    context and validated against schedule prefixes (see module doc)."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.max_bytes = max_bytes
        self.checkpoint_every = checkpoint_every
        self._contexts: Dict[tuple, List[_Checkpoint]] = {}
        self._bytes = 0
        self._clock = 0
        # Whole-run verdict memo (see :func:`schedule_memo_key`) and the
        # per-config context-key memo.  Both hold small objects (reports,
        # JSON strings), so neither counts against the byte budget.
        self._memo: Dict[tuple, object] = {}
        self._config_keys: Dict[int, tuple] = {}
        self._refs: Dict[tuple, List[_RefCheckpoint]] = {}
        #: Record this run's checkpoints even without a resume (set by
        #: :func:`shrink_evaluator` around base-schedule re-runs).
        self.force_record = False
        # Statistics (read by benchmarks and tests).
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evicted = 0
        self.events_skipped = 0
        self.memo_hits = 0
        self.ref_hits = 0
        self.ref_misses = 0
        self.ref_stored = 0

    # --------------------------------------------------------------- memo

    def config_key(self, config) -> str:
        """Stable identity of a machine config for contexts, memoized per
        config object (shrink sessions reuse one config across hundreds of
        candidate evaluations)."""
        cached = self._config_keys.get(id(config))
        if cached is not None and cached[0] is config:
            return cached[1]
        key = json.dumps(config.to_dict(), sort_keys=True,
                         separators=(",", ":"))
        # Hold a strong reference so the id() stays valid for the entry.
        self._config_keys[id(config)] = (config, key)
        return key

    def memo_get(self, key: tuple):
        """A previously memoized whole-run result, or None."""
        value = self._memo.get(key)
        if value is not None:
            self.memo_hits += 1
        return value

    def memo_put(self, key: tuple, value) -> None:
        self._memo[key] = value

    # ------------------------------------------------------------ storing

    def record(self, context: tuple, machine, keys: Tuple[tuple, ...],
               fault_script: Optional[frozenset]) -> bool:
        """Capture one checkpoint of ``machine`` (called mid-run via the
        simulator's ``on_checkpoint`` hook).  Returns True when a new
        checkpoint was stored."""
        prefixes = []
        dones = []
        for tid, core in enumerate(machine.cores):
            prefixes.append(keys[tid][:core.ops_executed])
            dones.append(_core_exhausted(core))
        executed = machine.queue.executed
        bucket = self._contexts.setdefault(context, [])
        for cp in bucket:
            if (cp.executed == executed
                    and cp.prefixes == tuple(prefixes)):
                return False  # identical re-run; nothing new to store
        fault_guard = None
        injector = machine.extras.get("injector")
        if (injector is not None) != (fault_script is not None):
            return False  # injector state the guard cannot model
        if injector is not None:
            counters = dict(injector._opportunities)
            decided = frozenset(
                (kind, opp) for kind, opp in fault_script
                if opp < counters.get(kind, 0))
            fault_guard = (counters, decided)
        snapshot = machine.snapshot()
        self._clock += 1
        bucket.append(_Checkpoint(snapshot, executed, tuple(prefixes),
                                  tuple(dones), fault_guard, self._clock))
        self._bytes += snapshot.size_bytes()
        self.stored += 1
        self._enforce_budget()
        return True

    def should_record(self, context: tuple, resumed: bool) -> bool:
        """Record checkpoints for this run?  Recording costs a ~1 ms
        pickle per boundary, so it is restricted to runs whose prefixes
        later candidates actually derive from: ddmin candidates are
        subsets of the current base schedule, so only base runs (executed
        under :attr:`force_record` by :func:`shrink_evaluator`) and runs
        that themselves resumed from a checkpoint (extending a chain that
        candidates are walking) record.  Cold misses — candidates sharing
        no stored prefix — record nothing."""
        return resumed or self.force_record

    def _enforce_budget(self) -> None:
        while self._bytes > self.max_bytes:
            oldest_store = None
            oldest_ctx = None
            oldest_idx = -1
            oldest_token = None
            for store in (self._contexts, self._refs):
                for ctx, bucket in store.items():
                    for idx, cp in enumerate(bucket):
                        if oldest_token is None or cp.token < oldest_token:
                            oldest_token = cp.token
                            oldest_store, oldest_ctx, oldest_idx = \
                                store, ctx, idx
            if oldest_ctx is None:  # pragma: no cover - budget > 0 implies
                break
            cp = oldest_store[oldest_ctx].pop(oldest_idx)
            self._bytes -= (cp.snapshot.size_bytes()
                            if isinstance(cp, _Checkpoint)
                            else len(cp.payload))
            self.evicted += 1
            if not oldest_store[oldest_ctx]:
                del oldest_store[oldest_ctx]

    # ----------------------------------------------------------- querying

    def lookup(self, context: tuple, keys: Tuple[tuple, ...],
               fault_script: Optional[frozenset] = None
               ) -> Optional[_Checkpoint]:
        """The deepest stored checkpoint valid for ``keys`` (and
        ``fault_script``), or None."""
        best: Optional[_Checkpoint] = None
        for cp in self._contexts.get(context, ()):
            if cp.valid_for(keys, fault_script):
                if best is None or cp.executed > best.executed:
                    best = cp
        if best is None:
            self.misses += 1
        else:
            self.hits += 1
            self.events_skipped += best.executed
            self._clock += 1
            best.token = self._clock  # LRU touch
        return best

    # ---------------------------------------------------- reference model

    def ref_run(self, schedule, num_threads: int, config, flat=None):
        """Atomic-reference execution with global-prefix snapshot reuse.

        The atomic model (:func:`repro.check.refmodel.run_reference`)
        executes the translated op stream in schedule list order, so its
        state after ``i`` schedule items is a pure function of the item
        prefix ``schedule[:i]`` — a strictly simpler validity condition
        than the detailed machine's per-thread one.  Snapshots are aligned
        to schedule-item boundaries because the translation is stateful
        *within* the list (per-``(tid, line)`` evict sequence counters,
        the single-writer value model), never across a prefix: two
        schedules sharing their first ``i`` items translate those items
        identically.  Bit-for-bit equivalent to a cold
        :func:`run_reference` call."""
        from repro.check.fuzz import schedule_to_ops
        from repro.check.refmodel import AtomicMachine, RefResult

        key = schedule_memo_key(schedule)
        context = ("ref", num_threads, self.config_key(config))
        bucket = self._refs.setdefault(context, [])
        best: Optional[_RefCheckpoint] = None
        for cp in bucket:
            n = len(cp.prefix)
            if (n <= len(key) and key[:n] == cp.prefix
                    and (best is None or n > len(best.prefix))):
                best = cp
        if flat is None:
            flat, _ = schedule_to_ops(schedule, num_threads, config,
                                      check_loads=False)
        # Flat-op count per schedule item is a fixed function of the item
        # kind (evicts expand to one pressure load per L1 way).
        ways = config.l1.associativity
        bounds: List[int] = []
        count = 0
        for fop in schedule:
            count += ways if fop.kind == "evict" else 1
            bounds.append(count)
        if bounds and bounds[-1] != len(flat):  # pragma: no cover
            raise RuntimeError(
                "schedule_to_ops expansion drifted from ref_run's item "
                "boundaries; fix REF_CHECKPOINT alignment")
        if best is None:
            machine = AtomicMachine(config, num_threads)
            start_item = 0
            self.ref_misses += 1
        else:
            machine = pickle.loads(best.payload)
            start_item = len(best.prefix)
            self.ref_hits += 1
            self._clock += 1
            best.token = self._clock  # LRU touch
        record = best is not None or self.force_record
        cursor = bounds[start_item - 1] if start_item else 0
        # Geometric backoff, like CheckpointHook: dense at the resume
        # frontier, doubling gaps into the suffix.
        gap = REF_CHECKPOINT_ITEMS
        next_at = start_item + gap
        for i in range(start_item, len(schedule)):
            for tid, op, _expected, _label in flat[cursor:bounds[i]]:
                machine.execute(tid, op)
            cursor = bounds[i]
            done = i + 1
            if record and done >= next_at and done < len(schedule):
                prefix = key[:done]
                if not any(len(cp.prefix) == done and cp.prefix == prefix
                           for cp in bucket):
                    payload = pickle.dumps(machine, SNAPSHOT_PROTOCOL)
                    self._clock += 1
                    bucket.append(_RefCheckpoint(prefix, payload,
                                                 self._clock))
                    self._bytes += len(payload)
                    self.ref_stored += 1
                    self._enforce_budget()
                    gap *= 2
                next_at = done + gap
        return RefResult(machine=machine)

    def restore(self, checkpoint: _Checkpoint, program_factory):
        """Materialize an independent machine from ``checkpoint``,
        rebinding programs from ``program_factory`` (built over the
        *candidate* item lists)."""
        return restore_snapshot(checkpoint.snapshot,
                                program_factory=program_factory)

    def describe(self) -> str:
        return (f"replay cache: {self.hits} hit(s), {self.misses} miss(es), "
                f"{self.memo_hits} memo hit(s), "
                f"{self.ref_hits}/{self.ref_hits + self.ref_misses} ref "
                f"hit(s), {self.stored}+{self.ref_stored} stored, "
                f"{self.evicted} evicted, "
                f"{self.events_skipped} event(s) skipped, "
                f"{self._bytes / 1024:.0f} KiB held")


#: Below this many candidate items an anchoring re-run cannot place
#: enough checkpoints to pay for itself (the endgame's evals are cheaper
#: than the extra run): shrink_evaluator skips the re-run.
MIN_ANCHOR_ITEMS = 20

#: Fraction of a failing base re-executed by the anchoring run.  Only the
#: front of the base is worth checkpointing: ddmin candidates cut at
#: ≤ 50% of the base, and per-thread consumption skew (a fast thread may
#: have consumed ops from beyond the cut) invalidates deeper checkpoints
#: anyway.  Anchoring a pure prefix is sound because a prefix's item keys
#: are exactly the base's first items, per thread.
ANCHOR_FRACTION = 0.55


def shrink_evaluator(cache: Optional[PrefixReplayCache], run,
                     key_of=schedule_memo_key,
                     min_anchor: int = MIN_ANCHOR_ITEMS,
                     anchor_fraction: float = ANCHOR_FRACTION):
    """The evaluation wrapper every shrink session uses.

    ``run(candidate, replay)`` executes one candidate and returns a report
    with an ``ok`` attribute.  The wrapper adds, when ``cache`` is not
    None:

    * **verdict memoization** — an exact candidate repeat (ddmin's greedy
      fixed-point pass re-tests every drop of the final schedule) returns
      its stored report without any execution;
    * **base-chain maintenance** — a candidate that *fails* becomes
      ddmin's new base: every subsequent candidate is a subset of it.  If
      its run resumed from a checkpoint it already recorded its suffix
      (extending the chain); if it ran cold, nothing of its prefix is
      stored, so the wrapper re-runs it once under ``force_record`` to lay
      down the chain its derivatives will resume from.  This is what keys
      recording to schedules candidates are actually derived from, instead
      of pickling checkpoints on every throwaway candidate.

    With ``cache=None`` every call is a plain cold ``run`` — the
    benchmark baseline, bit-for-bit identical verdicts.
    """
    if cache is None:
        return lambda candidate: run(candidate, None)

    def evaluate(candidate):
        key = key_of(candidate)
        report = cache.memo_get(key)
        if report is None:
            hits_before = cache.hits
            report = run(candidate, cache)
            cache.memo_put(key, report)
            if (not report.ok and cache.hits == hits_before
                    and len(candidate) >= min_anchor):
                anchor = candidate
                if anchor_fraction < 1.0:
                    cut = max(min_anchor,
                              int(len(candidate) * anchor_fraction))
                    anchor = candidate[:cut]
                cache.force_record = True
                try:
                    run(anchor, cache)
                finally:
                    cache.force_record = False
        return report
    return evaluate


class CheckpointHook:
    """``on_checkpoint`` callback wiring one run into a cache.

    Recording follows a geometric backoff within each run: the first
    interval boundary after the run's start (for resumed runs, the resume
    point — exactly where the next ddmin candidates diverge) is recorded,
    then the gap doubles.  A run of E events therefore pickles at most
    ~log2(E / checkpoint_every) checkpoints — dense at the frontier where
    hits happen, cheap in the deep suffix that mostly never gets resumed.
    """

    __slots__ = ("cache", "context", "keys", "fault_script",
                 "_next_at", "_gap")

    def __init__(self, cache: PrefixReplayCache, context: tuple,
                 keys: Tuple[tuple, ...],
                 fault_script: Optional[frozenset] = None) -> None:
        self.cache = cache
        self.context = context
        self.keys = keys
        self.fault_script = fault_script
        self._next_at = 0
        self._gap = cache.checkpoint_every

    def __call__(self, machine) -> None:
        if machine.queue.executed < self._next_at:
            return
        if self.cache.record(self.context, machine, self.keys,
                             self.fault_script):
            self._gap *= 2
        self._next_at = machine.queue.executed + self._gap


def fault_script_set(plan) -> Optional[frozenset]:
    """The guard form of a plan's script (None when unscripted)."""
    if plan is None or plan.script is None:
        return None
    return frozenset((e.kind, e.opportunity) for e in plan.script)
