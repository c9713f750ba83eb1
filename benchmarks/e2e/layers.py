"""Per-layer attribution measured from outside the simulator.

Nothing under ``src/`` knows it is being measured.  This module wraps the
public functions at each layer boundary *at class or module level, before
any machine is built*, and removes every wrapper again afterwards:

* :class:`SimWork` counts simulated work at ``Simulator.run``, the one
  place every simulation (harness runs, fuzz/diff/chaos cases, shrink
  candidates) passes through.  It reads the machine's public counters
  before and after each run, so a run resumed from a snapshot counts only
  what it simulates.  Untraced benchmark runs install it in its light form
  (thread ops only) to compute ``sim_ops_per_s``.
* :class:`Tracer` records a span around every wrapped call: layer, start,
  end, span id, parent span id and the id of the request (the
  ``RunSpec.digest()`` of the spec, or the campaign call) it belongs to.
  Self time is aggregated exactly with a stack: a span's self time is its
  duration minus the durations of its direct children, so the self times
  of all spans sum to the root span.

Wrapper cost is calibrated once per tracer and subtracted from the layer
that pays it (the wrapped call's own interval and the caller's interval
around it); the subtracted total is reported as ``trace.wrapper_s`` so the
books still close exactly.  ``PamTable.record_access`` is never touched:
the L1 hit path inlines the PAM update only while that attribute is the
pristine function, so patching it would time a different program.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

#: Spans kept in memory per worker process (the first ones to complete).
MAX_SPANS = 200_000

#: The root span of every traced round; its self time is the benchmark
#: driver plus any program code outside the wrapped boundaries.
ROOT = "other"

#: The layers BENCHMARK.json reports, each the sum of the self times of
#: these spans.  Every group is busy on every workload: the harness and
#: check packages are one group because each workload exercises only one
#: of them.
GROUPS = {
    "events": ("events", "system.sim"),
    "l1.access": ("l1.access",),
    "l1.handle": ("l1.handle",),
    "dir.handle": ("dir.handle",),
    "core.fsdetect": ("core.fsdetect",),
    "core.sam": ("core.sam",),
    "net.send": ("net.send",),
    "memsys": ("memsys",),
    "workloads": ("workloads",),
    "builder": ("builder",),
    "harness": ("harness.engine", "harness.spec", "harness.verify",
                "check.campaign", "check.refmodel", "check.diff",
                "check.shrink", "check.sanitizer", "check.replay"),
    ROOT: (ROOT,),
}

#: Every span name, in report order.
LAYERS = tuple(name for spans in GROUPS.values() for name in spans)


class _Patcher:
    """Replaces attributes and puts the originals back, in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        if isinstance(owner, type) and name not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} does not define {name}")
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def set_function(self, module, name: str, make: Callable) -> None:
        """Replace ``module.name`` in every loaded ``repro`` module that
        bound the same function object with ``from ... import name``."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, name, None) is original:
                self.set(mod, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @property
    def patched(self) -> list:
        """``(owner, name, original)`` for every attribute replaced."""
        return list(self._saved)


def public_methods(cls) -> List[str]:
    """Plain public functions defined by ``cls`` itself (generator
    functions are skipped: wrapping one would time only its creation)."""
    return [name for name, value in cls.__dict__.items()
            if not name.startswith("_") and inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value)]


# ------------------------------------------------------------ work counts

#: Counters read from a machine's public state around ``Simulator.run``.
WORK_KEYS = (
    "cpu.ops", "cpu.mem_ops", "l1.accesses", "l1.hits", "events.executed",
    "dir.requests", "dir.llc_data_accesses", "dir.memory_fetches",
    "core.sam_accesses", "core.sam_allocations", "core.privatizations",
    "core.chk_pass", "core.chk_fail", "net.msgs", "net.bytes",
)


def _sample_ops(machine) -> tuple:
    return (sum(core.ops_executed for core in machine.cores),)


def _sample_full(machine) -> tuple:
    from repro.system.stats import (CORE_HITS, CORE_LOADS, CORE_RMWS,
                                    CORE_STORES, SLICE_CHK_FAIL,
                                    SLICE_CHK_PASS, SLICE_LLC_DATA_ACCESSES,
                                    SLICE_MEMORY_FETCHES,
                                    SLICE_PRIVATIZATIONS, SLICE_REQUESTS,
                                    SLICE_SAM_ACCESSES)

    accesses = hits = 0
    for l1 in machine.l1s:
        s = l1.stats
        accesses += s[CORE_LOADS] + s[CORE_STORES] + s[CORE_RMWS]
        hits += s[CORE_HITS]
    per_slice = [0] * 7
    allocations = 0
    for sl in machine.slices:
        s = sl.stats
        for i, key in enumerate((SLICE_REQUESTS, SLICE_LLC_DATA_ACCESSES,
                                 SLICE_MEMORY_FETCHES, SLICE_SAM_ACCESSES,
                                 SLICE_PRIVATIZATIONS, SLICE_CHK_PASS,
                                 SLICE_CHK_FAIL)):
            per_slice[i] += s.get(key, 0)
        if sl.detector is not None:
            allocations += sl.detector.sam.allocations
    net = machine.network.stats
    return (sum(core.ops_executed for core in machine.cores),
            sum(core.mem_ops for core in machine.cores),
            accesses, hits, machine.queue.executed,
            per_slice[0], per_slice[1], per_slice[2], per_slice[3],
            allocations, per_slice[4], per_slice[5], per_slice[6],
            net.total_messages, net.total_bytes)


class SimWork:
    """Simulated work, summed over every ``Simulator.run`` call.

    ``full=False`` counts thread ops only (cheap enough for the untraced
    runs that produce end-to-end numbers); ``full=True`` counts every key
    of :data:`WORK_KEYS`.
    """

    def __init__(self, full: bool) -> None:
        self.keys = WORK_KEYS if full else WORK_KEYS[:1]
        self._sample = _sample_full if full else _sample_ops
        self.totals = [0] * len(self.keys)

    def reset(self) -> None:
        self.totals[:] = [0] * len(self.keys)

    def snapshot(self) -> Dict[str, int]:
        return dict(zip(self.keys, self.totals))

    def wrap_run(self, run: Callable) -> Callable:
        sample, totals = self._sample, self.totals

        @functools.wraps(run)
        def counted(simulator, *args, **kwargs):
            machine = simulator.machine
            before = sample(machine)
            try:
                return run(simulator, *args, **kwargs)
            finally:
                for i, value in enumerate(sample(machine)):
                    totals[i] += value - before[i]
        return counted


# ----------------------------------------------------------------- spans

class Tracer:
    """Spans at layer boundaries with exact stack-based self time."""

    def __init__(self, max_spans: int = MAX_SPANS,
                 calibrate: bool = True) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        # Per layer: raw self ns, spans, and direct child spans.
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self.child_calls: List[int] = []
        self.root_ns = 0
        self.shrink_evals = 0
        #: Stack of open spans: ``[child_ns, span_id, layer]``.
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.max_spans = max_spans
        self.tags: List[str] = [""]
        self._tag_ids: Dict[str, int] = {"": 0}
        self.tag = 0
        for name in LAYERS:
            self.layer(name)
        self.inner_ns, self.outer_ns = (_calibrate() if calibrate
                                        else (0.0, 0.0))

    def layer(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
            self.child_calls.append(0)
        return idx

    def _tag_id(self, tag: str) -> int:
        idx = self._tag_ids.get(tag)
        if idx is None:
            idx = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return idx

    def wrap(self, layer: str, fn: Callable,
             tag_of: Optional[Callable] = None) -> Callable:
        """``fn`` with a span of ``layer`` around every call; ``tag_of``
        (given the call's arguments) names the request the span opens."""
        idx = self.layer(layer)
        stack, spans, cap = self._stack, self.spans, self.max_spans
        self_ns, calls, child_calls = (self.self_ns, self.calls,
                                       self.child_calls)
        ids, clock, tracer = self._ids, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            frame = [0, span_id, idx]
            outer_tag = tracer.tag
            if tag_of is not None:
                tracer.tag = tracer._tag_id(tag_of(*args, **kwargs))
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[idx] += duration - frame[0]
                calls[idx] += 1
                if parent is not None:
                    parent[0] += duration
                    child_calls[parent[2]] += 1
                else:
                    tracer.root_ns += duration
                if len(spans) < cap:
                    spans.append((idx, start, end, span_id,
                                  parent[1] if parent is not None else 0,
                                  tracer.tag))
                tracer.tag = outer_tag
        return traced

    # -------------------------------------------------------------- rounds

    def reset(self) -> None:
        for counts in (self.self_ns, self.calls, self.child_calls):
            counts[:] = [0] * len(counts)
        self.root_ns = 0
        self.shrink_evals = 0

    def self_seconds(self) -> tuple:
        """Per-layer self seconds with wrapper cost removed, and the
        removed total; together they sum to the root spans exactly."""
        out: Dict[str, float] = {}
        wrapper_ns = 0.0
        for idx, name in enumerate(self.names):
            raw = self.self_ns[idx]
            cost = (self.inner_ns * self.calls[idx]
                    + self.outer_ns * self.child_calls[idx])
            kept = max(0.0, raw - cost)
            wrapper_ns += raw - kept
            out[name] = kept / 1e9
        return out, wrapper_ns / 1e9

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome-trace JSON (chrome://tracing, Perfetto):
        one complete event per span, parent/request ids in ``args``."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(span[1] for span in self.spans)
        events = [{
            "name": self.names[idx], "cat": self.names[idx].split(".")[0],
            "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - t0) / 1000, "dur": (end - start) / 1000,
            "args": {"id": span_id, "parent": parent,
                     "request": self.tags[tag]},
        } for idx, start, end, span_id, parent, tag in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _calibrate(n: int = 20_000, repeats: int = 9) -> tuple:
    """Median per-call wrapper cost in ns: ``inner`` lands inside the
    wrapped call's own interval, ``outer`` in its caller's."""

    def noop():
        return None

    def loop(call):
        for _ in range(n):
            call()

    inner, outer = [], []
    for _ in range(repeats):
        probe = Tracer(max_spans=0, calibrate=False)
        child = probe.wrap("child", noop)
        start = time.perf_counter_ns()
        loop(noop)
        bare = time.perf_counter_ns() - start
        probe.wrap("parent", loop)(child)
        inner.append(probe.self_ns[probe.layer("child")] / n)
        outer.append(max(0.0, (probe.self_ns[probe.layer("parent")]
                               - bare) / n))
    return statistics.median(inner), statistics.median(outer)


class _TimedProgram:
    """A thread program whose ``next``/``send`` run inside spans."""

    __slots__ = ("_next", "send")

    def __init__(self, program, tracer: Tracer) -> None:
        self._next = tracer.wrap("workloads", program.__next__)
        self.send = tracer.wrap("workloads", program.send)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


# ------------------------------------------------------------- installing

def _spec_tag(spec, *args, **kwargs) -> str:
    return spec.digest()


def _campaign_tag(name: str) -> Callable:
    def tag(*args, **kwargs) -> str:
        # hunt_mutation_escape takes the mutation first; the campaigns
        # take it (and everything else) by keyword.
        mutation = (args[0] if name == "hunt_mutation_escape"
                    else kwargs.get("mutation")) or "clean"
        return f"{name}:seed={kwargs.get('seed', 0)}:{mutation}"
    return tag


class Instruments:
    """The benchmark's wrappers, installed for the life of a ``with``.

    Untraced: only :class:`SimWork` (thread ops).  Traced: full work
    counts plus a :class:`Tracer` span at every layer boundary.
    """

    def __init__(self, traced: bool) -> None:
        self.work = SimWork(full=traced)
        self.tracer = Tracer() if traced else None
        self.replay_caches: list = []
        self._patcher = _Patcher()

    def __enter__(self) -> "Instruments":
        from repro.system.simulator import Simulator

        run = self.work.wrap_run(Simulator.run)
        if self.tracer is not None:
            run = self.tracer.wrap("system.sim", run)
            self._install_spans()
        self._patcher.set(Simulator, "run", run)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    @property
    def patched(self) -> list:
        return self._patcher.patched

    def reset(self) -> None:
        self.work.reset()
        self.replay_caches.clear()
        if self.tracer is not None:
            self.tracer.reset()

    def replay_hit_ratio(self) -> float:
        hits = lookups = 0
        for cache in self.replay_caches:
            hits += cache.hits + cache.ref_hits
            lookups += (cache.hits + cache.misses + cache.ref_hits
                        + cache.ref_misses)
        return hits / lookups if lookups else 0.0

    def _install_spans(self) -> None:
        import repro.check.diff as diff
        import repro.check.fuzz as fuzz
        import repro.check.refmodel as refmodel
        import repro.faults.chaos as chaos
        import repro.harness.runner as runner
        import repro.system.builder as builder
        import repro.system.simulator as simulator
        from repro.check.replay import PrefixReplayCache
        from repro.check.sanitizer import Sanitizer
        from repro.coherence.directory import DirectorySlice
        from repro.coherence.l1_controller import L1Controller
        from repro.common.events import EventQueue
        from repro.core.fsdetect import FalseSharingDetector
        from repro.core.sam import SamEntry, SamTable
        from repro.cpu.core import InOrderCore
        from repro.harness.engine import Engine
        from repro.interconnect.network import Network
        from repro.memsys.cache_array import CacheArray
        from repro.workloads.base import Workload
        from repro.workloads.registry import REGISTRY

        tracer, patch = self.tracer, self._patcher

        def span(owner, name, layer, tag_of=None):
            patch.set(owner, name,
                      tracer.wrap(layer, getattr(owner, name), tag_of))

        span(EventQueue, "drain", "events")
        span(L1Controller, "access", "l1.access")
        span(L1Controller, "handle_message", "l1.handle")
        span(DirectorySlice, "handle_message", "dir.handle")
        for name in public_methods(FalseSharingDetector):
            span(FalseSharingDetector, name, "core.fsdetect")
        for cls in (SamTable, SamEntry):
            for name in public_methods(cls):
                span(cls, name, "core.sam")
        span(Network, "send", "net.send")
        for name in public_methods(CacheArray):
            span(CacheArray, name, "memsys")
        span(Engine, "run_many", "harness.engine")
        span(PrefixReplayCache, "ref_run", "check.refmodel")
        for name in ("lookup", "record", "restore"):
            span(PrefixReplayCache, name, "check.replay")
        for name in ("on_send", "on_deliver", "check_block", "sweep",
                     "check_all"):
            span(Sanitizer, name, "check.sanitizer")
        for cls in {Workload, *REGISTRY.values()}:
            if "verify" in cls.__dict__:
                span(cls, "verify", "harness.verify")

        def function(module, name, layer, tag_of=None):
            patch.set_function(module, name,
                               lambda fn: tracer.wrap(layer, fn, tag_of))

        function(builder, "build_machine", "builder")
        function(simulator, "flush_machine_memory", "harness.verify")
        function(runner, "execute_spec", "harness.spec", _spec_tag)
        function(refmodel, "run_reference", "check.refmodel")
        function(diff, "differential_check", "check.diff")
        for module, name in ((diff, "diff_campaign"),
                             (fuzz, "fuzz_campaign"),
                             (chaos, "chaos_campaign"),
                             (diff, "hunt_mutation_escape")):
            function(module, name, "check.campaign", _campaign_tag(name))

        def counted_shrink(shrink):
            def shrink_schedule(schedule, fails, *args, **kwargs):
                def counted(candidate):
                    tracer.shrink_evals += 1
                    return fails(candidate)
                return shrink(schedule, counted, *args, **kwargs)
            return tracer.wrap("check.shrink", shrink_schedule)
        patch.set_function(fuzz, "shrink_schedule", counted_shrink)

        caches = self.replay_caches
        init = PrefixReplayCache.__init__

        @functools.wraps(init)
        def registered_init(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            caches.append(cache)
        patch.set(PrefixReplayCache, "__init__", registered_init)

        # Thread programs: time every next/send, including the generator
        # fast-forward that rebinds programs after a snapshot restore.
        from repro.system.builder import Machine

        attach = Machine.attach_programs

        @functools.wraps(attach)
        def attach_programs(machine, programs=None, core_model="inorder",
                            ooo_window=8, program_factory=None):
            if programs is None and program_factory is not None:
                programs = tracer.wrap("workloads", program_factory)()
            if programs is not None:
                programs = [_TimedProgram(p, tracer) for p in programs]
            return attach(machine, programs, core_model, ooo_window,
                          program_factory)
        patch.set(Machine, "attach_programs", attach_programs)

        rebind = InOrderCore.rebind_program

        @functools.wraps(rebind)
        def rebind_program(core, program):
            if program is not None:
                program = _TimedProgram(program, tracer)
            return rebind(core, program)
        patch.set(InOrderCore, "rebind_program", rebind_program)
