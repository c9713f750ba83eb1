"""The unit of work: a :class:`RunSpec` and its execution.

A :class:`RunSpec` is a frozen, hashable description of one simulation —
(workload, protocol, layout, machine config, threads, scale, seed, core
model).  Equal specs describe identical, deterministic simulations, so a
spec is both the dedup key inside an engine batch and (via :meth:`RunSpec.
digest`) the key of the on-disk result cache.

:func:`execute_spec` performs the actual simulation; the process-parallel,
memoizing front-end lives in :mod:`repro.harness.engine`.  The historic
``run_workload(**kwargs)`` entry point remains as a thin compatibility shim
over ``Engine.run_one(RunSpec(...))``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.coherence.states import ProtocolMode
from repro.common.config import ObsConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.system.builder import build_machine
from repro.system.simulator import Simulator, flush_machine_memory
from repro.system.stats import SimStats
from repro.workloads.registry import make_workload
from repro.workloads.trace import TracePrograms, TraceRef

#: The paper evaluates with 4 child threads on an 8-core machine.
DEFAULT_THREADS = 4


@dataclass(frozen=True)
class RunSpec:
    """Frozen description of one simulation run.

    Two equal specs always produce cycle-for-cycle identical
    :class:`RunRecord`\\ s (the simulator is deterministic and the workload
    RNG is seeded from ``seed``), which is what makes batch-level dedup and
    the persistent result cache sound.
    """

    tag: str
    mode: ProtocolMode = ProtocolMode.MESI
    layout: str = "packed"
    config: Optional[SystemConfig] = None
    num_threads: int = DEFAULT_THREADS
    scale: float = 1.0
    seed: int = 0
    core_model: str = "inorder"
    ooo_window: int = 8
    verify: bool = True
    #: Observability instruments to attach around the run (None = none).
    #: Observation never changes simulated behaviour; the payload lands in
    #: ``RunRecord.extra["obs"]``.
    obs: Optional[ObsConfig] = None
    #: Warm-start split point in cycles.  When nonzero, the engine may run
    #: the machine to this cycle once, snapshot it, and fork every spec
    #: sharing the same warm digest (see :func:`warm_digest`) from that
    #: snapshot instead of re-simulating the prefix.  0 = always cold.
    #: Results are bit-for-bit identical either way.
    warmup: int = 0
    #: Content-addressed ``.rtrace`` reference (None = live workload).
    #: When set, thread programs stream from the trace file instead of
    #: ``make_workload(tag)`` — ``tag``/``layout``/``scale``/``seed`` become
    #: labels only — and the trace's content digest is part of the spec's
    #: serialized form, keying the result cache and warm-start snapshots.
    #: ``verify`` is ignored (traces carry no expected-result predicate).
    #: Build replay specs with :func:`repro.workloads.trace.trace_spec`.
    trace: Optional[TraceRef] = None

    #: Valid ``layout`` / ``core_model`` values (fail at construction, not
    #: deep inside a worker process half a batch later).
    VALID_LAYOUTS = ("packed", "padded", "huron")
    VALID_CORE_MODELS = ("inorder", "ooo")

    def __post_init__(self) -> None:
        # Normalize so RunSpec(tag="ww") == RunSpec(tag="ww",
        # config=SystemConfig()) — same work, same digest, same cache slot.
        if self.config is None:
            object.__setattr__(self, "config", SystemConfig())
        if not self.tag or not isinstance(self.tag, str):
            raise ConfigError("RunSpec.tag must be a non-empty workload tag")
        if self.layout not in self.VALID_LAYOUTS:
            raise ConfigError(
                f"RunSpec.layout {self.layout!r} is not one of "
                f"{', '.join(self.VALID_LAYOUTS)}")
        if self.core_model not in self.VALID_CORE_MODELS:
            raise ConfigError(
                f"RunSpec.core_model {self.core_model!r} is not one of "
                f"{', '.join(self.VALID_CORE_MODELS)}")
        if not 1 <= self.num_threads <= self.config.num_cores:
            raise ConfigError(
                f"RunSpec.num_threads={self.num_threads} must be in "
                f"[1, {self.config.num_cores}] (config.num_cores)")
        if not self.scale > 0:
            raise ConfigError(f"RunSpec.scale={self.scale!r} must be > 0")
        if self.ooo_window < 1:
            raise ConfigError(
                f"RunSpec.ooo_window={self.ooo_window} must be >= 1")
        if self.warmup < 0:
            raise ConfigError(
                f"RunSpec.warmup={self.warmup} must be >= 0")
        if self.trace is not None and not isinstance(self.trace, TraceRef):
            raise ConfigError(
                "RunSpec.trace must be a TraceRef (use TraceRef.of(path) "
                "or repro.workloads.trace.trace_spec)")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-dict form (inverse of :meth:`from_dict`)."""
        d: Dict[str, Any] = {
            "tag": self.tag,
            "mode": self.mode.value,
            "layout": self.layout,
            "config": self.config.to_dict(),
            "num_threads": self.num_threads,
            "scale": self.scale,
            "seed": self.seed,
            "core_model": self.core_model,
            "ooo_window": self.ooo_window,
            "verify": self.verify,
        }
        # Only serialized when set, so pre-observability digests (golden
        # cycle-identity table, cached results) stay valid verbatim; same
        # for ``warmup``, which does not change the simulated outcome.
        if self.obs is not None:
            d["obs"] = asdict(self.obs)
        if self.warmup:
            d["warmup"] = self.warmup
        if self.trace is not None:
            d["trace"] = {"path": self.trace.path,
                          "digest": self.trace.digest}
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        return cls(
            tag=data["tag"],
            mode=ProtocolMode(data["mode"]),
            layout=data["layout"],
            config=SystemConfig.from_dict(data["config"]),
            num_threads=data["num_threads"],
            scale=data["scale"],
            seed=data["seed"],
            core_model=data["core_model"],
            ooo_window=data["ooo_window"],
            verify=data["verify"],
            obs=(ObsConfig(**data["obs"]) if data.get("obs") is not None
                 else None),
            warmup=data.get("warmup", 0),
            trace=(TraceRef(path=data["trace"]["path"],
                            digest=data["trace"]["digest"])
                   if data.get("trace") is not None else None),
        )

    def digest(self) -> str:
        """Stable content hash of the spec (identical across processes).

        For trace specs the trace file's *path* is excluded: the content
        digest alone identifies the replayed op streams, so the same trace
        replays to the same cache slot from any checkout location, and a
        committed golden manifest keyed by spec digest stays portable.
        """
        d = self.to_dict()
        if "trace" in d:
            d["trace"] = {"digest": d["trace"]["digest"]}
        payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


@dataclass
class RunRecord:
    """Outcome of one simulation run of one workload."""

    tag: str
    mode: ProtocolMode
    layout: str
    cycles: int
    stats: SimStats
    core_model: str = "inorder"
    extra: dict = field(default_factory=dict)
    #: The spec that produced this record (None only for hand-built records).
    spec: Optional[RunSpec] = None

    @property
    def l1_miss_rate(self) -> float:
        return self.stats.l1_miss_rate

    @property
    def energy_nj(self) -> float:
        return self.stats.energy_nj

    def speedup_over(self, baseline: "RunRecord") -> float:
        return baseline.cycles / self.cycles

    def energy_vs(self, baseline: "RunRecord") -> float:
        return self.energy_nj / baseline.energy_nj


class _WorkloadPrograms:
    """Picklable thread-program factory for a workload spec.

    Machines attached through this factory can be snapshot/restored: the
    factory travels inside the snapshot and rebuilds identical generators
    (workload construction is deterministic in its arguments) which each
    core then fast-forwards via its recorded send history.
    """

    __slots__ = ("tag", "num_threads", "scale", "layout", "seed")

    def __init__(self, tag: str, num_threads: int, scale: float,
                 layout: str, seed: int) -> None:
        self.tag = tag
        self.num_threads = num_threads
        self.scale = scale
        self.layout = layout
        self.seed = seed

    def __call__(self):
        return make_workload(self.tag, num_threads=self.num_threads,
                             scale=self.scale, layout=self.layout,
                             seed=self.seed).programs()


def warm_digest(spec: RunSpec) -> str:
    """Key of the warm-start snapshot ``spec`` can fork from.

    Everything that shapes the simulation up to the ``warmup`` cycle is
    included; ``verify`` is not (it only affects post-run checking), so
    verified and unverified sweep points share one warm snapshot.
    """
    d = spec.to_dict()
    d.pop("verify", None)
    payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _build_and_attach(spec: RunSpec):
    """Build the machine for ``spec`` with programs and instruments
    attached (sanitizer/observers land in ``machine.extras`` so they
    travel with snapshots).  Returns the machine, not yet started."""
    machine = build_machine(spec.config, spec.mode)
    if spec.trace is not None:
        factory = TracePrograms(spec.trace.path, spec.trace.digest,
                                spec.num_threads, spec.config.block_size)
    else:
        factory = _WorkloadPrograms(spec.tag, spec.num_threads, spec.scale,
                                    spec.layout, spec.seed)
    machine.attach_programs(
        program_factory=factory,
        core_model=spec.core_model, ooo_window=spec.ooo_window)
    if spec.config.sanitizer.enabled:
        # Imported lazily: the sanitizer is opt-in and nothing on the plain
        # simulation path should pay for the check package.
        from repro.check.sanitizer import Sanitizer

        machine.extras["sanitizer"] = Sanitizer(machine).attach()
    if spec.obs is not None:
        # Same lazy-import rationale as the sanitizer above.
        from repro.obs import EpisodeTracker, MetricsSampler

        if spec.obs.episodes:
            machine.extras["tracker"] = EpisodeTracker(machine).attach()
        if spec.obs.metrics:
            machine.extras["sampler"] = MetricsSampler(
                machine, period=spec.obs.sample_period).attach()
    return machine


def build_warm_snapshot(spec: RunSpec):
    """Run ``spec``'s machine to its ``warmup`` cycle and snapshot it.

    The snapshot captures cores mid-program, in-flight messages, pending
    events and attached instruments; any spec with the same
    :func:`warm_digest` can resume from it bit-for-bit."""
    if spec.warmup <= 0:
        raise ConfigError("build_warm_snapshot needs spec.warmup > 0")
    machine = _build_and_attach(spec)
    try:
        for core in machine.cores:
            core.start()
        machine.queue.run(until=spec.warmup)
        return machine.snapshot()
    finally:
        machine.close()


def execute_spec(spec: RunSpec, warm=None) -> RunRecord:
    """Build, run and (optionally) verify the simulation ``spec`` describes.

    ``spec.verify`` checks the final coherent memory image against the
    workload's expected result — a full end-to-end coherence check on every
    harness run.  This is the single place simulations actually happen; the
    engine calls it (possibly in a worker process) and everything else goes
    through the engine.  ``warm`` is an optional
    :class:`~repro.system.snapshot.MachineSnapshot` built by
    :func:`build_warm_snapshot` for this spec's :func:`warm_digest`.
    """
    record, machine = execute_spec_with_machine(spec, warm=warm)
    machine.close()  # freed by reference counting, not the cyclic GC
    return record


def execute_spec_with_machine(spec: RunSpec, warm=None):
    """Like :func:`execute_spec` but also returns the finished
    :class:`~repro.system.builder.Machine` for post-run inspection (the
    differential oracle reads caches, SAM/PAM tables and network
    accounting after the run).  Returns ``(record, machine)``; the
    machine is still open, and the caller closes it
    (:meth:`~repro.system.builder.Machine.close`) once it has been read.
    If the run or the verify raises, the machine is closed first.
    """
    if warm is not None:
        from repro.system.builder import Machine

        machine = Machine.restore(warm)
    else:
        machine = _build_and_attach(spec)
    try:
        return _run_built(spec, machine, resume=warm is not None), machine
    except BaseException:
        machine.close()
        raise


def _run_built(spec: RunSpec, machine, resume: bool = False) -> RunRecord:
    """Run a machine built (or restored) for ``spec``, verify it and
    assemble its :class:`RunRecord` — the run half of
    :func:`execute_spec_with_machine`, which :func:`~repro.workloads.
    trace.record_trace` shares.  The caller owns ``machine`` and closes
    it, also when this raises."""
    sanitizer = machine.extras.get("sanitizer")
    tracker = machine.extras.get("tracker")
    sampler = machine.extras.get("sampler")
    try:
        result = Simulator(machine).run(resume=resume)
        if sanitizer is not None:
            sanitizer.check_all()
    finally:
        if sanitizer is not None:
            sanitizer.detach()
        if tracker is not None:
            tracker.finish(machine.queue.now)
            tracker.detach()
        if sampler is not None:
            sampler.finish(machine.queue.now)
            sampler.detach()
    if spec.verify and spec.trace is None:
        workload = make_workload(spec.tag, num_threads=spec.num_threads,
                                 scale=spec.scale, layout=spec.layout,
                                 seed=spec.seed)
        workload.verify(flush_machine_memory(machine))
    record = RunRecord(tag=spec.tag, mode=spec.mode, layout=spec.layout,
                       cycles=result.cycles, stats=result.stats,
                       core_model=spec.core_model, spec=spec)
    if sanitizer is not None:
        record.extra["sanitizer_blocks_checked"] = sanitizer.blocks_checked
    if spec.obs is not None:
        obs_payload: Dict[str, Any] = {
            "meta": {
                "num_cores": spec.config.num_cores,
                "num_slices": len(machine.slices),
                "cycles": result.cycles,
                "sample_period": spec.obs.sample_period,
            },
        }
        if tracker is not None:
            obs_payload["episodes"] = tracker.to_dict()["episodes"]
        if sampler is not None:
            obs_payload["metrics"] = sampler.to_dict()
        record.extra["obs"] = obs_payload
    return record


def run_workload(
    tag: str,
    mode: ProtocolMode = ProtocolMode.MESI,
    layout: str = "packed",
    config: Optional[SystemConfig] = None,
    num_threads: int = DEFAULT_THREADS,
    scale: float = 1.0,
    seed: int = 0,
    core_model: str = "inorder",
    ooo_window: int = 8,
    verify: bool = True,
    obs: Optional[ObsConfig] = None,
) -> RunRecord:
    """Run one workload combination and return its record.

    .. deprecated::
        Compatibility shim over ``Engine.run_one(RunSpec(...))``.  New code
        should build :class:`RunSpec` batches and submit them through
        :class:`repro.harness.engine.Engine` to get dedup, caching and
        process parallelism.
    """
    from repro.harness.engine import default_engine

    spec = RunSpec(tag=tag, mode=mode, layout=layout, config=config,
                   num_threads=num_threads, scale=scale, seed=seed,
                   core_model=core_model, ooo_window=ooo_window,
                   verify=verify, obs=obs)
    return default_engine().run_one(spec)
