"""The benchmark's four workloads.

Each workload runs at the full length users run (``quick`` shrinks it for
the self-test).  It turns the seed into inputs during set-up (the
simulator only ever sees the generated specs, trace file or campaign
seeds) and then runs identical *rounds*; one round is the unit whose host
time is measured.
Every round checks its own outputs and returns a digest of everything it
simulated, which must repeat across rounds and between traced and
untraced rounds.  All runs are cold: each round starts a fresh
``Engine(jobs=1)`` whose result cache directory is empty, and each
campaign builds its own replay caches.

The program is called through module attributes (``runner.execute_spec``,
``diff.diff_campaign``, ...) so the traced run's wrappers, installed on
those attributes, see every call.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

import repro.check.diff as diff
import repro.check.fuzz as fuzz
import repro.faults.chaos as chaos
import repro.harness.runner as runner
from repro.check.mutations import MUTATIONS
from repro.coherence.states import ProtocolMode
from repro.harness.engine import Engine, EngineError
from repro.harness.runner import RunSpec
from repro.harness.tables import geomean
from repro.system.stats import CORE_HITS
from repro.workloads.registry import FS_WORKLOADS
from repro.workloads.trace import SharingProfile, synthesize_trace, trace_spec


@dataclass
class Round:
    """Outcome of one timed round."""

    #: Operations attempted: simulation runs, trace replays or campaign
    #: cases (schedules checked, mutation hunts).
    units: int
    #: How many of them failed a check.
    failed: int
    #: Digest of every simulated outcome in the round.
    digest: str
    #: The checked outputs, pinned for the default seed in expected.json.
    summary: Dict[str, object]
    errors: List[str] = field(default_factory=list)
    #: Workload-specific splits of the round (campaign only).
    extras: Dict[str, float] = field(default_factory=dict)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _records_digest(records) -> str:
    return _digest(sorted(
        [rec.spec.digest(), rec.cycles, rec.stats.per_core,
         rec.stats.per_slice, rec.stats.network] for rec in records))


def _run_cold(keyed: Dict[object, RunSpec], workdir: pathlib.Path,
              errors: List[str]) -> dict:
    """Run ``keyed`` specs through a fresh serial engine whose result
    cache starts empty; returns the records that completed."""
    cache = pathlib.Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    engine = Engine(jobs=1, cache_dir=cache, executor=runner.execute_spec)
    try:
        return engine.run_keyed(keyed)
    except EngineError as exc:
        errors.append(str(exc))
        done = exc.partial or {}
        return {key: done[spec] for key, spec in keyed.items()
                if spec in done}
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def _thread_ops(record) -> int:
    return sum(core["ops"] for core in record.stats.extra["core_stats"])


def _hit_ratio(records) -> float:
    records = list(records)
    hits = sum(core.get(CORE_HITS, 0) for rec in records
               for core in rec.stats.per_core)
    return round(hits / sum(rec.stats.accesses for rec in records), 4)


def _hit_ratios(recs: dict) -> Dict[str, float]:
    """L1 hit ratio per protocol mode of ``{(tag, mode): record}``."""
    return {mode.name: _hit_ratio(rec for (_, m), rec in recs.items()
                                  if m is mode)
            for mode in {mode for _, mode in recs}}


class Workload:
    name = ""
    #: Trace file bytes per replayed op (trace-replay only).
    bytes_per_op = 0.0
    #: The paper's numbers for outputs that have one.
    paper: Dict[str, float] = {}

    def __init__(self, seed: int, quick: bool,
                 workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def run_round(self) -> Round:
        raise NotImplementedError


class Fig14(Workload):
    """Figure 14: the eight false-sharing apps under MESI, FSDetect and
    FSLite (24 runs) at full length (scale 1.0).  A shorter sweep is not
    the same load: at scale 0.15 per-run fixed costs weigh more and the L1
    access path's share of host time drops from 34.5% to 28.1%."""

    name = "fig14"
    paper = {"fslite_geomean": 1.39, "fslite_energy_geomean": 0.73}
    MODES = (ProtocolMode.MESI, ProtocolMode.FSDETECT, ProtocolMode.FSLITE)

    def __init__(self, seed, quick, workdir) -> None:
        super().__init__(seed, quick, workdir)
        scale = 0.02 if quick else 1.0
        self.specs = {(tag, mode): RunSpec(tag=tag, mode=mode, scale=scale,
                                           seed=seed)
                      for tag in FS_WORKLOADS for mode in self.MODES}

    def run_round(self) -> Round:
        errors: List[str] = []
        recs = _run_cold(self.specs, self.workdir, errors)
        summary: Dict[str, object] = {}
        if len(recs) == len(self.specs):
            speedups, energies = [], []
            for tag in FS_WORKLOADS:
                base = recs[(tag, ProtocolMode.MESI)]
                fsl = recs[(tag, ProtocolMode.FSLITE)]
                speedups.append(base.cycles / fsl.cycles)
                energies.append(fsl.energy_vs(base))
            summary = {
                "cycles_checksum": sum(r.cycles for r in recs.values()),
                "fslite_geomean": round(geomean(speedups), 3),
                "fslite_energy_geomean": round(geomean(energies), 3),
                "l1_hit_ratio": _hit_ratios(recs),
            }
        return Round(units=len(self.specs),
                     failed=len(self.specs) - len(recs),
                     digest=_records_digest(recs.values()),
                     summary=summary, errors=errors)


class CoherenceStorm(Workload):
    """Miss-heavy microbenchmarks under MESI and FSDetect: ping-pong
    false sharing, SAM pressure (ml) and LLC capacity misses (CA)."""

    name = "coherence-storm"
    #: (tag, scale); a round runs each under both modes.
    MIX = (("ww", 30), ("rw", 30), ("is", 15), ("ml", 30), ("CA", 2))
    MODES = (ProtocolMode.MESI, ProtocolMode.FSDETECT)

    def __init__(self, seed, quick, workdir) -> None:
        super().__init__(seed, quick, workdir)
        factor = 0.01 if quick else 1.0
        self.specs = {(tag, mode): RunSpec(tag=tag, mode=mode,
                                           scale=scale * factor, seed=seed)
                      for tag, scale in self.MIX for mode in self.MODES}

    def run_round(self) -> Round:
        errors: List[str] = []
        recs = _run_cold(self.specs, self.workdir, errors)
        summary: Dict[str, object] = {}
        if len(recs) == len(self.specs):
            stats = [r.stats for r in recs.values()]
            accesses = sum(s.accesses for s in stats)
            summary = {
                "cycles_checksum": sum(r.cycles for r in recs.values()),
                "l1_hit_ratio": _hit_ratios(recs),
                "msgs_per_access": round(sum(s.total_messages
                                             for s in stats) / accesses, 4),
            }
        return Round(units=len(self.specs),
                     failed=len(self.specs) - len(recs),
                     digest=_records_digest(recs.values()),
                     summary=summary, errors=errors)


class TraceReplay(Workload):
    """A synthesized 1M-op, 4-thread ``.rtrace`` (written during set-up),
    replayed streaming under FSDetect: what a user does to find the false
    sharing in a captured trace.  FSDetect keeps MESI's coherence traffic
    and adds the detection metadata (SAM, FSDetect counters)."""

    name = "trace-replay"

    def __init__(self, seed, quick, workdir) -> None:
        super().__init__(seed, quick, workdir)
        total = 4_000 if quick else 1_000_000
        path = workdir / "replay.rtrace"
        info = synthesize_trace(SharingProfile(
            num_threads=4, ops_per_thread=total // 4, seed=seed), path)
        self.total_ops = info.total_ops
        self.bytes_per_op = path.stat().st_size / info.total_ops
        self.spec = trace_spec(path, mode=ProtocolMode.FSDETECT)

    def run_round(self) -> Round:
        errors: List[str] = []
        recs = _run_cold({"replay": self.spec}, self.workdir, errors)
        summary: Dict[str, object] = {}
        failed = 1
        if recs:
            record = recs["replay"]
            replayed = _thread_ops(record)
            summary = {"cycles": record.cycles, "ops_replayed": replayed,
                       "l1_hit_ratio": _hit_ratio([record])}
            if replayed == self.total_ops:
                failed = 0
            else:
                errors.append(f"replayed {replayed} of {self.total_ops} "
                              "trace ops")
        return Round(units=1, failed=failed,
                     digest=_records_digest(recs.values()),
                     summary=summary, errors=errors)


#: Campaign seeds below 60 on which the clean half finds FSLite
#: divergences (PRV sharer-set invariant, final-image mismatch, DATA_WB
#: during INV_COLLECT).  These are open findings of the program, not of the
#: benchmark, which measures speed and so draws its campaign seeds from
#: the others.
CAMPAIGN_FAILING_SEEDS = frozenset({14, 22, 27, 41, 52, 56})


class Campaign(Workload):
    """Correctness campaigns.  Clean half: differential, fuzz and chaos
    schedules that must all pass.  Bug-hunting half: every seeded
    protocol mutation must be found, ddmin-shrunk to at most 10 ops and
    rendered as a pytest repro, with each of the hunt seeds
    ``0 .. hunts - 1``.

    Only the clean half follows ``--seed``.  The hunts are a fixed corpus:
    how long a hunt takes varies by its seed far more than a clean case
    does, and hunt seeds that follow ``--seed`` spread the round's length
    over seeds by up to 6.4% (quartile distance over median)."""

    name = "campaign"
    MAX_SHRUNK = 10
    #: A hunt gives up after this many schedules; the rarest mutation is
    #: caught on about 1 schedule in 7, so a miss means a real escape.
    MAX_ATTEMPTS = 200
    #: The campaign seeds ``--seed`` maps onto.
    SEEDS = tuple(s for s in range(60) if s not in CAMPAIGN_FAILING_SEEDS)

    def __init__(self, seed, quick, workdir) -> None:
        super().__init__(seed, quick, workdir)
        self.campaign_seed = self.SEEDS[seed % len(self.SEEDS)]
        self.diff_cases, self.fuzz_cases, self.chaos_cases, self.hunts = (
            (3, 3, 3, 1) if quick else (200, 90, 45, 12))

    def run_round(self) -> Round:
        seed = self.campaign_seed
        start = time.perf_counter()
        clean = [
            diff.diff_campaign(iterations=self.diff_cases, seed=seed),
            fuzz.fuzz_campaign(iterations=self.fuzz_cases, seed=seed,
                               differential=True),
            chaos.chaos_campaign(iterations=self.chaos_cases, seed=seed,
                                 differential=True),
        ]
        clean_s = time.perf_counter() - start
        cases = sum(result.iterations for result in clean)
        divergences = sum(len(result.findings) for result in clean)
        errors = [f"{type(result).__name__}: {len(result.findings)} "
                  "finding(s)" for result in clean if result.findings]
        shrunk: Dict[str, List[int]] = {name: [] for name in MUTATIONS}
        hunted = []
        missed = 0
        for k in range(self.hunts):
            for mutation in sorted(MUTATIONS):
                escape = diff.hunt_mutation_escape(
                    mutation, seed=k, max_attempts=self.MAX_ATTEMPTS)
                if not escape.caught or len(escape.shrunk) > self.MAX_SHRUNK:
                    missed += 1
                    errors.append(f"{mutation}: caught={escape.caught}, "
                                  f"shrunk to {len(escape.shrunk)} ops")
                    continue
                shrunk[mutation].append(len(escape.shrunk))
                repro = diff.render_diff_repro(
                    escape.shrunk, [escape.mode], mutation, escape.detail,
                    case_seed=escape.case_seed)
                hunted.append([mutation, escape.attempts, escape.case_seed,
                               repr(escape.shrunk), repro])
        hunt_s = time.perf_counter() - start - clean_s
        summary = {
            "divergences": divergences,
            "blocks_compared": clean[0].blocks_compared,
            "mutations_caught": self.hunts * len(MUTATIONS) - missed,
            "shrunk_ops": shrunk,
        }
        digest = _digest([summary, cases, hunted])
        return Round(units=cases + self.hunts * len(MUTATIONS),
                     failed=divergences + missed, digest=digest,
                     summary=summary, errors=errors,
                     extras={"cases": cases, "cases_per_s": cases / clean_s,
                             "shrink_s": hunt_s})


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in (
    Fig14, CoherenceStorm, TraceReplay, Campaign)}
