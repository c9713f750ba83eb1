"""Process-parallel, memoizing execution engine for simulation runs.

``Engine.run_many(specs)`` is the one gateway through which harness code
executes simulations:

* **Dedup** — identical :class:`RunSpec`\\ s within a batch simulate once
  (figure drivers routinely share baselines, e.g. the MESI runs of the FS
  apps appear in fig02, fig13, fig14, fig16 and the traffic study).
* **Cache** — completed :class:`RunRecord`\\ s are memoized to an on-disk
  JSON store keyed by ``spec.digest()``; entries (and warm snapshots)
  carry a :func:`code_version` stamp, a fingerprint of the simulator's
  source, and are invalidated when any behaviour module changes.
* **Parallelism** — with ``jobs > 1`` pending specs fan out over a
  spawn-based process pool.  Simulations are deterministic per spec, so
  parallel and serial execution produce cycle-for-cycle identical records.
* **Resilience** — a spec whose worker crashes (or raises) is retried
  with exponential backoff (``retries`` attempts beyond the first,
  ``backoff`` seconds doubling per attempt); exhausted retries surface as
  a structured :class:`EngineError` naming the spec, digest and cause.
  With ``timeout`` set, each run executes under a supervised spawn worker
  that is killed past its wall-clock deadline; the batch still drains, and
  the raised :class:`EngineError` carries the completed records in
  ``.partial``.  Corrupted cache entries are quarantined to a
  ``.quarantine/`` sidecar (with a logged warning) and recomputed instead
  of taking the batch down; cache writes are atomic (tmp + rename).
* **Progress** — an optional ``progress(done, total, spec, seconds,
  source)`` callback fires per completed spec (``source`` is ``"run"`` or
  ``"cache"``); per-spec wall times accumulate in ``Engine.timings``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import pathlib
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, as_completed
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.common.errors import ReproError
from repro.harness.export import record_from_dict, record_to_dict
from repro.harness.runner import (RunRecord, RunSpec, build_warm_snapshot,
                                  execute_spec, warm_digest)

#: Source (relative to the :mod:`repro` package; a directory stands for
#: every ``.py`` file under it) that decides what a cached ``RunRecord``
#: holds: the simulated behaviour (protocol engines, timing, workloads, the
#: machine builder), the energy model behind ``stats.energy``, the
#: observers behind ``extra["obs"]``, the sanitizer behind
#: ``extra["sanitizer_blocks_checked"]``, and the runner that assembles
#: the record.
BEHAVIOUR_SOURCES = ("common", "cpu", "coherence", "core", "energy",
                     "memsys", "interconnect", "obs", "system", "workloads",
                     "check/sanitizer.py", "harness/runner.py")

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent


def source_fingerprint(root: pathlib.Path) -> str:
    """sha256 over every ``.py`` file of :data:`BEHAVIOUR_SOURCES` under
    ``root`` (the ``repro`` package directory), paths included, in sorted
    order."""
    h = hashlib.sha256()
    for source in BEHAVIOUR_SOURCES:
        top = root / source
        paths = sorted(top.rglob("*.py")) if top.is_dir() else [top]
        for path in paths:
            h.update(path.relative_to(root).as_posix().encode("utf-8"))
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """Version stamp baked into every result-cache entry and warm
    snapshot: the :func:`source_fingerprint` of this installation,
    computed on first use and then reused for the life of the process.
    Any edit to a behaviour module changes it, so stale results are
    re-simulated instead of replayed."""
    return source_fingerprint(_PACKAGE_ROOT)

_log = logging.getLogger(__name__)


class EngineError(ReproError):
    """A spec failed to execute even after the engine's retries.

    ``partial`` (when set) maps the specs that *did* complete in the same
    batch to their records, so callers can salvage a partially-drained
    batch after a timeout or persistent crash.
    """

    def __init__(self, spec: RunSpec, attempts: int, cause: BaseException):
        self.spec = spec
        self.attempts = attempts
        self.cause = cause
        self.partial: Optional[Dict[RunSpec, RunRecord]] = None
        super().__init__(
            f"run {spec.tag}/{spec.mode.value}/{spec.layout} "
            f"(digest {spec.digest()}) failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}")


def default_cache_dir() -> pathlib.Path:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/engine``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "engine"


def _timed_call(executor: Callable[[RunSpec], RunRecord],
                spec: RunSpec) -> tuple:
    start = time.perf_counter()
    record = executor(spec)
    return record, time.perf_counter() - start


class _WarmCall:
    """Picklable executor binding one warm-start snapshot to a spec's run.

    Travels into spawn workers whole: the snapshot payload is bytes, so a
    worker forks the machine from the warmup point instead of re-simulating
    the shared prefix."""

    __slots__ = ("executor", "warm")

    def __init__(self, executor, warm) -> None:
        self.executor = executor
        self.warm = warm

    def __call__(self, spec: RunSpec) -> RunRecord:
        return self.executor(spec, warm=self.warm)


def _supervised_worker(executor: Callable[[RunSpec], RunRecord],
                       spec: RunSpec, conn) -> None:
    """Spawn-process entry point for the timeout-supervised pool: run one
    spec and ship ``("ok", (record, seconds))`` or ``("err", exc)`` back
    over the pipe (falling back to a plain RuntimeError if the original
    exception does not pickle)."""
    try:
        record, seconds = _timed_call(executor, spec)
        conn.send(("ok", (record, seconds)))
    except BaseException as exc:  # noqa: BLE001 — must report, not die
        try:
            conn.send(("err", exc))
        except Exception:
            conn.send(("err", RuntimeError(f"{type(exc).__name__}: {exc}")))
    finally:
        conn.close()


class Engine:
    """Batched simulation runner with dedup, caching and process fan-out.

    ``cache_dir=None`` (the default) disables the persistent cache —
    library callers opt in explicitly; the CLI enables it unless
    ``--no-cache`` is given.  ``jobs`` may be overridden per batch;
    ``jobs=0`` means one worker per CPU.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: Optional[os.PathLike] = None,
                 progress: Optional[Callable] = None,
                 executor: Callable[[RunSpec], RunRecord] = execute_spec,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 backoff: float = 0.05):
        self.jobs = jobs
        self.cache_dir = (pathlib.Path(cache_dir).expanduser()
                          if cache_dir else None)
        self.progress = progress
        self._executor = executor
        #: Per-run wall-clock limit in seconds (None = unlimited).  When
        #: set, runs execute in supervised spawn workers that are killed
        #: past the deadline, so one hung simulation cannot wedge a batch.
        self.timeout = timeout
        #: Extra attempts after the first failure/timeout, with
        #: ``backoff * 2**(attempt-1)`` seconds between attempts.
        self.retries = retries
        self.backoff = backoff
        #: Counters: simulations executed, cache hits, in-batch duplicates
        #: absorbed, retries performed, corrupted cache entries quarantined,
        #: runs killed on timeout, and warm-start snapshots built / reused
        #: (``warm_hits`` counts forks that skipped warmup re-simulation).
        self.stats: Dict[str, int] = {"executed": 0, "cache_hits": 0,
                                      "deduped": 0, "retries": 0,
                                      "quarantined": 0, "timeouts": 0,
                                      "warm_built": 0, "warm_hits": 0}
        #: Per-spec wall-clock seconds, keyed by ``spec.digest()``.
        self.timings: Dict[str, float] = {}
        # Per-batch warm-start snapshots, keyed by spec (see
        # :meth:`_prepare_warmups`).
        self._warm: Dict[RunSpec, object] = {}

    # ------------------------------------------------------------- running

    def run_one(self, spec: RunSpec) -> RunRecord:
        """Run (or recall) a single spec."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[RunSpec],
                 jobs: Optional[int] = None) -> List[RunRecord]:
        """Run a batch; returns records aligned with ``specs``' order."""
        specs = list(specs)
        unique: List[RunSpec] = []
        seen = set()
        for spec in specs:
            if spec not in seen:
                seen.add(spec)
                unique.append(spec)
        self.stats["deduped"] += len(specs) - len(unique)

        results: Dict[RunSpec, RunRecord] = {}
        pending: List[RunSpec] = []
        for spec in unique:
            cached = self._cache_get(spec)
            if cached is not None:
                results[spec] = cached
            else:
                pending.append(spec)

        total, done = len(unique), 0
        for spec in unique:
            if spec in results:
                done += 1
                self.stats["cache_hits"] += 1
                self._notify(done, total, spec, None, "cache")

        workers = self._resolve_jobs(jobs)
        self._warm = self._prepare_warmups(pending)
        try:
            if pending and self.timeout is not None:
                done = self._run_supervised(pending, workers, results,
                                            done, total)
            elif len(pending) > 1 and workers > 1:
                done = self._run_parallel(pending, workers, results,
                                          done, total)
            else:
                done = self._run_serial(pending, results, done, total)
        finally:
            self._warm = {}
        return [results[spec] for spec in specs]

    def run_keyed(self, keyed_specs: Dict[object, RunSpec],
                  jobs: Optional[int] = None) -> Dict[object, RunRecord]:
        """Run a ``{key: spec}`` mapping; returns ``{key: record}``."""
        keys = list(keyed_specs)
        records = self.run_many([keyed_specs[k] for k in keys], jobs=jobs)
        return dict(zip(keys, records))

    # ------------------------------------------------------------ internals

    def _resolve_jobs(self, jobs: Optional[int]) -> int:
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            jobs = os.cpu_count() or 1
        return jobs

    def _exec_for(self, spec: RunSpec) -> Callable[[RunSpec], RunRecord]:
        """The executor to use for ``spec`` — wrapped with its warm-start
        snapshot when one was prepared for this batch."""
        warm = self._warm.get(spec)
        if warm is None:
            return self._executor
        return _WarmCall(self._executor, warm)

    def _run_serial(self, pending: List[RunSpec],
                    results: Dict[RunSpec, RunRecord],
                    done: int, total: int) -> int:
        """Serial drain.  A failing spec no longer aborts the batch
        mid-flight: the remaining specs still run (and their records reach
        the result cache) before the first failure is raised with
        ``EngineError.partial`` set."""
        failures: List[EngineError] = []
        for spec in pending:
            try:
                record, seconds = self._attempt_with_retry(spec)
            except EngineError as exc:
                failures.append(exc)
                continue
            done = self._complete(spec, record, seconds, results,
                                  done, total)
        if failures:
            first = failures[0]
            first.partial = dict(results)
            raise first
        return done

    def _run_parallel(self, pending: List[RunSpec], workers: int,
                      results: Dict[RunSpec, RunRecord],
                      done: int, total: int) -> int:
        failures: List[EngineError] = []
        ctx = get_context("spawn")  # import-clean workers on every platform
        with ProcessPoolExecutor(max_workers=min(workers, len(pending)),
                                 mp_context=ctx) as pool:
            futures = {pool.submit(_timed_call, self._exec_for(spec),
                                   spec): spec
                       for spec in pending}
            for future in as_completed(futures):
                spec = futures[future]
                try:
                    record, seconds = future.result()
                except Exception as exc:
                    # Worker crashed or raised: retry once in the parent so
                    # a broken pool cannot take the whole batch down.  The
                    # batch still drains; completed records are cached and
                    # the first failure raised afterwards with ``partial``.
                    try:
                        record, seconds = self._retry_in_parent(spec, exc)
                    except EngineError as err:
                        failures.append(err)
                        continue
                done = self._complete(spec, record, seconds, results,
                                      done, total)
        if failures:
            first = failures[0]
            first.partial = dict(results)
            raise first
        return done

    def _attempt_with_retry(self, spec: RunSpec) -> tuple:
        try:
            return _timed_call(self._exec_for(spec), spec)
        except Exception as exc:
            return self._retry_in_parent(spec, exc)

    def _retry_in_parent(self, spec: RunSpec, first: BaseException) -> tuple:
        executor = self._exec_for(spec)
        for attempt in range(1, self.retries + 1):
            self.stats["retries"] += 1
            time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                return _timed_call(executor, spec)
            except Exception as exc:
                first = exc
        raise EngineError(spec, attempts=self.retries + 1,
                          cause=first) from first

    # ------------------------------------------------- supervised (timeout)

    def _run_supervised(self, pending: List[RunSpec], workers: int,
                        results: Dict[RunSpec, RunRecord],
                        done: int, total: int) -> int:
        """Run ``pending`` under per-run wall-clock supervision.

        One spawn :class:`~multiprocessing.Process` per attempt, a pipe per
        worker; workers past their deadline are killed and the spec retried
        (with backoff) or recorded as failed.  The batch always drains —
        the first failure is raised *afterwards*, carrying every completed
        record in ``EngineError.partial``.
        """
        ctx = get_context("spawn")
        ready = deque((spec, 1) for spec in pending)
        delayed: List[tuple] = []   # (not_before, spec, attempt)
        running: Dict[object, tuple] = {}  # conn -> (spec, attempt, proc, dl)
        failures: List[EngineError] = []

        def settle(spec: RunSpec, attempt: int,
                   cause: BaseException) -> None:
            if attempt <= self.retries:
                self.stats["retries"] += 1
                pause = self.backoff * (2 ** (attempt - 1))
                delayed.append((time.monotonic() + pause, spec, attempt + 1))
            else:
                failures.append(EngineError(spec, attempts=attempt,
                                            cause=cause))

        while ready or delayed or running:
            now = time.monotonic()
            still: List[tuple] = []
            for not_before, spec, attempt in delayed:
                if not_before <= now:
                    ready.append((spec, attempt))
                else:
                    still.append((not_before, spec, attempt))
            delayed = still
            while ready and len(running) < workers:
                spec, attempt = ready.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_supervised_worker,
                                   args=(self._exec_for(spec), spec,
                                         child_conn))
                proc.start()
                child_conn.close()
                deadline = now + self.timeout
                running[parent_conn] = (spec, attempt, proc, deadline)
            if not running:
                time.sleep(0.01)  # only backoff pauses outstanding
                continue
            for conn in _conn_wait(list(running), timeout=0.05):
                spec, attempt, proc, _ = running.pop(conn)
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    status, payload = "err", RuntimeError(
                        "worker died without reporting a result")
                conn.close()
                proc.join()
                if status == "ok":
                    record, seconds = payload
                    done = self._complete(spec, record, seconds, results,
                                          done, total)
                else:
                    settle(spec, attempt, payload)
            now = time.monotonic()
            for conn in list(running):
                spec, attempt, proc, deadline = running[conn]
                if now <= deadline:
                    continue
                del running[conn]
                proc.kill()
                proc.join()
                conn.close()
                self.stats["timeouts"] += 1
                _log.warning("run %s exceeded %.1fs timeout (attempt %d); "
                             "worker killed", spec.digest(), self.timeout,
                             attempt)
                settle(spec, attempt, TimeoutError(
                    f"exceeded {self.timeout:.1f}s wall-clock limit"))
        if failures:
            first = failures[0]
            first.partial = dict(results)
            raise first
        return done

    def _complete(self, spec: RunSpec, record: RunRecord, seconds: float,
                  results: Dict[RunSpec, RunRecord],
                  done: int, total: int) -> int:
        results[spec] = record
        self.stats["executed"] += 1
        self.timings[spec.digest()] = seconds
        self._cache_put(spec, record)
        done += 1
        self._notify(done, total, spec, seconds, "run")
        return done

    def _notify(self, done: int, total: int, spec: RunSpec,
                seconds: Optional[float], source: str) -> None:
        if self.progress is not None:
            self.progress(done, total, spec, seconds, source)

    # ---------------------------------------------------------- warm start

    def _prepare_warmups(self, pending: Sequence[RunSpec]) -> Dict[RunSpec,
                                                                   object]:
        """Build (or recall) one warm-start snapshot per :func:`warm_digest`
        group among ``pending`` and map each spec to its snapshot.

        N sweep points sharing a warmup prefix simulate it once and fork.
        Any failure to build or load a snapshot falls back to cold
        execution for that group — warm start is an optimisation, never a
        correctness dependency.  Warm snapshots only apply to the default
        :func:`execute_spec` executor (custom executors do not take a
        ``warm`` argument)."""
        if self._executor is not execute_spec:
            return {}
        groups: Dict[str, List[RunSpec]] = {}
        for spec in pending:
            if spec.warmup > 0:
                groups.setdefault(warm_digest(spec), []).append(spec)
        out: Dict[RunSpec, object] = {}
        for digest, members in groups.items():
            snap = self._warm_get(digest)
            if snap is None:
                try:
                    snap = build_warm_snapshot(members[0])
                except Exception as exc:  # noqa: BLE001 - cold fallback
                    _log.warning("warm-start snapshot for %s failed (%s); "
                                 "running cold", digest,
                                 f"{type(exc).__name__}: {exc}")
                    continue
                self.stats["warm_built"] += 1
                self._warm_put(digest, snap)
            else:
                self.stats["warm_hits"] += 1
            for spec in members:
                out[spec] = snap
        return out

    def _warm_path(self, digest: str) -> Optional[pathlib.Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"warm_{digest}.pkl"

    def _warm_get(self, digest: str):
        """Load a warm snapshot from the disk cache; quarantine corrupt
        entries (same policy as the JSON result cache)."""
        import pickle

        from repro.system.snapshot import MachineSnapshot

        path = self._warm_path(digest)
        if path is None or not path.exists():
            return None
        try:
            data = pickle.loads(path.read_bytes())
        except Exception:  # noqa: BLE001 - any unpickling failure
            self._quarantine(path, "undecodable warm snapshot")
            return None
        if (not isinstance(data, dict)
                or data.get("code_version") != code_version()):
            return None  # stale: rebuild and overwrite
        try:
            return MachineSnapshot(payload=data["payload"],
                                   cycle=data["cycle"],
                                   executed=data["executed"])
        except (KeyError, TypeError):
            self._quarantine(path, "malformed warm snapshot")
            return None

    def _warm_put(self, digest: str, snap) -> None:
        import pickle

        path = self._warm_path(digest)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_bytes(pickle.dumps({
                "code_version": code_version(), "payload": snap.payload,
                "cycle": snap.cycle, "executed": snap.executed}))
            os.replace(tmp, path)
        except OSError as exc:
            _log.warning("could not persist warm snapshot %s (%s)",
                         digest, exc)

    # --------------------------------------------------------------- cache

    def _cache_path(self, spec: RunSpec) -> Optional[pathlib.Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{spec.digest()}.json"

    def _cache_get(self, spec: RunSpec) -> Optional[RunRecord]:
        path = self._cache_path(spec)
        if path is None or not path.exists():
            return None
        try:
            text = path.read_text()
        except OSError:
            return None  # unreadable, not necessarily corrupt: leave it
        try:
            data = json.loads(text)
        except ValueError:
            self._quarantine(path, "not valid JSON")
            return None
        if not isinstance(data, dict) or "record" not in data:
            self._quarantine(path, "not a cache record")
            return None
        if data.get("code_version") != code_version():
            return None  # stale: re-simulate and overwrite
        if data.get("spec") != spec.to_dict():
            return None  # digest collision paranoia
        try:
            return record_from_dict(data["record"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            self._quarantine(path, f"undecodable record ({exc})")
            return None

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Move a corrupted cache entry into a ``.quarantine/`` sidecar so
        the bad bytes stay inspectable, warn, and let the caller recompute.
        Never raises: a cache problem must not take a batch down."""
        target = path.parent / ".quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return  # can't even remove it; _cache_put will overwrite
        self.stats["quarantined"] += 1
        _log.warning("quarantined corrupted cache entry %s (%s); "
                     "recomputing", path.name, reason)

    def _cache_put(self, spec: RunSpec, record: RunRecord) -> None:
        path = self._cache_path(spec)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReproError(
                f"result cache directory {path.parent} is unusable "
                f"({exc}); pass --no-cache or a writable --cache-dir"
            ) from exc
        payload = {"code_version": code_version(), "spec": spec.to_dict(),
                   "record": record_to_dict(record)}
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)  # atomic even under concurrent engines


_default: Optional[Engine] = None


def default_engine() -> Engine:
    """Serial, cache-less engine backing the ``run_workload`` shim."""
    global _default
    if _default is None:
        _default = Engine()
    return _default
