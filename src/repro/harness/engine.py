"""Process-parallel, memoizing execution engine for simulation runs.

``Engine.run_many(specs)`` is the one gateway through which harness code
executes simulations:

* **Dedup** — identical :class:`RunSpec`\\ s within a batch simulate once
  (figure drivers routinely share baselines, e.g. the MESI runs of the FS
  apps appear in fig02, fig13, fig14, fig16 and the traffic study).
* **Cache** — completed :class:`RunRecord`\\ s are memoized to an on-disk
  JSON store keyed by ``spec.digest()``; entries carry a
  :func:`code_version` stamp, a fingerprint of the simulator's source,
  and are invalidated when any behaviour module changes.
* **Parallelism** — with ``jobs > 1`` pending specs fan out over a
  spawn-based process pool.  Simulations are deterministic per spec, so
  parallel and serial execution produce cycle-for-cycle identical records.
* **Resilience** — a spec whose first attempt fails (its pool worker died,
  or its run raised) is retried once in the parent; a second failure
  surfaces as a structured :class:`EngineError` naming the spec, digest
  and cause.  The batch still drains first, and the raised error carries
  the completed records in ``.partial``.  Corrupted cache entries are
  quarantined to a ``.quarantine/`` sidecar (with a logged warning) and
  recomputed instead of taking the batch down; cache writes are atomic
  (tmp + rename).
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
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from multiprocessing import get_context
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.common.errors import ReproError
from repro.harness.export import record_from_dict, record_to_dict
from repro.harness.runner import RunRecord, RunSpec, execute_spec

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
    """Version stamp baked into every result-cache entry: the
    :func:`source_fingerprint` of this installation,
    computed on first use and then reused for the life of the process.
    Any edit to a behaviour module changes it, so stale results are
    re-simulated instead of replayed."""
    return source_fingerprint(_PACKAGE_ROOT)

_log = logging.getLogger(__name__)


class EngineError(ReproError):
    """A spec failed on its first attempt and again on the engine's retry.

    ``partial`` (when set) maps the specs that *did* complete in the same
    batch to their records, so callers can salvage a partially-drained
    batch after a persistent failure.
    """

    def __init__(self, spec: RunSpec, attempts: int, cause: BaseException):
        self.spec = spec
        self.attempts = attempts
        self.cause = cause
        self.__cause__ = cause
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


#: Seconds between a pool worker's checks that its parent is alive.
_PARENT_POLL_S = 0.25


def _exit_with_parent(parent_pid: int) -> None:
    """Pool initializer: start a daemon thread that ends this worker as
    soon as it is re-parented, that is, once the engine's process has died
    (even by SIGKILL, which runs no handler).  Without it an orphaned
    worker finishes its spec and then waits forever on a dead pool."""
    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


def _timed_call(executor: Callable[[RunSpec], RunRecord],
                spec: RunSpec) -> tuple:
    start = time.perf_counter()
    record = executor(spec)
    return record, time.perf_counter() - start


class Engine:
    """Batched simulation runner with dedup, caching and process fan-out.

    ``cache_dir=None`` (the default) disables the persistent cache —
    library callers opt in explicitly; the CLI enables it unless
    ``--no-cache`` is given.  ``jobs=0`` means one worker per CPU.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: Optional[os.PathLike] = None,
                 progress: Optional[Callable] = None,
                 executor: Callable[[RunSpec], RunRecord] = execute_spec):
        self.jobs = jobs if jobs >= 1 else (os.cpu_count() or 1)
        self.cache_dir = (pathlib.Path(cache_dir).expanduser()
                          if cache_dir else None)
        self.progress = progress
        self._executor = executor
        #: Counters: simulations executed, cache hits, in-batch duplicates
        #: absorbed, retries performed, corrupted cache entries quarantined.
        self.stats: Dict[str, int] = {"executed": 0, "cache_hits": 0,
                                      "deduped": 0, "retries": 0,
                                      "quarantined": 0}
        #: Per-spec wall-clock seconds, keyed by ``spec.digest()``.
        self.timings: Dict[str, float] = {}

    # ------------------------------------------------------------- running

    def run_one(self, spec: RunSpec) -> RunRecord:
        """Run (or recall) a single spec."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Run a batch; returns records aligned with ``specs``' order.

        A spec whose first attempt fails (its worker died or its run
        raised) is retried once in the parent.  A second failure does not
        abort the batch: the remaining specs still run and reach the result
        cache, then the first failure is raised with
        ``EngineError.partial`` holding every completed record."""
        specs = list(specs)
        unique = list(dict.fromkeys(specs))
        self.stats["deduped"] += len(specs) - len(unique)

        results: Dict[RunSpec, RunRecord] = {}
        pending: List[RunSpec] = []
        total, done = len(unique), 0
        for spec in unique:
            cached = self._cache_get(spec)
            if cached is None:
                pending.append(spec)
                continue
            results[spec] = cached
            done += 1
            self.stats["cache_hits"] += 1
            self._notify(done, total, spec, None, "cache")

        failures: List[EngineError] = []
        for spec, outcome in self._first_attempts(pending):
            if isinstance(outcome, Exception):
                # The worker died or the run raised: one retry, here.
                self.stats["retries"] += 1
                try:
                    outcome = _timed_call(self._executor, spec)
                except Exception as exc:
                    failures.append(EngineError(spec, attempts=2, cause=exc))
                    continue
            record, seconds = outcome
            results[spec] = record
            self.stats["executed"] += 1
            self.timings[spec.digest()] = seconds
            self._cache_put(spec, record)
            done += 1
            self._notify(done, total, spec, seconds, "run")
        if failures:
            failures[0].partial = dict(results)
            raise failures[0]
        return [results[spec] for spec in specs]

    def run_keyed(self, keyed_specs: Dict[object, RunSpec]
                  ) -> Dict[object, RunRecord]:
        """Run a ``{key: spec}`` mapping; returns ``{key: record}``."""
        keys = list(keyed_specs)
        records = self.run_many([keyed_specs[k] for k in keys])
        return dict(zip(keys, records))

    # ------------------------------------------------------------ internals

    def _first_attempts(self, pending: List[RunSpec]) -> Iterator[tuple]:
        """Attempt each pending spec once, yielding ``(spec, (record,
        seconds))`` or ``(spec, exception)`` in completion order.

        Runs in-process when ``jobs == 1`` or at most one spec is pending,
        otherwise on a spawn-based process pool (import-clean workers on
        every platform).  A worker that dies breaks the pool, and every
        spec the pool still owed comes back as an exception.  Each worker
        exits once this process is gone (:func:`_exit_with_parent`)."""
        if self.jobs == 1 or len(pending) <= 1:
            for spec in pending:
                try:
                    yield spec, _timed_call(self._executor, spec)
                except Exception as exc:
                    yield spec, exc
            return
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)),
                                 mp_context=get_context("spawn"),
                                 initializer=_exit_with_parent,
                                 initargs=(os.getpid(),)) as pool:
            futures = {pool.submit(_timed_call, self._executor, spec): spec
                       for spec in pending}
            for future in as_completed(futures):
                try:
                    yield futures[future], future.result()
                except Exception as exc:
                    yield futures[future], exc

    def _notify(self, done: int, total: int, spec: RunSpec,
                seconds: Optional[float], source: str) -> None:
        if self.progress is not None:
            self.progress(done, total, spec, seconds, source)

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
