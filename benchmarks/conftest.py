"""Benchmark-suite plumbing.

Each benchmark runs one paper experiment (figure or table), asserts the
paper's *shape* (who wins, roughly by what factor — not absolute numbers;
see EXPERIMENTS.md), and records the rendered result table both to stdout
and to ``benchmarks/results/<name>.txt``.

Experiments are cached per session so e.g. Figure 14a and 14b share their
underlying simulation runs.  All experiment drivers execute through one
shared :class:`~repro.harness.engine.Engine` with the persistent result
cache **disabled**, so every table is re-simulated from the current
source, never replayed from a cache.  ``REPRO_BENCH_SCALE`` scales
workload lengths (default 1.0); ``REPRO_BENCH_JOBS`` sets the engine's
worker-process count (default 1; 0 = one per CPU).
"""

from __future__ import annotations

import inspect
import pathlib

import pytest

from _bench_common import BENCH_JOBS, BENCH_SCALE

from repro.harness.engine import Engine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_cache = {}

#: One engine for the whole benchmark session: in-batch dedup and
#: parallelism on, persistent cache off (every table re-simulated).
_engine = Engine(jobs=BENCH_JOBS, cache_dir=None)


def pytest_collection_modifyitems(config, items):
    """Everything under benchmarks/ carries the ``bench`` marker."""
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_engine():
    return _engine


@pytest.fixture(scope="session")
def experiment_cache():
    """Memoize experiment results across benchmarks in one session."""
    def run(name, fn, *args, **kwargs):
        key = (name, BENCH_SCALE)
        if key not in _cache:
            if "engine" in inspect.signature(fn).parameters:
                kwargs.setdefault("engine", _engine)
            _cache[key] = fn(*args, **kwargs)
        return _cache[key]
    return run


@pytest.fixture
def record_result():
    """Persist and print an ExperimentResult."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name, result):
        text = result.render()
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        return text
    return write
