"""Profile one simulation run under :mod:`cProfile`.

``repro profile <tag>`` wraps :func:`repro.harness.runner.execute_spec` —
the single place simulations happen — so the profile covers workload
generation, machine construction, the event loop, and verification,
exactly as a harness run would pay for them.  The engine (cache, worker
processes) is deliberately bypassed: a profile of a cache hit or of a
child process is useless.

Sort keys mirror :mod:`pstats` (``cumulative``, ``tottime``, ``calls``,
...); the default ``cumulative`` view answers "where do the cycles go",
while ``tottime`` surfaces the hot leaf functions the kernel-overhaul
work targets (heap pops, message dispatch, cache indexing).
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from typing import Optional, TextIO

from repro.harness.runner import RunSpec, execute_spec

#: Sort keys accepted by ``repro profile --sort`` (a curated subset of
#: pstats' aliases; every name here is valid for ``Stats.sort_stats``).
SORT_KEYS = ("cumulative", "tottime", "calls", "ncalls", "pcalls",
             "filename", "name", "nfl")

DEFAULT_SORT = "cumulative"
DEFAULT_LIMIT = 30


def profile_spec(spec: RunSpec, sort: str = DEFAULT_SORT,
                 limit: int = DEFAULT_LIMIT,
                 stream: Optional[TextIO] = None,
                 stats_out: Optional[str] = None) -> pstats.Stats:
    """Run ``spec`` under cProfile and print the top ``limit`` entries.

    Returns the :class:`pstats.Stats` so callers (tests, notebooks) can
    inspect further.  ``stats_out`` optionally dumps the raw profile for
    ``snakeviz``/``pstats`` post-processing.
    """
    if sort not in SORT_KEYS:
        raise ValueError(f"unknown sort key {sort!r}; choose from "
                         f"{', '.join(SORT_KEYS)}")
    stream = stream if stream is not None else sys.stdout
    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    try:
        record = execute_spec(spec)
    finally:
        profiler.disable()
    wall = time.perf_counter() - wall_start
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort)
    stream.write(f"# {spec.tag} {spec.mode.value} {spec.layout} "
                 f"scale={spec.scale} seed={spec.seed}: "
                 f"{record.cycles} cycles in {wall:.2f}s wall\n")
    stats.print_stats(limit)
    if stats_out:
        stats.dump_stats(stats_out)
        stream.write(f"raw profile written to {stats_out}\n")
    return stats
