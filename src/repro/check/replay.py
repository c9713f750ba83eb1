"""Placeholder for the retired prefix-replay cache.

Shrinking re-runs every candidate from cycle 0 behind a verdict memo
(:class:`repro.check.fuzz.ShrinkSession`), and nothing in the package
builds :class:`PrefixReplayCache`.  The class stays only because
``benchmarks/e2e/layers.py`` wraps these five methods in traced mode and
refuses a name the class does not define; it goes with that file's next
change.
"""

from __future__ import annotations


class PrefixReplayCache:
    """Inert: never built, so the benchmark's replay hit ratio reads 0."""

    def __init__(self) -> None:
        pass

    def ref_run(self, *args, **kwargs):
        raise NotImplementedError("the prefix-replay cache is retired")

    lookup = record = restore = ref_run
