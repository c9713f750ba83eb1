"""Named metrics and the interval time-series sampler.

A :class:`MetricsRegistry` holds named metric sources — *counters*
(monotonic totals: message counts, misses, privatizations) and *gauges*
(instantaneous values: live PRV blocks) — and turns them into a
cycle-stamped time series via :meth:`MetricsRegistry.sample`.

:class:`MetricsSampler` is the :class:`~repro.obs.observer.Observer` that
drives a registry during a run: every ``period`` simulated cycles (checked
on message delivery, so sampling never perturbs the event queue or the
cycle-identity of the run) it snapshots every registered source.  With no
explicit registry it self-registers the standard machine sources:
aggregate and per-core L1 activity, directory/FSLite counters, FSDetect
detection state, and network traffic totals.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.builder import Machine

from repro.obs.observer import Observer

COUNTER = "counter"
GAUGE = "gauge"


class Counter:
    """A registry-owned named counter, incremented by the instrumented
    code itself (for metrics no existing stats dict tracks)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


# -- metric sources -------------------------------------------------------------
#
# Zero-argument callables registered as counter/gauge sources.


def _stat_sum(parts, *keys: str) -> Callable[[], int]:
    """Sum of the stats-dict ``keys`` over a list of controllers."""
    return lambda: sum(part.stats[key] for part in parts for key in keys)


def _network_total(network, attr: str) -> Callable[[], int]:
    return lambda: getattr(network.stats, attr)


def _detector_sum(detectors, attr: str) -> Callable[[], int]:
    """Sum of one detector attribute (int or sized container) over slices."""
    def total() -> int:
        out = 0
        for det in detectors:
            value = getattr(det, attr)
            out += value if isinstance(value, int) else len(value)
        return out
    return total


def _prv_block_gauge(slices) -> Callable[[], int]:
    from repro.coherence.states import DirState

    return lambda: sum(1 for sl in slices for entry in sl.llc.iter_valid()
                       if entry.payload.state is DirState.PRV)


class MetricsRegistry:
    """Named counter/gauge sources polled into a time series.

    Sources are zero-argument callables returning a number; registration
    order is sampling order.  ``series`` is a list of rows, each
    ``{"cycle": c, <name>: <value>, ...}``.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, Callable[[], float]] = {}
        self._kinds: Dict[str, str] = {}
        self.series: List[Dict[str, Any]] = []

    def _register(self, name: str, source: Callable[[], float],
                  kind: str) -> None:
        if name in self._sources:
            raise ValueError(f"metric {name!r} already registered")
        self._sources[name] = source
        self._kinds[name] = kind

    def counter(self, name: str,
                source: Optional[Callable[[], float]] = None) -> Optional[Counter]:
        """Register a monotonic counter.  With ``source`` the value is
        polled from it; without, a fresh :class:`Counter` is returned for
        the caller to increment."""
        if source is not None:
            self._register(name, source, COUNTER)
            return None
        owned = Counter(name)
        self._register(name, lambda: owned.value, COUNTER)
        return owned

    def gauge(self, name: str, source: Callable[[], float]) -> None:
        """Register an instantaneous (non-monotonic) source."""
        self._register(name, source, GAUGE)

    def names(self) -> List[str]:
        return list(self._sources)

    def kind_of(self, name: str) -> str:
        return self._kinds[name]

    def sample(self, cycle: int) -> Dict[str, Any]:
        """Poll every source once; append and return the row."""
        row: Dict[str, Any] = {"cycle": cycle}
        for name, source in self._sources.items():
            row[name] = source()
        self.series.append(row)
        return row

    def latest(self) -> Optional[Dict[str, Any]]:
        return self.series[-1] if self.series else None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form: source kinds plus the sampled series."""
        return {"kinds": dict(self._kinds), "series": list(self.series)}


class MetricsSampler(Observer):
    """Observer that samples a registry every ``period`` cycles.

    The sampling clock is piggybacked on message delivery: whenever a
    delivery lands at or past the next due cycle, one row is taken.  A
    machine with traffic gaps longer than ``period`` simply yields sparser
    rows (each row is stamped with its true cycle).  Call :meth:`finish`
    after the run for a final end-of-run row.
    """

    def __init__(self, machine: "Machine", period: int = 2000,
                 registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(machine)
        if period < 1:
            raise ValueError("sample period must be >= 1 cycle")
        self.period = period
        self.registry = registry if registry is not None else MetricsRegistry()
        self._next = 0
        if registry is None:
            self._register_machine_sources()

    # -- default sources ---------------------------------------------------

    def _register_machine_sources(self) -> None:
        from repro.common.statkeys import (
            CORE_CHK_MISSES,
            CORE_HITS,
            CORE_LOADS,
            CORE_MISSES,
            CORE_RMWS,
            CORE_STORES,
            SLICE_CHK_FAIL,
            SLICE_PRIVATIZATIONS,
            SLICE_PRV_JOINS,
            TERM_CAUSES,
            term_key,
        )

        machine = self.machine
        reg = self.registry
        l1s, slices, net = machine.l1s, machine.slices, machine.network

        reg.counter("network.msgs_total", _network_total(net, "total_messages"))
        reg.counter("network.bytes_total", _network_total(net, "total_bytes"))
        reg.counter("l1.hits", _stat_sum(l1s, CORE_HITS))
        reg.counter("l1.misses", _stat_sum(l1s, CORE_MISSES))
        reg.counter("l1.chk_misses", _stat_sum(l1s, CORE_CHK_MISSES))
        for l1 in l1s:
            reg.counter(f"core{l1.core_id}.accesses",
                        _stat_sum([l1], CORE_LOADS, CORE_STORES, CORE_RMWS))
        reg.counter("dir.privatizations",
                    _stat_sum(slices, SLICE_PRIVATIZATIONS))
        reg.counter("dir.prv_joins", _stat_sum(slices, SLICE_PRV_JOINS))
        reg.counter("dir.chk_fail", _stat_sum(slices, SLICE_CHK_FAIL))
        term_keys = [term_key(cause) for cause in TERM_CAUSES]
        reg.counter("dir.terminations", _stat_sum(slices, *term_keys))
        detectors = [sl.detector for sl in slices if sl.detector is not None]
        if detectors:
            reg.counter("fsdetect.reports",
                        _detector_sum(detectors, "reports"))
            reg.counter("fsdetect.metadata_resets",
                        _detector_sum(detectors, "metadata_resets"))
            reg.gauge("fsdetect.prv_blocks", _prv_block_gauge(slices))

    # -- observer callbacks ------------------------------------------------

    def on_attach(self, machine: "Machine") -> None:
        now = machine.queue.now
        self.registry.sample(now)
        self._next = now + self.period

    def on_deliver(self, msg) -> None:
        now = self.machine.queue.now
        if now >= self._next:
            self._next = now + self.period
            self.registry.sample(now)

    def finish(self, cycle: Optional[int] = None) -> None:
        """Take a final row at ``cycle`` (default: the current queue time)
        unless one was already taken there."""
        if cycle is None:
            cycle = self.machine.queue.now
        latest = self.registry.latest()
        if latest is None or latest["cycle"] < cycle:
            self.registry.sample(cycle)

    def to_dict(self) -> Dict[str, Any]:
        out = self.registry.to_dict()
        out["sample_period"] = self.period
        return out
