"""System configuration dataclasses.

Defaults mirror Table II of the paper: 8 in-order cores at 3 GHz, 32 KB
8-way L1D per core, a shared inclusive 16 MB LLC organised as 8 slices of
2 MB (16-way), 64-byte lines, and the FSDetect/FSLite tunables
τP = 16, τR1 = 16, τR2 = 127.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict

from repro.common.errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    associativity: int
    block_size: int = 64
    tag_latency: int = 1
    data_latency: int = 3

    def __post_init__(self) -> None:
        _require(_is_pow2(self.block_size), "block_size must be a power of two")
        # An aligned access of up to 8 bytes then never straddles a block,
        # which the L1's touched-byte mask relies on.
        _require(self.block_size >= 8, "block_size must be at least 8 bytes")
        _require(self.size_bytes % (self.associativity * self.block_size) == 0,
                 "cache size must be a whole number of sets")
        _require(self.associativity >= 1, "associativity must be >= 1")
        _require(self.tag_latency >= 0 and self.data_latency >= 0,
                 "latencies must be non-negative")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


@dataclass(frozen=True)
class ProtocolConfig:
    """FSDetect / FSLite tunables (Table II, Sections IV-VI)."""

    #: Privatization threshold for both FC and IC ("τP").
    tau_p: int = 16
    #: Periodic metadata reset when FC and IC both cross this ("τR1").
    tau_r1: int = 16
    #: Periodic metadata reset when FC alone attains this ("τR2").
    tau_r2: int = 127
    #: Saturation value of the 7-bit FC/IC counters.
    counter_max: int = 127
    #: Saturation value of the 2-bit hysteresis counter.
    hysteresis_max: int = 3
    #: Enable the hysteresis counter (Section VI).
    use_hysteresis: bool = True
    #: Enable periodic metadata resets for the data-initialization pattern.
    use_metadata_reset: bool = True
    #: Use the last-reader + overflow SAM encoding instead of a full
    #: per-byte reader bit-vector (Section VI "Optimizing the SAM Table Size").
    reader_metadata_opt: bool = False
    #: Access-metadata tracking granularity in bytes (1, 2 or 4).
    tracking_granularity: int = 1
    #: SAM table geometry, per LLC slice.
    sam_sets: int = 8
    sam_ways: int = 16
    #: Cycles to conflict-check a PRV block at the directory (Table II).
    conflict_check_latency: int = 2

    def __post_init__(self) -> None:
        _require(self.tau_p >= 1, "tau_p must be >= 1")
        _require(self.tau_r1 >= 1, "tau_r1 must be >= 1")
        _require(self.tau_r2 >= self.tau_r1, "tau_r2 must be >= tau_r1")
        _require(self.counter_max >= self.tau_p,
                 "counter_max must be >= tau_p or privatization never triggers")
        _require(self.tau_r2 <= self.counter_max,
                 "tau_r2 must be <= counter_max or the R2 report threshold "
                 "is unreachable (counters saturate-reset first)")
        _require(self.tracking_granularity in (1, 2, 4),
                 "tracking_granularity must be 1, 2 or 4")
        _require(self.sam_sets >= 1 and self.sam_ways >= 1,
                 "SAM geometry must be positive")

    @property
    def sam_entries(self) -> int:
        return self.sam_sets * self.sam_ways


@dataclass(frozen=True)
class SanitizerConfig:
    """Online coherence-invariant sanitizer (:mod:`repro.check.sanitizer`).

    Disabled by default: the sanitizer inspects controller state after every
    message delivery, which roughly doubles simulation cost. Tests and the
    protocol fuzzer opt in; production sweeps leave it off.
    """

    enabled: bool = False
    #: Ring-buffer length of recent network messages kept for diagnostics.
    history: int = 256
    #: How many of those messages a violation report attaches.
    trace_window: int = 16
    #: Message deliveries between periodic sweeps (transient-age +
    #: counter bounds).
    sweep_interval: int = 4096
    #: Max cycles a busy context / MSHR / write-buffer entry may live.
    #: ``0`` derives a generous bound from the machine's latencies.
    busy_age_limit: int = 0

    def __post_init__(self) -> None:
        _require(self.history >= 1, "sanitizer history must be >= 1")
        _require(self.trace_window >= 0, "trace_window must be >= 0")
        _require(self.sweep_interval >= 1, "sweep_interval must be >= 1")
        _require(self.busy_age_limit >= 0, "busy_age_limit must be >= 0")


@dataclass(frozen=True)
class ObsConfig:
    """Observability instruments attached around a harness run
    (:mod:`repro.obs`).

    Lives on :class:`~repro.harness.runner.RunSpec` rather than on
    :class:`SystemConfig`: observation never changes machine behaviour, and
    keeping it out of the machine config keeps run digests (and therefore
    the engine cache and the golden cycle-identity table) stable.
    """

    #: Record detection/privatization episode lifecycles as spans.
    episodes: bool = True
    #: Sample counter/gauge time series during the run.
    metrics: bool = True
    #: Cycles between metric samples.
    sample_period: int = 2000

    def __post_init__(self) -> None:
        _require(self.sample_period >= 1, "sample_period must be >= 1")
        _require(self.episodes or self.metrics,
                 "ObsConfig with neither episodes nor metrics is pointless")


@dataclass(frozen=True)
class EnergyConfig:
    """Energy-model constants (nJ per event, mW static).

    Seeded from CACTI-style numbers for the Table II geometries; the paper
    reports only relative energy so the absolute scale is uncritical as long
    as dynamic/static proportions are plausible.
    """

    l1_read_nj: float = 0.05
    l1_write_nj: float = 0.06
    llc_read_nj: float = 0.35
    llc_write_nj: float = 0.40
    pam_access_nj: float = 0.004
    sam_access_nj: float = 0.02
    dir_counter_access_nj: float = 0.002
    network_flit_nj: float = 0.02
    dram_access_nj: float = 15.0
    #: Static power of the whole cache hierarchy, in watts.
    static_power_w: float = 1.2
    #: Additional static power of PAM+SAM+counters, in watts. The added
    #: structures are <5% of the hierarchy's storage (Table II), and most
    #: of that is the infrequently-accessed SAM, so their static share is
    #: small.
    metadata_static_power_w: float = 0.002
    clock_ghz: float = 3.0


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-machine configuration."""

    num_cores: int = 8
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, associativity=8, tag_latency=1, data_latency=3))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=16 * 1024 * 1024, associativity=16,
        tag_latency=2, data_latency=8))
    num_llc_slices: int = 8
    #: One-way network latency between an L1 and a directory slice (cycles).
    network_latency: int = 10
    #: Main-memory access latency (cycles).
    memory_latency: int = 120
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    sanitizer: SanitizerConfig = field(default_factory=SanitizerConfig)
    #: Model actual data bytes end-to-end (needed for merge-correctness checks).
    model_data: bool = True

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, "need at least one core")
        _require(self.num_llc_slices >= 1, "need at least one LLC slice")
        _require(self.l1.block_size == self.llc.block_size,
                 "L1 and LLC must use the same block size")
        _require(self.network_latency >= 0, "network latency must be >= 0")
        _require(self.memory_latency >= 0, "memory latency must be >= 0")

    @property
    def block_size(self) -> int:
        return self.l1.block_size

    def with_protocol(self, **changes: Any) -> "SystemConfig":
        """Return a copy with protocol tunables replaced."""
        return replace(self, protocol=replace(self.protocol, **changes))

    def with_sanitizer(self, enabled: bool = True,
                       **changes: Any) -> "SystemConfig":
        """Return a copy with the online invariant sanitizer (re)configured."""
        return replace(self, sanitizer=replace(
            self.sanitizer, enabled=enabled, **changes))

    def with_l1_size(self, size_bytes: int) -> "SystemConfig":
        """Return a copy with a different L1D capacity (same associativity)."""
        return replace(self, l1=replace(self.l1, size_bytes=size_bytes))

    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form (JSON-safe; inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            num_cores=data["num_cores"],
            l1=CacheConfig(**data["l1"]),
            llc=CacheConfig(**data["llc"]),
            num_llc_slices=data["num_llc_slices"],
            network_latency=data["network_latency"],
            memory_latency=data["memory_latency"],
            protocol=ProtocolConfig(**data["protocol"]),
            energy=EnergyConfig(**data["energy"]),
            sanitizer=SanitizerConfig(**data.get("sanitizer", {})),
            model_data=data["model_data"],
        )

    def describe(self) -> Dict[str, Any]:
        """Return a flat summary suitable for printing a Table II analogue."""
        return {
            "cores": self.num_cores,
            "l1d_kb": self.l1.size_bytes // 1024,
            "l1d_ways": self.l1.associativity,
            "llc_mb": self.llc.size_bytes // (1024 * 1024),
            "llc_ways": self.llc.associativity,
            "llc_slices": self.num_llc_slices,
            "block_size": self.block_size,
            "tau_p": self.protocol.tau_p,
            "tau_r1": self.protocol.tau_r1,
            "tau_r2": self.protocol.tau_r2,
            "tracking_granularity": self.protocol.tracking_granularity,
            "sam_entries_per_slice": self.protocol.sam_entries,
        }
