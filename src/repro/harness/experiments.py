"""Per-figure experiment drivers (DESIGN.md §4 maps each to the paper).

Every function returns an :class:`ExperimentResult` whose ``rows`` are the
series the corresponding paper figure/table plots; ``render()`` prints an
aligned table. ``scale`` shrinks workload iteration counts for quick runs
(tests use scale<1; the benchmarks use the default).

Drivers are **batch-first**: each one builds its full set of
:class:`RunSpec`\\ s up front and submits them through an
:class:`~repro.harness.engine.Engine` (``engine=None`` means a private
serial engine), then does table assembly on the returned records.  That
separation is what lets the engine dedup shared baselines, recall cached
records and fan the rest out over worker processes.  The per-app tables
share one builder, :func:`_per_app_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.coherence.states import ProtocolMode
from repro.common.config import SystemConfig
from repro.energy.model import AreaModel
from repro.harness.baselines import (
    apply_huron_discount,
    huron_spec,
    manual_fix_spec,
)
from repro.harness.engine import Engine
from repro.harness.runner import RunRecord, RunSpec
from repro.harness.tables import format_table, geomean
from repro.system.stats import (SLICE_SAM_ALLOCATIONS,
                                SLICE_SAM_VALID_REPLACEMENTS)
from repro.workloads.registry import FS_WORKLOADS, NO_FS_WORKLOADS

#: The paper excludes SC from the studies after Fig. 14 ("We exclude SC
#: from the studies presented later in this section").
FS_STUDY = [t for t in FS_WORKLOADS if t != "SC"]


@dataclass
class ExperimentResult:
    name: str
    headers: List[str]
    rows: List[list]
    summary: Dict[str, float] = field(default_factory=dict)
    #: The specs whose simulations produced this result (empty for pure
    #: analytical tables such as Table II).
    specs: List[RunSpec] = field(default_factory=list)
    #: Summed cycles of the records behind the table, printed as its last
    #: line so a one-cycle change shows even where rounded ratios hide it
    #: (None for analytical tables).
    cycles: Optional[int] = None

    def render(self) -> str:
        lines = [f"== {self.name} ==", format_table(self.headers, self.rows)]
        if self.summary:
            parts = ", ".join(f"{k}={v:.3f}" if isinstance(v, float) else
                              f"{k}={v}" for k, v in self.summary.items())
            lines.append(parts)
        if self.cycles is not None:
            lines.append(f"cycles={self.cycles}")
        return "\n".join(lines)

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


class _Col(NamedTuple):
    """One column of a per-app table: ``value`` maps one app's records
    (keyed by variant) to its cell, rounded to ``digits`` (None: as is);
    ``agg`` (``geomean`` or ``_mean``; None: empty footer cell) makes the
    footer cell and the summary value from the unrounded cells."""

    header: str
    value: Callable[[Dict[object, RunRecord]], object]
    digits: Optional[int] = None
    agg: Optional[Callable[[Sequence[float]], float]] = None


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _speedup(base: object, new: object) -> Callable[..., float]:
    """Column value: cycles of variant ``base`` over cycles of ``new``."""
    return lambda r: r[base].cycles / r[new].cycles


def _per_app_table(name: str, apps: Sequence[str],
                   variants: Dict[object, Callable[[str], RunSpec]],
                   columns: Sequence[_Col], engine: Optional[Engine],
                   footer: Optional[str] = "geomean",
                   summary: Optional[Dict[str, str]] = None
                   ) -> ExperimentResult:
    """Run every app under every variant (``variants[key](tag)`` is the
    spec) in one batch and tabulate one row per app.

    The ``footer`` row (None: no footer) holds each column's aggregate;
    ``summary`` maps a summary key to the header of the column whose
    unrounded aggregate it reports.
    """
    specs = {(tag, key): make(tag)
             for tag in apps for key, make in variants.items()}
    recs = (engine or Engine()).run_keyed(specs)
    cells = [[col.value({key: recs[(tag, key)] for key in variants})
              for col in columns] for tag in apps]
    aggs = {col.header: col.agg(list(values))
            for col, values in zip(columns, zip(*cells)) if col.agg}

    def cell(col: _Col, value):
        return value if col.digits is None else round(value, col.digits)

    rows = [[tag] + [cell(col, v) for col, v in zip(columns, row)]
            for tag, row in zip(apps, cells)]
    if footer is not None:
        rows.append([footer] + [cell(col, aggs[col.header]) if col.agg
                                else "" for col in columns])
    return ExperimentResult(
        name=name, headers=["app"] + [col.header for col in columns],
        rows=rows,
        summary={key: aggs[header] for key, header in (summary or {}).items()},
        specs=list(specs.values()),
        cycles=sum(rec.cycles for rec in recs.values()))


def _base_and_fslite(scale: float, config: Optional[SystemConfig]) -> dict:
    """Variants ``"base"`` (MESI) and ``"fsl"`` (FSLite) of each app."""
    return {"base": partial(RunSpec, config=config, scale=scale),
            "fsl": partial(RunSpec, mode=ProtocolMode.FSLITE, config=config,
                           scale=scale)}


# ---------------------------------------------------------------- Figure 2

def fig02_manual_fix(scale: float = 1.0,
                     config: Optional[SystemConfig] = None,
                     engine: Optional[Engine] = None) -> ExperimentResult:
    """Speedup achieved after manually fixing false sharing (padding)."""
    return _per_app_table(
        "Figure 2: speedup of the manual fix over baseline MESI "
        "(paper geomean 1.34, RC peak 3.06)",
        FS_WORKLOADS,
        {"base": partial(RunSpec, config=config, scale=scale),
         "manual": partial(manual_fix_spec, config=config, scale=scale)},
        [_Col("speedup", _speedup("base", "manual"), 2, geomean)],
        engine, summary={"geomean": "speedup"})


# ---------------------------------------------------------------- Figure 13

def fig13_miss_fraction(scale: float = 1.0,
                        config: Optional[SystemConfig] = None,
                        engine: Optional[Engine] = None
                        ) -> ExperimentResult:
    """Fraction of L1D accesses that miss, FS apps under baseline MESI."""
    return _per_app_table(
        "Figure 13: fraction of L1D accesses that miss "
        "(paper mean 0.05, RC 0.18)",
        FS_WORKLOADS, {"base": partial(RunSpec, config=config, scale=scale)},
        [_Col("miss_fraction", lambda r: r["base"].l1_miss_rate, 4, _mean)],
        engine, footer="mean", summary={"mean": "miss_fraction"})


# ---------------------------------------------------------------- Figure 14

def fig14_speedup_energy(scale: float = 1.0,
                         config: Optional[SystemConfig] = None,
                         engine: Optional[Engine] = None
                         ) -> ExperimentResult:
    """FSDetect/FSLite speedup (14a) and normalized energy (14b)."""
    mesi, det, fsl = (ProtocolMode.MESI, ProtocolMode.FSDETECT,
                      ProtocolMode.FSLITE)
    return _per_app_table(
        "Figure 14: FSDetect/FSLite speedup and normalized energy "
        "(paper: FSLite 1.39X speedup, 0.73 energy)",
        FS_WORKLOADS,
        {mode: partial(RunSpec, mode=mode, config=config, scale=scale)
         for mode in (mesi, det, fsl)},
        [_Col("fsdetect_speedup", _speedup(mesi, det), 3, geomean),
         _Col("fslite_speedup", _speedup(mesi, fsl), 2, geomean),
         _Col("fsdetect_energy", lambda r: r[det].energy_vs(r[mesi]), 2,
              geomean),
         _Col("fslite_energy", lambda r: r[fsl].energy_vs(r[mesi]), 2,
              geomean)],
        engine, summary={"fslite_geomean": "fslite_speedup",
                         "fslite_energy_geomean": "fslite_energy"})


# ---------------------------------------------------------------- Figure 15

def fig15_no_fs(scale: float = 1.0,
                config: Optional[SystemConfig] = None,
                engine: Optional[Engine] = None) -> ExperimentResult:
    """FSLite impact on applications without false sharing (≈1.0/≈1.0)."""
    return _per_app_table(
        "Figure 15: FSLite on apps without false sharing "
        "(paper: both within 0.1% of baseline)",
        NO_FS_WORKLOADS, _base_and_fslite(scale, config),
        [_Col("speedup", _speedup("base", "fsl"), 3, geomean),
         _Col("norm_energy", lambda r: r["fsl"].energy_vs(r["base"]), 3,
              geomean),
         _Col("privatizations", lambda r: r["fsl"].stats.privatizations)],
        engine, summary={"speedup_geomean": "speedup",
                         "energy_geomean": "norm_energy"})


# ---------------------------------------------------------------- Figure 16

def fig16_tau_p(scale: float = 1.0,
                config: Optional[SystemConfig] = None,
                engine: Optional[Engine] = None) -> ExperimentResult:
    """Sensitivity of FSLite to the privatization threshold τP."""
    config = config or SystemConfig()
    fsl = partial(RunSpec, mode=ProtocolMode.FSLITE, scale=scale)
    return _per_app_table(
        "Figure 16: FSLite speedup with τP=32/64 relative to τP=16 "
        "(paper: ~1% mean slowdown)",
        FS_STUDY,
        {16: partial(fsl, config=config),
         32: partial(fsl, config=config.with_protocol(tau_p=32, tau_r1=32)),
         64: partial(fsl, config=config.with_protocol(tau_p=64, tau_r1=64))},
        [_Col("tauP=32", _speedup(16, 32), 3, geomean),
         _Col("tauP=64", _speedup(16, 64), 3, geomean)],
        engine, summary={"rel32_geomean": "tauP=32",
                         "rel64_geomean": "tauP=64"})


# ---------------------------------------------------------------- Figure 17

#: The apps of the Huron artifact (Fig. 17) and of the OoO study.
_HURON_APPS = ["BS", "LL", "LR", "LT", "RC", "SM"]


def fig17_huron(scale: float = 1.0,
                config: Optional[SystemConfig] = None,
                engine: Optional[Engine] = None) -> ExperimentResult:
    """Baseline vs manual fix vs Huron vs FSLite (Huron-artifact apps)."""
    return _per_app_table(
        "Figure 17: manual vs Huron vs FSLite "
        "(paper: FSLite beats Huron by ~19.8% geomean; Huron wins BS, "
        "lags badly on RC)",
        _HURON_APPS,
        {"base": partial(RunSpec, config=config, scale=scale),
         "manual": partial(manual_fix_spec, config=config, scale=scale),
         "huron": partial(huron_spec, config=config, scale=scale),
         "fsl": partial(RunSpec, mode=ProtocolMode.FSLITE, config=config,
                        scale=scale)},
        [_Col("manual", _speedup("base", "manual"), 2, geomean),
         _Col("huron", lambda r: r["base"].cycles / apply_huron_discount(
             r["huron"]).cycles, 2, geomean),
         _Col("fslite", _speedup("base", "fsl"), 2, geomean)],
        engine, summary={"manual_geomean": "manual",
                         "huron_geomean": "huron",
                         "fslite_geomean": "fslite"})


# --------------------------------------------------- §VIII-B text studies

def traffic_reduction(scale: float = 1.0,
                      config: Optional[SystemConfig] = None,
                      engine: Optional[Engine] = None
                      ) -> ExperimentResult:
    """L1 request-message and interconnect-traffic reduction under FSLite
    (paper: 80% fewer L1 requests; ~5% metadata traffic; 75% overall)."""
    def reduction(counter):
        return lambda r: 1 - (getattr(r["fsl"].stats, counter)
                              / max(1, getattr(r["base"].stats, counter)))

    return _per_app_table(
        "Interconnect traffic: FSLite vs baseline "
        "(paper: 80% fewer L1 requests, 75% less traffic)",
        FS_STUDY, _base_and_fslite(scale, config),
        [_Col("l1_request_reduction", reduction("l1_requests"), 3, _mean),
         _Col("traffic_reduction", reduction("total_bytes"), 3, _mean),
         _Col("metadata_msg_fraction",
              lambda r: (r["fsl"].stats.metadata_messages
                         / max(1, r["fsl"].stats.total_messages)), 3, _mean)],
        engine, footer="mean",
        summary={"mean_request_reduction": "l1_request_reduction"})


def sam_size(scale: float = 1.0,
             config: Optional[SystemConfig] = None,
             engine: Optional[Engine] = None) -> ExperimentResult:
    """SAM-table size sensitivity: 128 vs 256 entries per slice
    (paper: ~0.13% valid-entry replacement rate; no perf difference)."""
    config = config or SystemConfig()
    fsl = partial(RunSpec, mode=ProtocolMode.FSLITE, scale=scale)
    return _per_app_table(
        "SAM table size: 256-entry speedup relative to 128-entry "
        "(paper: no difference; replacement rate 0.13%)",
        FS_STUDY,
        {128: partial(fsl, config=config),
         # 16 sets x 16 ways = 256 entries
         256: partial(fsl, config=config.with_protocol(sam_sets=16))},
        [_Col("rel_speedup_256", _speedup(128, 256), 3, geomean),
         _Col("valid_replacement_rate",
              lambda r: _sam_replacement_rate(r[128]), 4, _mean)],
        engine, footer="mean",
        summary={"mean_replacement_rate": "valid_replacement_rate"})


def _sam_replacement_rate(record: RunRecord) -> float:
    """Valid-entry SAM replacements per SAM allocation, over all slices."""
    per_slice = record.stats.per_slice
    total_alloc = sum(s.get(SLICE_SAM_ALLOCATIONS, 0) for s in per_slice)
    total_repl = sum(s.get(SLICE_SAM_VALID_REPLACEMENTS, 0)
                     for s in per_slice)
    return total_repl / total_alloc if total_alloc else 0.0


def reader_opt(scale: float = 1.0,
               config: Optional[SystemConfig] = None,
               engine: Optional[Engine] = None) -> ExperimentResult:
    """Reader-metadata optimization: same privatizations, 25% narrower SAM."""
    config = config or SystemConfig()
    fsl = partial(RunSpec, mode=ProtocolMode.FSLITE, scale=scale)
    result = _per_app_table(
        "Reader-metadata optimization (paper: identical privatized "
        "blocks; 25% SAM storage saving)",
        FS_STUDY,
        {"full": partial(fsl, config=config),
         "opt": partial(fsl, config=config.with_protocol(
             reader_metadata_opt=True))},
        [_Col("priv_full", lambda r: r["full"].stats.privatizations),
         _Col("priv_opt", lambda r: r["opt"].stats.privatizations),
         _Col("rel_speedup", _speedup("full", "opt"), 3)],
        engine, footer=None)
    area = AreaModel(config)
    full_bits = area.sam_entry_bits(reader_opt=False)
    opt_bits = area.sam_entry_bits(reader_opt=True)
    same = result.column("priv_full") == result.column("priv_opt")
    result.summary = {"sam_entry_bits_full": full_bits,
                      "sam_entry_bits_opt": opt_bits,
                      "storage_saving": 1 - opt_bits / full_bits,
                      "all_equal": float(same)}
    return result


def granularity(scale: float = 1.0,
                config: Optional[SystemConfig] = None,
                engine: Optional[Engine] = None) -> ExperimentResult:
    """Coarse-grain metadata tracking at 2- and 4-byte granularity
    (paper: no performance degradation)."""
    config = config or SystemConfig()
    fsl = partial(RunSpec, mode=ProtocolMode.FSLITE, scale=scale)
    return _per_app_table(
        "Coarse-grain tracking: 2B/4B granularity relative to 1B "
        "(paper: no degradation)",
        FS_STUDY,
        {g: partial(fsl, config=config if g == 1 else
                    config.with_protocol(tracking_granularity=g))
         for g in (1, 2, 4)},
        [_Col("rel_2B", _speedup(1, 2), 3, geomean),
         _Col("rel_4B", _speedup(1, 4), 3, geomean)],
        engine, summary={"rel2_geomean": "rel_2B", "rel4_geomean": "rel_4B"})


def big_l1d(scale: float = 1.0,
            config: Optional[SystemConfig] = None,
            engine: Optional[Engine] = None) -> ExperimentResult:
    """Iso-storage (128 KB L1D baseline) and large-private-cache (512 KB)
    comparisons (paper: FSLite@32KB still 1.21X vs baseline@128KB over all
    14 apps; FSLite keeps 1.39X with 512 KB L1D)."""
    config = config or SystemConfig()
    big = config.with_l1_size(128 * 1024)
    huge = config.with_l1_size(512 * 1024)
    specs: Dict[object, RunSpec] = {}
    for tag in FS_WORKLOADS + NO_FS_WORKLOADS:
        specs[(tag, "base128")] = RunSpec(tag=tag, config=big, scale=scale)
        specs[(tag, "fsl32")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                        config=config, scale=scale)
    for tag in FS_WORKLOADS:
        specs[(tag, "base512")] = RunSpec(tag=tag, config=huge, scale=scale)
        specs[(tag, "fsl512")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                         config=huge, scale=scale)
    recs = (engine or Engine()).run_keyed(specs)
    rows = []
    iso, big_fsl = [], []
    for tag in FS_WORKLOADS + NO_FS_WORKLOADS:
        s = recs[(tag, "base128")].cycles / recs[(tag, "fsl32")].cycles
        iso.append(s)
        rows.append([tag, round(s, 3), ""])
    for tag in FS_WORKLOADS:
        s = recs[(tag, "base512")].cycles / recs[(tag, "fsl512")].cycles
        big_fsl.append(s)
    rows.append(["geomean(iso)", round(geomean(iso), 3), ""])
    rows.append(["geomean(512K FS)", "", round(geomean(big_fsl), 3)])
    return ExperimentResult(
        name="Larger private caches (paper: 1.21X iso-storage; 1.39X at "
             "512 KB)",
        headers=["app", "fslite32_vs_base128", "fslite_vs_base_at_512K"],
        rows=rows,
        summary={"iso_geomean": geomean(iso),
                 "fs512_geomean": geomean(big_fsl)},
        specs=list(specs.values()),
        cycles=sum(rec.cycles for rec in recs.values()))


def ooo(scale: float = 1.0,
        config: Optional[SystemConfig] = None,
        engine: Optional[Engine] = None) -> ExperimentResult:
    """Out-of-order cores (paper: OoO baseline 5.1X over in-order; FSLite
    1.63X over the OoO baseline; 1.56X in-order for the same six apps)."""
    base = partial(RunSpec, config=config, scale=scale)
    fsl = partial(base, mode=ProtocolMode.FSLITE)
    return _per_app_table(
        "Out-of-order issue (paper: baseline OoO gain 5.1X; FSLite "
        "1.63X on OoO, 1.56X in-order)",
        _HURON_APPS,
        {"base_io": base, "base_ooo": partial(base, core_model="ooo"),
         "fsl_io": fsl, "fsl_ooo": partial(fsl, core_model="ooo")},
        [_Col("ooo_baseline_gain", _speedup("base_io", "base_ooo"), 2,
              geomean),
         _Col("fslite_on_ooo", _speedup("base_ooo", "fsl_ooo"), 2, geomean),
         _Col("fslite_inorder", _speedup("base_io", "fsl_io"), 2, geomean)],
        engine, summary={"ooo_gain_geomean": "ooo_baseline_gain",
                         "fslite_ooo_geomean": "fslite_on_ooo"})


def table2_overheads(config: Optional[SystemConfig] = None
                     ) -> ExperimentResult:
    """Table II storage/area overheads of the added structures."""
    config = config or SystemConfig()
    area = AreaModel(config)
    s = area.overhead_summary()
    rows = [
        ["PAM table per L1D (KB)", round(s["pam_kb_per_core"], 2)],
        ["SAM table per slice (KB)", round(s["sam_kb_per_slice"], 2)],
        ["SAM per slice w/ reader opt (KB)",
         round(s["sam_opt_kb_per_slice"], 2)],
        ["Directory extension per slice (KB)",
         round(s["dir_ext_kb_per_slice"], 2)],
        ["Cache hierarchy (KB)", round(s["hierarchy_kb"], 0)],
        ["Total added storage (KB)", round(s["added_kb_total"], 1)],
        ["Overhead fraction", round(s["overhead_fraction"], 4)],
    ]
    return ExperimentResult(
        name="Table II: storage overheads (paper: PAM 8 KB/core, SAM 12.7 "
             "KB/slice, total <5% of hierarchy)",
        headers=["structure", "value"], rows=rows,
        summary={"overhead_fraction": s["overhead_fraction"]})


# ------------------------------------------------------------- ablations

def ablation(flag: str, scale: float = 1.0, tags: Optional[List[str]] = None,
             config: Optional[SystemConfig] = None,
             engine: Optional[Engine] = None) -> ExperimentResult:
    """Disable one design feature and compare FSLite against full FSLite.

    ``flag`` is one of ``hysteresis``, ``metadata_reset``.
    """
    config = config or SystemConfig()
    if flag == "hysteresis":
        off = config.with_protocol(use_hysteresis=False)
    elif flag == "metadata_reset":
        off = config.with_protocol(use_metadata_reset=False)
    else:
        raise ValueError(f"unknown ablation flag {flag!r}")
    fsl = partial(RunSpec, mode=ProtocolMode.FSLITE, scale=scale)
    return _per_app_table(
        f"Ablation: {flag} disabled (slowdown factor vs full FSLite)",
        tags or FS_STUDY,
        {"on": partial(fsl, config=config), "off": partial(fsl, config=off)},
        # A slowdown above 1 means the feature helps.
        [_Col("slowdown_without", _speedup("off", "on"), 3, geomean),
         _Col("priv_with", lambda r: r["on"].stats.privatizations),
         _Col("priv_without", lambda r: r["off"].stats.privatizations)],
        engine, summary={"geomean_slowdown": "slowdown_without"})
