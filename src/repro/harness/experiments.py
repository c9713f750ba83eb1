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
records and fan the rest out over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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


def _engine(engine: Optional[Engine]) -> Engine:
    return engine if engine is not None else Engine()


def _run_keyed(engine: Optional[Engine],
               keyed: Dict[object, RunSpec]) -> Dict[object, RunRecord]:
    """Submit one batch of keyed specs and return keyed records."""
    return _engine(engine).run_keyed(keyed)


def _cycles(recs: Dict[object, RunRecord]) -> int:
    return sum(rec.cycles for rec in recs.values())


# ---------------------------------------------------------------- Figure 2

def fig02_manual_fix(scale: float = 1.0,
                     config: Optional[SystemConfig] = None,
                     engine: Optional[Engine] = None) -> ExperimentResult:
    """Speedup achieved after manually fixing false sharing (padding)."""
    specs: Dict[object, RunSpec] = {}
    for tag in FS_WORKLOADS:
        specs[(tag, "base")] = RunSpec(tag=tag, config=config, scale=scale)
        specs[(tag, "manual")] = manual_fix_spec(tag, config=config,
                                                 scale=scale)
    recs = _run_keyed(engine, specs)
    rows = []
    speedups = []
    for tag in FS_WORKLOADS:
        s = recs[(tag, "base")].cycles / recs[(tag, "manual")].cycles
        speedups.append(s)
        rows.append([tag, round(s, 2)])
    g = geomean(speedups)
    rows.append(["geomean", round(g, 2)])
    return ExperimentResult(
        name="Figure 2: speedup of the manual fix over baseline MESI "
             "(paper geomean 1.34, RC peak 3.06)",
        headers=["app", "speedup"], rows=rows, summary={"geomean": g},
        specs=list(specs.values()), cycles=_cycles(recs))


# ---------------------------------------------------------------- Figure 13

def fig13_miss_fraction(scale: float = 1.0,
                        config: Optional[SystemConfig] = None,
                        engine: Optional[Engine] = None
                        ) -> ExperimentResult:
    """Fraction of L1D accesses that miss, FS apps under baseline MESI."""
    specs = {tag: RunSpec(tag=tag, config=config, scale=scale)
             for tag in FS_WORKLOADS}
    recs = _run_keyed(engine, specs)
    rows = []
    fractions = []
    for tag in FS_WORKLOADS:
        rate = recs[tag].l1_miss_rate
        fractions.append(rate)
        rows.append([tag, round(rate, 4)])
    mean = sum(fractions) / len(fractions)
    rows.append(["mean", round(mean, 4)])
    return ExperimentResult(
        name="Figure 13: fraction of L1D accesses that miss "
             "(paper mean 0.05, RC 0.18)",
        headers=["app", "miss_fraction"], rows=rows, summary={"mean": mean},
        specs=list(specs.values()), cycles=_cycles(recs))


# ---------------------------------------------------------------- Figure 14

def fig14_speedup_energy(scale: float = 1.0,
                         config: Optional[SystemConfig] = None,
                         engine: Optional[Engine] = None
                         ) -> ExperimentResult:
    """FSDetect/FSLite speedup (14a) and normalized energy (14b)."""
    specs: Dict[object, RunSpec] = {}
    for tag in FS_WORKLOADS:
        for mode in (ProtocolMode.MESI, ProtocolMode.FSDETECT,
                     ProtocolMode.FSLITE):
            specs[(tag, mode)] = RunSpec(tag=tag, mode=mode, config=config,
                                         scale=scale)
    recs = _run_keyed(engine, specs)
    rows = []
    det_speedups, fsl_speedups, det_energy, fsl_energy = [], [], [], []
    for tag in FS_WORKLOADS:
        base = recs[(tag, ProtocolMode.MESI)]
        det = recs[(tag, ProtocolMode.FSDETECT)]
        fsl = recs[(tag, ProtocolMode.FSLITE)]
        sd, sf = base.cycles / det.cycles, base.cycles / fsl.cycles
        ed, ef = det.energy_vs(base), fsl.energy_vs(base)
        det_speedups.append(sd)
        fsl_speedups.append(sf)
        det_energy.append(ed)
        fsl_energy.append(ef)
        rows.append([tag, round(sd, 3), round(sf, 2),
                     round(ed, 2), round(ef, 2)])
    rows.append(["geomean", round(geomean(det_speedups), 3),
                 round(geomean(fsl_speedups), 2),
                 round(geomean(det_energy), 2),
                 round(geomean(fsl_energy), 2)])
    return ExperimentResult(
        name="Figure 14: FSDetect/FSLite speedup and normalized energy "
             "(paper: FSLite 1.39X speedup, 0.73 energy)",
        headers=["app", "fsdetect_speedup", "fslite_speedup",
                 "fsdetect_energy", "fslite_energy"],
        rows=rows,
        summary={"fslite_geomean": geomean(fsl_speedups),
                 "fslite_energy_geomean": geomean(fsl_energy)},
        specs=list(specs.values()), cycles=_cycles(recs))


# ---------------------------------------------------------------- Figure 15

def fig15_no_fs(scale: float = 1.0,
                config: Optional[SystemConfig] = None,
                engine: Optional[Engine] = None) -> ExperimentResult:
    """FSLite impact on applications without false sharing (≈1.0/≈1.0)."""
    specs: Dict[object, RunSpec] = {}
    for tag in NO_FS_WORKLOADS:
        specs[(tag, "base")] = RunSpec(tag=tag, config=config, scale=scale)
        specs[(tag, "fsl")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                      config=config, scale=scale)
    recs = _run_keyed(engine, specs)
    rows = []
    speedups, energies = [], []
    for tag in NO_FS_WORKLOADS:
        base, fsl = recs[(tag, "base")], recs[(tag, "fsl")]
        s, e = base.cycles / fsl.cycles, fsl.energy_vs(base)
        speedups.append(s)
        energies.append(e)
        rows.append([tag, round(s, 3), round(e, 3),
                     fsl.stats.privatizations])
    rows.append(["geomean", round(geomean(speedups), 3),
                 round(geomean(energies), 3), ""])
    return ExperimentResult(
        name="Figure 15: FSLite on apps without false sharing "
             "(paper: both within 0.1% of baseline)",
        headers=["app", "speedup", "norm_energy", "privatizations"],
        rows=rows,
        summary={"speedup_geomean": geomean(speedups),
                 "energy_geomean": geomean(energies)},
        specs=list(specs.values()), cycles=_cycles(recs))


# ---------------------------------------------------------------- Figure 16

def fig16_tau_p(scale: float = 1.0,
                config: Optional[SystemConfig] = None,
                engine: Optional[Engine] = None) -> ExperimentResult:
    """Sensitivity of FSLite to the privatization threshold τP."""
    config = config or SystemConfig()
    specs: Dict[object, RunSpec] = {}
    for tag in FS_STUDY:
        specs[(tag, 16)] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                   config=config, scale=scale)
        specs[(tag, 32)] = RunSpec(
            tag=tag, mode=ProtocolMode.FSLITE, scale=scale,
            config=config.with_protocol(tau_p=32, tau_r1=32))
        specs[(tag, 64)] = RunSpec(
            tag=tag, mode=ProtocolMode.FSLITE, scale=scale,
            config=config.with_protocol(tau_p=64, tau_r1=64))
    recs = _run_keyed(engine, specs)
    rows = []
    rel32, rel64 = [], []
    for tag in FS_STUDY:
        ref = recs[(tag, 16)]
        s32 = ref.cycles / recs[(tag, 32)].cycles
        s64 = ref.cycles / recs[(tag, 64)].cycles
        rel32.append(s32)
        rel64.append(s64)
        rows.append([tag, round(s32, 3), round(s64, 3)])
    rows.append(["geomean", round(geomean(rel32), 3),
                 round(geomean(rel64), 3)])
    return ExperimentResult(
        name="Figure 16: FSLite speedup with τP=32/64 relative to τP=16 "
             "(paper: ~1% mean slowdown)",
        headers=["app", "tauP=32", "tauP=64"], rows=rows,
        summary={"rel32_geomean": geomean(rel32),
                 "rel64_geomean": geomean(rel64)},
        specs=list(specs.values()), cycles=_cycles(recs))


# ---------------------------------------------------------------- Figure 17

def fig17_huron(scale: float = 1.0,
                config: Optional[SystemConfig] = None,
                engine: Optional[Engine] = None) -> ExperimentResult:
    """Baseline vs manual fix vs Huron vs FSLite (Huron-artifact apps)."""
    tags = ["BS", "LL", "LR", "LT", "RC", "SM"]
    specs: Dict[object, RunSpec] = {}
    for tag in tags:
        specs[(tag, "base")] = RunSpec(tag=tag, config=config, scale=scale)
        specs[(tag, "manual")] = manual_fix_spec(tag, config=config,
                                                 scale=scale)
        specs[(tag, "huron")] = huron_spec(tag, config=config, scale=scale)
        specs[(tag, "fsl")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                      config=config, scale=scale)
    recs = _run_keyed(engine, specs)
    rows = []
    man_s, hur_s, fsl_s = [], [], []
    for tag in tags:
        base = recs[(tag, "base")]
        man = recs[(tag, "manual")]
        hur = apply_huron_discount(recs[(tag, "huron")])
        fsl = recs[(tag, "fsl")]
        sm_ = base.cycles / man.cycles
        sh = base.cycles / hur.cycles
        sf = base.cycles / fsl.cycles
        man_s.append(sm_)
        hur_s.append(sh)
        fsl_s.append(sf)
        rows.append([tag, round(sm_, 2), round(sh, 2), round(sf, 2)])
    rows.append(["geomean", round(geomean(man_s), 2),
                 round(geomean(hur_s), 2), round(geomean(fsl_s), 2)])
    return ExperimentResult(
        name="Figure 17: manual vs Huron vs FSLite "
             "(paper: FSLite beats Huron by ~19.8% geomean; Huron wins BS, "
             "lags badly on RC)",
        headers=["app", "manual", "huron", "fslite"], rows=rows,
        summary={"manual_geomean": geomean(man_s),
                 "huron_geomean": geomean(hur_s),
                 "fslite_geomean": geomean(fsl_s)},
        specs=list(specs.values()), cycles=_cycles(recs))


# --------------------------------------------------- §VIII-B text studies

def traffic_reduction(scale: float = 1.0,
                      config: Optional[SystemConfig] = None,
                      engine: Optional[Engine] = None
                      ) -> ExperimentResult:
    """L1 request-message and interconnect-traffic reduction under FSLite
    (paper: 80% fewer L1 requests; ~5% metadata traffic; 75% overall)."""
    specs: Dict[object, RunSpec] = {}
    for tag in FS_STUDY:
        specs[(tag, "base")] = RunSpec(tag=tag, config=config, scale=scale)
        specs[(tag, "fsl")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                      config=config, scale=scale)
    recs = _run_keyed(engine, specs)
    rows = []
    req_reductions, traffic_reductions, md_fractions = [], [], []
    for tag in FS_STUDY:
        base, fsl = recs[(tag, "base")], recs[(tag, "fsl")]
        req_red = 1 - fsl.stats.l1_requests / max(1, base.stats.l1_requests)
        traffic_red = 1 - fsl.stats.total_bytes / max(1, base.stats.total_bytes)
        md_frac = fsl.stats.metadata_messages / max(1, fsl.stats.total_messages)
        req_reductions.append(req_red)
        traffic_reductions.append(traffic_red)
        md_fractions.append(md_frac)
        rows.append([tag, round(req_red, 3), round(traffic_red, 3),
                     round(md_frac, 3)])
    rows.append(["mean",
                 round(sum(req_reductions) / len(req_reductions), 3),
                 round(sum(traffic_reductions) / len(traffic_reductions), 3),
                 round(sum(md_fractions) / len(md_fractions), 3)])
    return ExperimentResult(
        name="Interconnect traffic: FSLite vs baseline "
             "(paper: 80% fewer L1 requests, 75% less traffic)",
        headers=["app", "l1_request_reduction", "traffic_reduction",
                 "metadata_msg_fraction"],
        rows=rows,
        summary={"mean_request_reduction":
                 sum(req_reductions) / len(req_reductions)},
        specs=list(specs.values()), cycles=_cycles(recs))


def sam_size(scale: float = 1.0,
             config: Optional[SystemConfig] = None,
             engine: Optional[Engine] = None) -> ExperimentResult:
    """SAM-table size sensitivity: 128 vs 256 entries per slice
    (paper: ~0.13% valid-entry replacement rate; no perf difference)."""
    config = config or SystemConfig()
    big = config.with_protocol(sam_sets=16)  # 16x16 = 256 entries
    specs: Dict[object, RunSpec] = {}
    for tag in FS_STUDY:
        specs[(tag, 128)] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                    config=config, scale=scale)
        specs[(tag, 256)] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                    config=big, scale=scale)
    recs = _run_keyed(engine, specs)
    rows = []
    rels, rates = [], []
    for tag in FS_STUDY:
        r128, r256 = recs[(tag, 128)], recs[(tag, 256)]
        rel = r128.cycles / r256.cycles
        rate = _sam_replacement_rate(r128)
        rels.append(rel)
        rates.append(rate)
        rows.append([tag, round(rel, 3), round(rate, 4)])
    rows.append(["mean", round(geomean(rels), 3),
                 round(sum(rates) / len(rates), 4)])
    return ExperimentResult(
        name="SAM table size: 256-entry speedup relative to 128-entry "
             "(paper: no difference; replacement rate 0.13%)",
        headers=["app", "rel_speedup_256", "valid_replacement_rate"],
        rows=rows, summary={"mean_replacement_rate":
                            sum(rates) / len(rates)},
        specs=list(specs.values()), cycles=_cycles(recs))


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
    opt_cfg = config.with_protocol(reader_metadata_opt=True)
    specs: Dict[object, RunSpec] = {}
    for tag in FS_STUDY:
        specs[(tag, "full")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                       config=config, scale=scale)
        specs[(tag, "opt")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                      config=opt_cfg, scale=scale)
    recs = _run_keyed(engine, specs)
    rows = []
    same = True
    for tag in FS_STUDY:
        full, opt = recs[(tag, "full")], recs[(tag, "opt")]
        equal = full.stats.privatizations == opt.stats.privatizations
        same = same and equal
        rows.append([tag, full.stats.privatizations,
                     opt.stats.privatizations,
                     round(full.cycles / opt.cycles, 3)])
    area = AreaModel(config)
    full_bits = area.sam_entry_bits(reader_opt=False)
    opt_bits = area.sam_entry_bits(reader_opt=True)
    saving = 1 - opt_bits / full_bits
    return ExperimentResult(
        name="Reader-metadata optimization (paper: identical privatized "
             "blocks; 25% SAM storage saving)",
        headers=["app", "priv_full", "priv_opt", "rel_speedup"],
        rows=rows,
        summary={"sam_entry_bits_full": full_bits,
                 "sam_entry_bits_opt": opt_bits,
                 "storage_saving": saving,
                 "all_equal": float(same)},
        specs=list(specs.values()), cycles=_cycles(recs))


def granularity(scale: float = 1.0,
                config: Optional[SystemConfig] = None,
                engine: Optional[Engine] = None) -> ExperimentResult:
    """Coarse-grain metadata tracking at 2- and 4-byte granularity
    (paper: no performance degradation)."""
    config = config or SystemConfig()
    specs: Dict[object, RunSpec] = {}
    for tag in FS_STUDY:
        specs[(tag, 1)] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                  config=config, scale=scale)
        specs[(tag, 2)] = RunSpec(
            tag=tag, mode=ProtocolMode.FSLITE, scale=scale,
            config=config.with_protocol(tracking_granularity=2))
        specs[(tag, 4)] = RunSpec(
            tag=tag, mode=ProtocolMode.FSLITE, scale=scale,
            config=config.with_protocol(tracking_granularity=4))
    recs = _run_keyed(engine, specs)
    rows = []
    rel2, rel4 = [], []
    for tag in FS_STUDY:
        g1 = recs[(tag, 1)]
        r2 = g1.cycles / recs[(tag, 2)].cycles
        r4 = g1.cycles / recs[(tag, 4)].cycles
        rel2.append(r2)
        rel4.append(r4)
        rows.append([tag, round(r2, 3), round(r4, 3)])
    rows.append(["geomean", round(geomean(rel2), 3), round(geomean(rel4), 3)])
    return ExperimentResult(
        name="Coarse-grain tracking: 2B/4B granularity relative to 1B "
             "(paper: no degradation)",
        headers=["app", "rel_2B", "rel_4B"], rows=rows,
        summary={"rel2_geomean": geomean(rel2),
                 "rel4_geomean": geomean(rel4)},
        specs=list(specs.values()), cycles=_cycles(recs))


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
    recs = _run_keyed(engine, specs)
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
        specs=list(specs.values()), cycles=_cycles(recs))


def ooo(scale: float = 1.0,
        config: Optional[SystemConfig] = None,
        engine: Optional[Engine] = None) -> ExperimentResult:
    """Out-of-order cores (paper: OoO baseline 5.1X over in-order; FSLite
    1.63X over the OoO baseline; 1.56X in-order for the same six apps)."""
    tags = ["BS", "LL", "LR", "LT", "RC", "SM"]
    specs: Dict[object, RunSpec] = {}
    for tag in tags:
        specs[(tag, "base_io")] = RunSpec(tag=tag, config=config,
                                          scale=scale)
        specs[(tag, "base_ooo")] = RunSpec(tag=tag, config=config,
                                           scale=scale, core_model="ooo")
        specs[(tag, "fsl_io")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                         config=config, scale=scale)
        specs[(tag, "fsl_ooo")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                          config=config, scale=scale,
                                          core_model="ooo")
    recs = _run_keyed(engine, specs)
    rows = []
    ooo_gain, fsl_ooo, fsl_inorder = [], [], []
    for tag in tags:
        base_io = recs[(tag, "base_io")]
        base_ooo = recs[(tag, "base_ooo")]
        g = base_io.cycles / base_ooo.cycles
        so = base_ooo.cycles / recs[(tag, "fsl_ooo")].cycles
        si = base_io.cycles / recs[(tag, "fsl_io")].cycles
        ooo_gain.append(g)
        fsl_ooo.append(so)
        fsl_inorder.append(si)
        rows.append([tag, round(g, 2), round(so, 2), round(si, 2)])
    rows.append(["geomean", round(geomean(ooo_gain), 2),
                 round(geomean(fsl_ooo), 2), round(geomean(fsl_inorder), 2)])
    return ExperimentResult(
        name="Out-of-order issue (paper: baseline OoO gain 5.1X; FSLite "
             "1.63X on OoO, 1.56X in-order)",
        headers=["app", "ooo_baseline_gain", "fslite_on_ooo",
                 "fslite_inorder"],
        rows=rows,
        summary={"ooo_gain_geomean": geomean(ooo_gain),
                 "fslite_ooo_geomean": geomean(fsl_ooo)},
        specs=list(specs.values()), cycles=_cycles(recs))


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
    tags = tags or FS_STUDY
    specs: Dict[object, RunSpec] = {}
    for tag in tags:
        specs[(tag, "on")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                     config=config, scale=scale)
        specs[(tag, "off")] = RunSpec(tag=tag, mode=ProtocolMode.FSLITE,
                                      config=off, scale=scale)
    recs = _run_keyed(engine, specs)
    rows = []
    rels = []
    for tag in tags:
        on, woff = recs[(tag, "on")], recs[(tag, "off")]
        rel = woff.cycles / on.cycles  # >1 means the feature helps
        rels.append(rel)
        rows.append([tag, round(rel, 3), on.stats.privatizations,
                     woff.stats.privatizations])
    rows.append(["geomean", round(geomean(rels), 3), "", ""])
    return ExperimentResult(
        name=f"Ablation: {flag} disabled (slowdown factor vs full FSLite)",
        headers=["app", "slowdown_without", "priv_with", "priv_without"],
        rows=rows, summary={"geomean_slowdown": geomean(rels)},
        specs=list(specs.values()), cycles=_cycles(recs))
