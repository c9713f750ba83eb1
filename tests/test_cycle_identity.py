"""Golden cycle-identity regression guard.

``tests/data/golden_identity.json`` was recorded *before* the hot-path
kernel overhaul (slotted events/messages, table dispatch, fast-path
network, lazy cache arrays): for one false-sharing workload (RC) and one
without false sharing (FA), at a fixed seed and scale, under all three
protocol modes with the sanitizer both off and on, it pins the exact cycle
count, total message count, total network bytes, and a sha256 over the
record's full canonical stats.

The hit-heavy workloads LT, SF and LL (all modes, sanitizer off) were
added later, recorded before the block-indexed cache arrays and the
folded core completion.  RC and FA make 4-5k L1 accesses each; these
make 16k-36k, 93-99.5% of them hits, so they pin the hit path.

Two groups carry an extra key and cover paths the others never run:
``granularity`` entries (LT and RC under FSDetect and FSLite at 2- and
4-byte tracking granularity) take the PAM granule-mask branch, and
``core_model: "ooo"`` entries (RC, all modes) drive the out-of-order core.
Both were recorded before the enum-free hot path.

The miss-heavy ``ml`` (false sharing over 64 lines at once: SAM
allocations, REP_MD traffic) and ``CA`` (a private region that spills the
L1: thousands of LLC fills from memory) under MESI and FSDetect pin the
coherence miss path; they were recorded before the positional per-message
construction.

Any optimisation that changes one of these numbers changed simulator
*behaviour*, not just speed — which would also silently invalidate the
engine's result cache and every committed benchmark checksum.  Entries are
keyed by ``RunSpec.digest()`` so the guard also fails loudly if the spec
encoding itself drifts.
"""

import json
import pathlib

import pytest

from repro.coherence.states import ProtocolMode
from repro.common.config import SystemConfig
from repro.harness.export import record_stats_digest
from repro.harness.runner import RunSpec, execute_spec

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_identity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
#: Workloads whose runs are mostly L1 hits (the hit path's own guard).
HIT_HEAVY_TAGS = ("LT", "SF", "LL")
#: Miss-heavy workloads (the coherence miss path's own guard) and the
#: modes they were recorded under.
MISS_HEAVY_TAGS = ("ml", "CA")
MISS_HEAVY_MODES = (ProtocolMode.MESI, ProtocolMode.FSDETECT)
#: Coarse tracking granularities with their own golden entries.
GRANULARITY_TAGS = ("LT", "RC")
GRANULARITIES = (2, 4)
FS_MODES = (ProtocolMode.FSDETECT, ProtocolMode.FSLITE)


def _spec_for(entry: dict) -> RunSpec:
    config = SystemConfig()
    if entry["sanitizer"]:
        config = config.with_sanitizer(enabled=True)
    if "granularity" in entry:
        config = config.with_protocol(
            tracking_granularity=entry["granularity"])
    return RunSpec(tag=entry["tag"], mode=ProtocolMode(entry["mode"]),
                   scale=entry["scale"], config=config,
                   core_model=entry.get("core_model", "inorder"))


def _case_id(item) -> str:
    digest, entry = item
    san = "+san" if entry["sanitizer"] else ""
    gran = f"+gran{entry['granularity']}" if "granularity" in entry else ""
    ooo = "+ooo" if entry.get("core_model") == "ooo" else ""
    return f"{entry['tag']}-{entry['mode']}{san}{gran}{ooo}"


def _rc_entry(mode: ProtocolMode) -> dict:
    """The default-config RC golden entry (in-order, 1-byte granularity,
    sanitizer off) for ``mode``."""
    return next(e for e in GOLDEN.values()
                if e["tag"] == "RC" and e["mode"] == mode.value
                and not e["sanitizer"] and "granularity" not in e
                and "core_model" not in e)


@pytest.mark.parametrize("digest,entry", sorted(GOLDEN.items()),
                         ids=[_case_id(kv) for kv in sorted(GOLDEN.items())])
def test_golden_identity(digest, entry):
    spec = _spec_for(entry)
    assert spec.digest() == digest, \
        "RunSpec digest drifted: the spec encoding changed"
    record = execute_spec(spec)
    network = record.stats.network
    assert record.cycles == entry["cycles"]
    assert network["msgs_total"] == entry["msgs_total"]
    assert network["bytes_total"] == entry["bytes_total"]
    assert record_stats_digest(record) == entry["stats_sha256"]


#: Events the kernel executes for the RC golden spec (sanitizer off), per
#: mode.  A fast path that skips or adds events changes these even when it
#: keeps the cycle count; updating them must be a deliberate golden change.
GOLDEN_RC_EVENTS = {"mesi": 9680, "fsdetect": 10568, "fslite": 5456}


@pytest.mark.parametrize("mode", list(ProtocolMode),
                         ids=[m.value for m in ProtocolMode])
def test_golden_event_count(mode):
    from repro.harness.runner import execute_spec_with_machine

    entry = _rc_entry(mode)
    record, machine = execute_spec_with_machine(_spec_for(entry))
    assert record.cycles == entry["cycles"]
    assert machine.queue.executed == GOLDEN_RC_EVENTS[mode.value]


@pytest.mark.parametrize("mode", list(ProtocolMode),
                         ids=[m.value for m in ProtocolMode])
def test_observed_run_is_cycle_identical(mode):
    """Attaching the observability layer must not perturb the simulation:
    same cycles, same canonical stats digest as the unobserved golden run.
    (Sampling piggybacks on message delivery; episode hooks only record.)"""
    from repro.common.config import ObsConfig

    entry = _rc_entry(mode)
    spec = _spec_for(entry)
    observed = execute_spec(RunSpec(
        tag=spec.tag, mode=spec.mode, scale=spec.scale, config=spec.config,
        obs=ObsConfig(sample_period=500)))
    assert observed.cycles == entry["cycles"]
    assert record_stats_digest(observed) == entry["stats_sha256"]


@pytest.mark.parametrize("mode", list(ProtocolMode),
                         ids=[m.value for m in ProtocolMode])
def test_faults_package_inert_without_a_plan(mode):
    """The fault-injection seams (network ``fault_seam``, the directory/
    L1/PAM/SAM fault hooks) must be bit-for-bit free when no injector is
    attached: importing :mod:`repro.faults` and running a golden spec must
    reproduce the exact golden cycles and canonical stats digest."""
    import repro.faults  # noqa: F401 — the import is the point
    from repro.faults import FaultInjector, FaultPlan  # noqa: F401

    entry = _rc_entry(mode)
    spec = _spec_for(entry)
    record = execute_spec(spec)
    assert record.cycles == entry["cycles"]
    assert record_stats_digest(record) == entry["stats_sha256"]


def test_golden_covers_all_modes_and_sanitizer_states():
    """The fixture spans {RC, FA} x all modes x sanitizer {off, on}, the
    hit-heavy {LT, SF, LL} x all modes, the miss-heavy {ml, CA} x {MESI,
    FSDetect}, {LT, RC} x {FSDetect, FSLite} at granularity {2, 4}, and
    the OoO core on RC x all modes (sanitizer off for all but the first
    group)."""
    seen = {(e["tag"], e["mode"], e["sanitizer"], e.get("granularity", 1),
             e.get("core_model", "inorder")) for e in GOLDEN.values()}
    expected = {(tag, mode.value, san, 1, "inorder")
                for tag in ("RC", "FA")
                for mode in ProtocolMode
                for san in (False, True)}
    expected |= {(tag, mode.value, False, 1, "inorder")
                 for tag in HIT_HEAVY_TAGS
                 for mode in ProtocolMode}
    expected |= {(tag, mode.value, False, 1, "inorder")
                 for tag in MISS_HEAVY_TAGS
                 for mode in MISS_HEAVY_MODES}
    expected |= {(tag, mode.value, False, gran, "inorder")
                 for tag in GRANULARITY_TAGS
                 for mode in FS_MODES
                 for gran in GRANULARITIES}
    expected |= {("RC", mode.value, False, 1, "ooo")
                 for mode in ProtocolMode}
    assert seen == expected
    assert len(GOLDEN) == len(expected)
