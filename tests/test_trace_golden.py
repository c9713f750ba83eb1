"""Golden-trace conformance corpus.

``tests/data/traces/`` holds one committed ``.rtrace`` per (workload,
protocol mode) pair — RC, LL, LT, BS plus the ww/is synthetic sharing
patterns under MESI, FSDETECT and FSLITE — with ``manifest.json`` pinning,
per trace, the replay spec digest (manifest key), the trace content
digest, and the live run's cycles / message total / canonical stats
sha256 at capture time.

The conformance claim tested here: **capture is a pure pass-through tap
and replay is bit-identical to the live workload** under the same mode
and config.  A replay digest mismatch means either the codec changed the
op stream, the replay machinery diverged from live program execution, or
the simulator's behaviour drifted (which the cycle-identity tier would
also catch).  One trace is committed *per mode* because thread programs
are value-dependent (spin loops, CAS retries): a trace is an identity
oracle only under the mode it was captured with.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python tests/data/traces/regen.py
"""

import json
import pathlib
import shutil

import pytest

from repro.coherence.states import ProtocolMode
from repro.common.config import ObsConfig
from repro.harness.engine import Engine
from repro.harness.export import record_stats_digest
from repro.harness.runner import RunSpec, execute_spec
from repro.workloads.trace import (
    TraceRef,
    record_trace,
    trace_info,
    trace_spec,
)

TRACE_DIR = pathlib.Path(__file__).parent / "data" / "traces"
MANIFEST = json.loads((TRACE_DIR / "manifest.json").read_text())


def _case_id(item) -> str:
    _, entry = item
    return f"{entry['tag']}-{entry['mode']}"


_CASES = sorted(MANIFEST.items(), key=lambda kv: kv[1]["file"])


@pytest.mark.parametrize("digest,entry", _CASES,
                         ids=[_case_id(kv) for kv in _CASES])
def test_replay_is_stats_identical_to_live(digest, entry):
    path = TRACE_DIR / entry["file"]
    info = trace_info(path)
    assert info.digest == entry["trace_digest"], \
        "committed trace bytes drifted"
    assert info.total_ops == entry["total_ops"]

    spec = trace_spec(path)
    assert spec.mode.value == entry["mode"]
    assert spec.num_threads == entry["num_threads"]
    assert spec.digest() == digest, \
        "replay RunSpec digest drifted: spec encoding or trace changed"

    record = execute_spec(spec)
    assert record.cycles == entry["cycles"]
    assert record.stats.network["msgs_total"] == entry["msgs_total"]
    assert record_stats_digest(record) == entry["stats_sha256"]


@pytest.mark.parametrize("mode", list(ProtocolMode),
                         ids=[m.value for m in ProtocolMode])
def test_recapture_reproduces_committed_trace(mode, tmp_path):
    """Re-recording the live workload today must reproduce the committed
    trace content digest *and* the pinned live-run stats — i.e. both the
    capture tap and the simulator are still deterministic."""
    entry = next(e for e in MANIFEST.values()
                 if e["tag"] == "RC" and e["mode"] == mode.value)
    spec = RunSpec(tag=entry["tag"], mode=ProtocolMode(entry["mode"]),
                   scale=entry["scale"], seed=entry["seed"])
    info, record = record_trace(spec, tmp_path / "re.rtrace")
    assert info.digest == entry["trace_digest"]
    assert record.cycles == entry["cycles"]
    assert record_stats_digest(record) == entry["stats_sha256"]


def test_capture_record_equals_execute_spec_with_obs(tmp_path):
    """The capture run is the spec's run: with observers attached, the
    recorded run's record — ``extra["obs"]`` included — is the one
    ``execute_spec`` returns for the same spec."""
    spec = RunSpec(tag="RC", mode=ProtocolMode.FSDETECT, scale=0.05,
                   obs=ObsConfig(sample_period=500))
    _, recorded = record_trace(spec, tmp_path / "obs.rtrace")
    live = execute_spec(spec)
    assert recorded.extra["obs"]["episodes"] \
        and recorded.extra["obs"]["metrics"]
    assert recorded.extra == live.extra
    assert recorded == live


def test_manifest_keys_are_location_independent(tmp_path):
    """The manifest is keyed by replay spec digest, which must not embed
    the trace file's path: a copied trace replays to the same digest (and
    therefore the same engine cache slot) from anywhere."""
    entry = _CASES[0][1]
    src = TRACE_DIR / entry["file"]
    moved = tmp_path / "elsewhere" / "renamed.rtrace"
    moved.parent.mkdir()
    shutil.copy(src, moved)
    assert trace_spec(moved).digest() == trace_spec(src).digest()

    ref_a = TraceRef.of(src)
    ref_b = TraceRef.of(moved)
    assert ref_a.path != ref_b.path and ref_a.digest == ref_b.digest
    spec_a = trace_spec(src)
    d = spec_a.to_dict()
    assert d["trace"]["path"] == str(src)  # path still round-trips
    assert RunSpec.from_dict(d).digest() == spec_a.digest()


def test_trace_field_absent_for_ordinary_specs():
    """``RunSpec.trace`` serializes only when set, so every pre-trace
    digest (golden identity keys, cached results) stays valid."""
    spec = RunSpec(tag="RC", mode=ProtocolMode.MESI, scale=0.2)
    assert "trace" not in spec.to_dict()
    entry = _CASES[0][1]
    traced = trace_spec(TRACE_DIR / entry["file"])
    assert "trace" in traced.to_dict()
    assert traced.digest() != spec.digest()


def test_engine_caches_trace_replays(tmp_path):
    """Trace replays flow through the engine's content-addressed result
    cache: the second run of the same trace is served from cache, and a
    byte-identical copy at another path hits the same slot."""
    entry = next(e for e in MANIFEST.values()
                 if e["tag"] == "ww" and e["mode"] == "mesi")
    src = TRACE_DIR / entry["file"]
    engine = Engine(cache_dir=tmp_path / "cache")
    first = engine.run_one(trace_spec(src))
    copy = tmp_path / "copy.rtrace"
    shutil.copy(src, copy)
    second = engine.run_one(trace_spec(copy))
    assert record_stats_digest(first) == record_stats_digest(second)
    assert record_stats_digest(first) == entry["stats_sha256"]
    hits = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
    assert len(hits) == 1, "copy at a new path must reuse the cache entry"


def test_corpus_is_complete():
    """Corpus spans {RC, LL, LT, BS, ww, is} x all three protocol modes."""
    seen = {(e["tag"], e["mode"]) for e in MANIFEST.values()}
    expected = {(tag, mode.value)
                for tag in ("RC", "LL", "LT", "BS", "ww", "is")
                for mode in ProtocolMode}
    assert seen == expected
    assert len(MANIFEST) == len(expected)
    files = {e["file"] for e in MANIFEST.values()}
    on_disk = {p.name for p in TRACE_DIR.glob("*.rtrace")}
    assert files == on_disk, "stray or missing .rtrace files in corpus"
