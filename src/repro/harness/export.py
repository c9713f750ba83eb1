"""Result export: CSV emission, record flattening and JSON round-trip.

The paper's artifact consolidates gem5 stats into per-experiment CSV files
that the plotting scripts consume; this module provides the same shape for
our runs so results can be post-processed outside Python.  The JSON side
(:func:`records_to_json` / :func:`records_from_json`) round-trips complete
``RunRecord`` + ``RunSpec`` pairs — it is what the engine's persistent
result cache stores and what BENCH_*.json-style trajectories can consume.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Any, Dict, Iterable, List, Optional

from repro.coherence.states import ProtocolMode
from repro.core.report import (
    ContendedLineReport,
    FalseSharingReport,
    TrueSharingConflict,
)
from repro.harness.runner import RunRecord, RunSpec
from repro.system.stats import SimStats


def flatten_record(record: RunRecord) -> Dict[str, object]:
    """One flat row per run: identity, timing, traffic, energy, FSLite."""
    stats = record.stats
    row: Dict[str, object] = {
        "tag": record.tag,
        "protocol": record.mode.value,
        "layout": record.layout,
        "core_model": record.core_model,
        "cycles": record.cycles,
        "accesses": stats.accesses,
        "l1_misses": stats.l1_misses,
        "l1_miss_rate": round(stats.l1_miss_rate, 6),
        "l1_requests": stats.l1_requests,
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "metadata_messages": stats.metadata_messages,
        "inv_interventions": stats.inv_intervention_messages,
        "privatizations": stats.privatizations,
        "fs_reports": len(stats.reports),
        "energy_nj": round(stats.energy_nj, 2),
    }
    for cause, count in stats.terminations.items():
        row[f"term_{cause}"] = count
    return row


def records_to_csv(records: Iterable[RunRecord],
                   path: Optional[str] = None) -> str:
    """Serialize run records to CSV; returns the text (and writes ``path``
    when given)."""
    rows = [flatten_record(r) for r in records]
    if not rows:
        return ""
    fieldnames: List[str] = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, restval=0)
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


# ------------------------------------------------------- JSON round-trip

#: Report dataclasses that may appear in ``stats.reports`` / ``stats.extra``.
_REPORT_TYPES = {cls.__name__: cls for cls in
                 (FalseSharingReport, ContendedLineReport,
                  TrueSharingConflict)}


def _encode(value: Any) -> Any:
    """JSON-safe encoding of stats values (reports, sets, nested dicts)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        return {"__frozenset__": sorted(_encode(v) for v in value)}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and type(value).__name__ in _REPORT_TYPES:
        return {"__report__": type(value).__name__,
                "fields": {f.name: _encode(getattr(value, f.name))
                           for f in dataclasses.fields(value)}}
    return {"__str__": str(value)}  # last resort: lossy but loadable


def _decode(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        if "__frozenset__" in value:
            return frozenset(_decode(v) for v in value["__frozenset__"])
        if "__report__" in value:
            cls = _REPORT_TYPES[value["__report__"]]
            return cls(**{k: _decode(v)
                          for k, v in value["fields"].items()})
        if "__str__" in value:
            return value["__str__"]
        return {k: _decode(v) for k, v in value.items()}
    return value


def record_to_dict(record: RunRecord) -> Dict[str, Any]:
    """JSON-safe plain-dict form of a record (inverse of
    :func:`record_from_dict`)."""
    stats = record.stats
    return {
        "tag": record.tag,
        "mode": record.mode.value,
        "layout": record.layout,
        "cycles": record.cycles,
        "core_model": record.core_model,
        "extra": _encode(record.extra),
        "spec": record.spec.to_dict() if record.spec is not None else None,
        "stats": {
            "cycles": stats.cycles,
            "per_core": _encode(stats.per_core),
            "per_slice": _encode(stats.per_slice),
            "network": _encode(stats.network),
            "energy": _encode(stats.energy),
            "reports": _encode(stats.reports),
            "extra": _encode(stats.extra),
        },
    }


def record_stats_digest(record: RunRecord) -> str:
    """Stable content hash of a record's simulation outcome.

    Canonical JSON over cycles plus the full stats block (per-core,
    per-slice, network, energy, reports, extra).  Two records digest equal
    iff the simulations behaved identically — this is the cycle-identity
    contract the golden regression tests and the engine cache rely on.
    """
    import hashlib

    payload = {"cycles": record.cycles,
               "stats": record_to_dict(record)["stats"]}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_from_dict(data: Dict[str, Any]) -> RunRecord:
    """Rebuild a full ``RunRecord`` (stats, reports, spec) from JSON data."""
    raw = data["stats"]
    stats = SimStats(cycles=raw["cycles"],
                     per_core=_decode(raw["per_core"]),
                     per_slice=_decode(raw["per_slice"]),
                     network=_decode(raw["network"]),
                     energy=_decode(raw["energy"]),
                     reports=_decode(raw["reports"]),
                     extra=_decode(raw["extra"]))
    spec = RunSpec.from_dict(data["spec"]) if data.get("spec") else None
    return RunRecord(tag=data["tag"], mode=ProtocolMode(data["mode"]),
                     layout=data["layout"], cycles=data["cycles"],
                     stats=stats, core_model=data["core_model"],
                     extra=_decode(data["extra"]), spec=spec)


def records_to_json(records: Iterable[RunRecord],
                    path: Optional[str] = None, indent: Optional[int] = None
                    ) -> str:
    """Serialize records (with their specs) to JSON; optionally write
    ``path``."""
    text = json.dumps([record_to_dict(r) for r in records], indent=indent)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


def records_from_json(text: str) -> List[RunRecord]:
    """Inverse of :func:`records_to_json` (pass the JSON text)."""
    return [record_from_dict(item) for item in json.loads(text)]

