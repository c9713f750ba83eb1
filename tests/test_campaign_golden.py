"""Campaign contract: what the fuzz, diff and chaos campaigns report.

Small seeded campaigns run with seeded protocol mutations, so findings
exist and get shrunk.  For each finding the digest pins the case seed,
its labels, the failure text and the shrunk list.  For the clean chaos
campaign it pins each surviving case's degradation report, and for every
mutation hunt its full outcome.  A refactor of the campaign machinery
(the executor, case rotation, shrink sessions and their verdict memo)
must leave every digest unchanged: it may change how a verdict is
reached, never the verdict.

The finding classes were once one per verb.  The values pinned here do
not depend on which attribute a verb's finding keeps them in, so
:func:`_first` reads whichever of the equivalent names exists.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.check.diff import diff_campaign, hunt_mutation_escape
from repro.check.fuzz import fuzz_campaign
from repro.check.mutations import MUTATIONS
from repro.coherence.states import ProtocolMode
from repro.faults.chaos import chaos_campaign

#: The contract campaigns: name -> (verb, keyword arguments).
CAMPAIGNS = {
    "fuzz-merge": ("fuzz", dict(
        iterations=30, seed=0, length=40, mutation="merge-drop-granule",
        differential=True)),
    "fuzz-pam-differential": ("fuzz", dict(
        iterations=6, seed=0, length=40,
        mutation="pam-reads-count-as-writes", differential=True,
        modes=[ProtocolMode.FSDETECT])),
    "fuzz-two-threads": ("fuzz", dict(
        iterations=12, seed=0, length=40, mutation="merge-drop-granule",
        num_threads=2)),
    "diff-merge": ("diff", dict(
        iterations=9, seed=0, length=40, mutation="merge-drop-granule")),
    "chaos-merge": ("chaos", dict(
        iterations=27, seed=0, length=40, mutation="merge-drop-granule")),
    "chaos-clean": ("chaos", dict(iterations=9, seed=0, length=40)),
}

#: sha256 of each campaign's canonical record (see :func:`_record`).
GOLDEN = {
    "fuzz-merge":
        "6c2e1d4149a2003160f09332ca40e3ec41b83890ea4e7f9ab6806f6050d7b1b1",
    "fuzz-pam-differential":
        "952f4d2bf1aaea1e226564bd2ca2a38c63ade76dad4f3ae39b7cc8e09bae7445",
    "fuzz-two-threads":
        "bd6c954f28871e3d130d04563fdad3f3b2f3b3c3bba17739e446138d1c2aac08",
    "diff-merge":
        "ac706b447b0f64f9f26114adee89a10d209d4c9f0ad2ca416f77e5799301a742",
    "chaos-merge":
        "22d64b4a8e43b345e797b678ee4e450014a2c35977a2635cae7a1a86222c30b6",
    "chaos-clean":
        "df290370caee356085b81ca2e6630bf3ccdbeba90ca9b0ebb70f6d1b91b34520",
    "hunts":
        "7ce1347362c568472aa2648d6b868f77142a89408e662b3e818987c2e69d31ea",
}

_RUNNERS = {"fuzz": fuzz_campaign, "diff": diff_campaign,
            "chaos": chaos_campaign}


@functools.lru_cache(maxsize=None)
def contract_campaign(name):
    """The campaign result for ``CAMPAIGNS[name]`` (run once per session)."""
    verb, kwargs = CAMPAIGNS[name]
    return _RUNNERS[verb](**kwargs)


@functools.lru_cache(maxsize=None)
def contract_hunts():
    """``hunt_mutation_escape`` for every seeded mutation at seed 0."""
    return {name: hunt_mutation_escape(name, seed=0)
            for name in sorted(MUTATIONS)}


def _first(obj, *names):
    """The value of the first attribute in ``names`` that ``obj`` has."""
    for name in names:
        if hasattr(obj, name):
            return getattr(obj, name)
    raise AttributeError(f"{type(obj).__name__} has none of {names}")


def _items(items):
    return [list(dataclasses.astuple(item)) for item in items]


def _mode(mode):
    return mode.value if mode is not None else None


def _finding(verb, f):
    if verb == "fuzz":
        labels = [f.family, _mode(f.mode), f.mutation]
        failure = f.failure.describe()
    elif verb == "diff":
        labels = [f.family, f.mutation]
        failure = f.detail if hasattr(f, "detail") else f.failure.detail
    else:
        labels = [f.fault_family, _first(f, "schedule_family", "family"),
                  _mode(f.mode)]
        failure = f.failure.describe()
    record = {"case_seed": f.case_seed, "labels": labels,
              "failure": failure}
    if verb == "chaos":
        record["plan"] = (dataclasses.asdict(f.plan)
                          if f.plan is not None else None)
        record["fired"] = _items(f.fired)
        record["shrunk"] = _items(_first(f, "shrunk_events", "shrunk"))
    else:
        record["schedule_ops"] = len(f.schedule)
        record["shrunk"] = _items(f.shrunk)
    return record


def _record(name):
    verb, _ = CAMPAIGNS[name]
    result = contract_campaign(name)
    record = {"iterations": result.iterations,
              "findings": [_finding(verb, f) for f in result.findings]}
    if verb == "diff":
        record["blocks_compared"] = result.blocks_compared
    if verb == "chaos":
        record["cases"] = [
            [c.index, c.case_seed, c.fault_family, c.schedule_family,
             _mode(c.mode), dataclasses.asdict(c.report)]
            for c in result.cases]
        record["family_fired"] = result.family_fired()
        record["family_degraded"] = result.family_degraded()
    return record


def _hunts_record():
    return {name: [e.caught, _mode(e.mode), e.family, e.case_seed,
                   e.attempts, e.detail, _items(e.schedule),
                   _items(e.shrunk)]
            for name, e in contract_hunts().items()}


def _digest(record):
    text = json.dumps(record, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_contract(name):
    assert _digest(_record(name)) == GOLDEN[name], json.dumps(
        _record(name), indent=1, default=str)[:4000]


def test_hunt_contract():
    assert _digest(_hunts_record()) == GOLDEN["hunts"], json.dumps(
        _hunts_record(), indent=1, default=str)[:4000]


def test_contract_campaigns_have_findings():
    """The contract is not vacuous: every mutated campaign reports shrunk
    findings, and every hunt catches its mutation."""
    for name, (verb, kwargs) in CAMPAIGNS.items():
        result = contract_campaign(name)
        assert bool(result.findings) == ("mutation" in kwargs), name
    assert any(len(_first(f, "shrunk_events", "shrunk")) > 0
               for f in contract_campaign("chaos-merge").findings)
    assert all(e.caught for e in contract_hunts().values())
