"""The L1 controller's hit, data-array and PAM counters.

``L1Controller.stats`` is a derived view: a hit updates only its per-kind
counter (plus the PAM count of the PRV coverage check), and the hit,
data-array and PAM totals are worked out from the accesses that take one
of ``access``'s five non-hit returns and the performs done at MSHR
completion.  These tests pin, per protocol mode, what one access (or one
MSHR completion) moves each counter by, for every non-hit return and for a
hit in each stable state; the values are those the per-event counting
gave before the derivation.  A derivation that drops one of its terms
moves at least one of them.

The other two guards: a metrics series sampled mid-run (which reads the
view while transactions are in flight) matches the per-event counts, and
an AST check keeps the per-hit updates off ``_perform`` and ``access``.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.coherence.l1_controller import L1Controller
from repro.coherence.states import L1State, ProtocolMode
from repro.common.config import ObsConfig, SystemConfig
from repro.common.errors import ProtocolError
from repro.common.statkeys import (
    CORE_HITS,
    CORE_L1_DATA_ACCESSES,
    CORE_LOADS,
    CORE_PAM_ACCESSES,
    CORE_RMWS,
    CORE_STAT_KEYS,
    CORE_STORES,
)
from repro.cpu.ops import load, store
from repro.harness.runner import RunSpec, execute_spec
from repro.interconnect.message import MessageType

from _helpers import L1Harness

BLOCK = 0x1000
DATA = bytes(64)
MESI, FSDETECT, FSLITE = (ProtocolMode.MESI, ProtocolMode.FSDETECT,
                          ProtocolMode.FSLITE)
#: The counters each case reads, in the order the expectations list them.
WATCHED = (CORE_LOADS, CORE_STORES, CORE_RMWS, CORE_HITS,
           CORE_L1_DATA_ACCESSES, CORE_PAM_ACCESSES)


def _fill(h: L1Harness, op, mtype: MessageType) -> None:
    """Miss on ``op`` and answer it with ``mtype``: the line is resident."""
    h.issue(op)
    h.inject(mtype, BLOCK, data=DATA)
    h.sent_types()


def _fill_s(h):
    _fill(h, load(BLOCK, 8), MessageType.DATA)
    assert h.l1.cache.peek(BLOCK).payload.state is L1State.S


def _fill_e(h):
    _fill(h, load(BLOCK, 8), MessageType.DATA_E)
    assert h.l1.cache.peek(BLOCK).payload.state is L1State.E


def _fill_m(h):
    _fill(h, store(BLOCK, 7, 8), MessageType.DATA_E)
    assert h.l1.cache.peek(BLOCK).payload.state is L1State.M


def _fill_prv(h):
    """A PRV line whose PAM covers bytes 0..7 (read) and nothing else."""
    _fill(h, load(BLOCK, 8), MessageType.DATA_PRV)
    assert h.l1.cache.peek(BLOCK).payload.state is L1State.PRV


def _pending_miss(h):
    h.issue(load(BLOCK, 8))
    assert h.sent_types() == [MessageType.GET]


def _buffered_writeback(h):
    _fill_m(h)
    assert h.l1.fault_evict(BLOCK)
    assert h.sent_types() == [MessageType.PUTM]


def _access(op, sent):
    """Measure one ``access`` of ``op``; it must send ``sent``."""
    def measure(h):
        h.issue(op)
        assert h.sent_types() == sent
    return measure


def _complete(mtype):
    """Measure the MSHR completion that an ``mtype`` response makes."""
    def measure(h):
        h.inject(mtype, BLOCK, data=DATA)
        h.sent_types()
    return measure


def _coalesced_pair(h):
    _pending_miss(h)
    h.issue(load(BLOCK + 8, 8))
    assert h.sent_types() == []


#: case -> (setup, measured step, modes, deltas of WATCHED).
CASES = {
    # The five non-hit returns of ``access``.
    "mshr-coalesce": (_pending_miss, _access(load(BLOCK + 8, 8), []),
                      (MESI, FSDETECT, FSLITE), (1, 0, 0, 0, 0, 0)),
    "writeback-park": (_buffered_writeback, _access(load(BLOCK, 8), []),
                       (MESI, FSDETECT, FSLITE), (1, 0, 0, 0, 0, 0)),
    "cold-miss": (lambda h: None,
                  _access(store(BLOCK, 1, 8), [MessageType.GETX]),
                  (MESI, FSDETECT, FSLITE), (0, 1, 0, 0, 0, 0)),
    "uncovered-prv": (_fill_prv,
                      _access(load(BLOCK + 16, 8), [MessageType.GETCHK]),
                      (FSLITE,), (1, 0, 0, 0, 0, 1)),
    "write-to-s": (_fill_s,
                   _access(store(BLOCK, 1, 8), [MessageType.UPGRADE]),
                   (MESI, FSDETECT, FSLITE), (0, 1, 0, 0, 0, 0)),
    # A hit in each stable state.
    "hit-s": (_fill_s, _access(load(BLOCK + 8, 8), []),
              (MESI,), (1, 0, 0, 1, 1, 0)),
    "hit-s-pam": (_fill_s, _access(load(BLOCK + 8, 8), []),
                  (FSDETECT, FSLITE), (1, 0, 0, 1, 1, 1)),
    "hit-e": (_fill_e, _access(load(BLOCK, 8), []),
              (MESI,), (1, 0, 0, 1, 1, 0)),
    "hit-e-pam": (_fill_e, _access(load(BLOCK, 8), []),
                  (FSDETECT, FSLITE), (1, 0, 0, 1, 1, 1)),
    "hit-m": (_fill_m, _access(store(BLOCK + 8, 3, 8), []),
              (MESI,), (0, 1, 0, 1, 1, 0)),
    "hit-m-pam": (_fill_m, _access(store(BLOCK + 8, 3, 8), []),
                  (FSDETECT, FSLITE), (0, 1, 0, 1, 1, 1)),
    "hit-prv": (_fill_prv, _access(load(BLOCK, 8), []),
                (FSLITE,), (1, 0, 0, 1, 1, 2)),
    # MSHR completions: the first op performs there, queued ops replay
    # through ``access`` (the coalesced load below hits on the fill).
    "mshr-complete": (_pending_miss, _complete(MessageType.DATA_E),
                      (MESI,), (0, 0, 0, 0, 1, 0)),
    "mshr-complete-pam": (_pending_miss, _complete(MessageType.DATA_E),
                          (FSDETECT, FSLITE), (0, 0, 0, 0, 1, 1)),
    "mshr-complete-replay": (_coalesced_pair, _complete(MessageType.DATA_E),
                             (MESI,), (1, 0, 0, 1, 2, 0)),
    "mshr-complete-replay-pam": (_coalesced_pair,
                                 _complete(MessageType.DATA_E),
                                 (FSDETECT, FSLITE), (1, 0, 0, 1, 2, 2)),
    "prv-chk-complete": (lambda h: (_fill_prv(h), h.issue(
                             load(BLOCK + 16, 8)), h.sent_types()),
                         _complete(MessageType.ACK_PRV),
                         (FSLITE,), (0, 0, 0, 0, 1, 1)),
}

PARAMS = [(name, mode) for name, (_, _, modes, _) in CASES.items()
          for mode in modes]


def _watched(h: L1Harness):
    stats = h.l1.stats
    return tuple(stats[key] for key in WATCHED)


@pytest.mark.parametrize("name,mode", PARAMS,
                         ids=[f"{n}-{m.value}" for n, m in PARAMS])
def test_counter_deltas(name, mode):
    setup, measure, _, want = CASES[name]
    h = L1Harness(mode=mode)
    setup(h)
    before = _watched(h)
    measure(h)
    after = _watched(h)
    assert tuple(a - b for a, b in zip(after, before)) == want


def test_prv_line_without_pam_entry_counts_no_hit():
    """The access that finds a PRV line with no PAM entry raises, and
    (as with per-event counting) counts its kind but no hit."""
    h = L1Harness(mode=FSLITE)
    _fill_prv(h)
    h.l1.pam.invalidate(BLOCK)
    before = _watched(h)
    with pytest.raises(ProtocolError, match="without a PAM entry"):
        h.l1.access(load(BLOCK, 8), h.completions.append)
    after = _watched(h)
    assert tuple(a - b for a, b in zip(after, before)) == (1, 0, 0, 0, 0, 0)


def test_stats_is_a_fresh_dict_in_key_order():
    h = L1Harness(mode=FSLITE)
    _fill_prv(h)
    h.issue(load(BLOCK, 8))
    stats = h.l1.stats
    assert list(stats) == list(CORE_STAT_KEYS)
    assert stats is not h.l1.stats
    stats[CORE_HITS] = 10 ** 6
    assert h.l1.stats[CORE_HITS] == 1


#: ``l1.hits`` sampled every 250 cycles (rows land on message deliveries,
#: so mid-run reads see MSHR completions in flight) over the default-config
#: RC FSLite run at scale 0.25, as the per-event counters gave it.
RC_FSLITE_HIT_SERIES = [
    (0, 0), (260, 0), (518, 9), (775, 51), (1026, 83), (1282, 123),
    (1540, 193), (1795, 246), (2068, 342), (2420, 422), (2684, 502),
    (6432, 4426),
]


def test_sampled_hit_series_matches_per_event_counts():
    record = execute_spec(RunSpec(
        tag="RC", mode=FSLITE, scale=0.25, config=SystemConfig(),
        obs=ObsConfig(episodes=False, sample_period=250)))
    series = record.extra["obs"]["metrics"]["series"]
    assert [(row["cycle"], row["l1.hits"]) for row in series] \
        == RC_FSLITE_HIT_SERIES


# -- AST guard ---------------------------------------------------------------------

#: The only stats keys ``access`` may update itself.
ACCESS_KEYS = {"CORE_LOADS", "CORE_STORES", "CORE_RMWS", "CORE_PAM_ACCESSES"}


def _aug_targets(method):
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    return [node.target for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign)]


def _is_self_attr(node) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_perform_updates_no_counter():
    """``_perform`` runs once per hit: it may change the line and its PAM
    entry, never a stats key or a controller counter."""
    for target in _aug_targets(L1Controller._perform):
        assert not isinstance(target, ast.Subscript), ast.unparse(target)
        assert not _is_self_attr(target), ast.unparse(target)


def test_access_updates_only_the_per_kind_and_prv_check_counts():
    """A hit updates one stats key (two on a PRV line); everything else a
    miss counts goes to one controller counter the view derives from."""
    keys = set()
    counters = set()
    for target in _aug_targets(L1Controller.access):
        if isinstance(target, ast.Subscript):
            keys.add(ast.unparse(target.slice))
        else:
            assert _is_self_attr(target), ast.unparse(target)
            counters.add(target.attr)
    assert keys <= ACCESS_KEYS, keys - ACCESS_KEYS
    assert keys >= {"CORE_LOADS", "CORE_STORES", "CORE_RMWS"}
    assert len(counters) <= 1, counters
