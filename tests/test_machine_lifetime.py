"""Machine lifetime: a finished machine is freed by reference counting.

Every campaign case, spec run, trace capture and trace diff builds a
machine and drops it.  A wired machine is a reference cycle (the
network's handler table, observer hooks and fault seam, the queue's
pending events, ``Machine.extras``, and the completion callbacks an
unfinished run leaves parked in the L1s all point back into the graph),
so unless the executor closes it the cyclic garbage collector has to find
and free it.  These tests run each entry point that builds a machine — a
run that raises included — with the collector disabled and
``gc.DEBUG_SAVEALL`` set, then require that a collection finds nothing:
every object the run allocated was already freed by reference counting.

Each entry point runs once uncounted first, so lazy imports and first-use
caches are not counted.  Also pinned here: a spec run's heap peak is flat
in workload length (cores keep nothing per op), the controllers'
class-level handler tables route every message type exactly as before,
and a type a controller cannot handle raises ``ProtocolError`` naming the
node.
"""

from __future__ import annotations

import gc
import pathlib
import random
import tracemalloc

import pytest

from repro.check.diff import (
    diff_trace,
    hunt_mutation_escape,
    run_differential,
)
from repro.check.fuzz import fuzz_config, make_schedule, run_schedule
from repro.coherence import directory, l1_controller
from repro.coherence.directory import DirectorySlice
from repro.coherence.l1_controller import L1Controller
from repro.coherence.states import ProtocolMode
from repro.common.errors import (
    ProtocolError,
    SimulationError,
    WorkloadError,
)
from repro.faults.chaos import run_chaos_case
from repro.faults.plan import FaultEvent, FaultPlan
from repro.harness.runner import (
    RunSpec,
    execute_spec,
    execute_spec_with_machine,
)
from repro.interconnect.message import Message, MessageType
from repro.system.builder import build_machine
from repro.system.simulator import Simulator
from repro.workloads.registry import REGISTRY
from repro.workloads.trace import record_trace

TRACE_DIR = pathlib.Path(__file__).parent / "data" / "traces"


def _cyclic_garbage(action) -> int:
    """Objects the cyclic GC would have to free after ``action()`` (run
    once before, uncounted, to warm lazy imports and caches)."""
    action()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _schedule(family: str = "mixed", seed: int = 5, length: int = 40):
    return make_schedule(family, random.Random(seed), length=length)


# -------------------------------------------------------- entry points


def test_run_differential_all_modes_leaves_no_cycles():
    schedule = _schedule()

    def action():
        report = run_differential(schedule, modes=list(ProtocolMode))
        assert not report.divergences

    assert _cyclic_garbage(action) == 0


def test_run_schedule_with_sanitizer_leaves_no_cycles():
    schedule = _schedule("shared")

    def action():
        assert run_schedule(schedule, sanitize=True).ok

    assert _cyclic_garbage(action) == 0


def test_scripted_chaos_case_leaves_no_cycles():
    schedule = _schedule("disjoint")
    plan = FaultPlan(script=(FaultEvent("dup_md", 0),
                             FaultEvent("pam_clear", 1),
                             FaultEvent("l1_evict", 2)))

    def action():
        report = run_chaos_case(schedule, plan=plan, differential=True)
        assert report.ok

    assert _cyclic_garbage(action) == 0


def test_replayed_mutation_hunt_leaves_no_cycles():
    """A hunt re-runs every attempt and shrink candidate on a freshly
    built machine."""

    def action():
        assert hunt_mutation_escape("merge-drop-granule", seed=0).caught

    assert _cyclic_garbage(action) == 0


def test_execute_spec_leaves_no_cycles():
    spec = RunSpec(tag="RC", mode=ProtocolMode.FSLITE, scale=0.05)

    def action():
        assert execute_spec(spec).cycles > 0

    assert _cyclic_garbage(action) == 0


def test_record_trace_leaves_no_cycles(tmp_path):
    spec = RunSpec(tag="RC", mode=ProtocolMode.FSLITE, scale=0.05)
    path = tmp_path / "rc.rtrace"

    def action():
        info, record = record_trace(spec, path)
        assert info.total_ops > 0 and record.cycles > 0

    assert _cyclic_garbage(action) == 0


def test_diff_trace_all_modes_leaves_no_cycles():
    path = TRACE_DIR / "RC_fsdetect.rtrace"

    def action():
        report = diff_trace(path)
        assert report.ok and set(report.modes_run) == set(ProtocolMode)

    assert _cyclic_garbage(action) == 0


def _reject(workload, image):
    raise WorkloadError("rejected")


@pytest.mark.parametrize("failure", ["event-cap", "verify"])
def test_failed_spec_run_leaves_no_cycles(failure, monkeypatch):
    """A run stopped by the event ceiling leaves events pending and
    completion callbacks parked in the L1s; a verify that raises leaves a
    finished machine.  Either way the runner closes the machine it
    built."""
    if failure == "event-cap":
        monkeypatch.setattr(Simulator, "DEFAULT_MAX_EVENTS", 500)
        error, match = SimulationError, "livelock suspected"
    else:
        monkeypatch.setattr(REGISTRY["RC"], "verify", _reject)
        error, match = WorkloadError, "rejected"
    spec = RunSpec(tag="RC", mode=ProtocolMode.FSLITE, scale=0.05)

    def action():
        with pytest.raises(error, match=match):
            execute_spec_with_machine(spec)

    assert _cyclic_garbage(action) == 0


# ---------------------------------------------------------- heap peak


def _spec_run_peak_bytes(scale: float, core_model: str) -> int:
    """Traced heap peak of a live RC spec run at ``scale``, its machine
    still open."""
    spec = RunSpec(tag="RC", scale=scale, core_model=core_model)
    tracemalloc.start()
    try:
        _, machine = execute_spec_with_machine(spec)
        machine.close()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("core_model", ["inorder", "ooo"])
def test_spec_run_keeps_no_send_history(core_model):
    """A spec run's cores keep nothing per op: its heap peak is flat in
    workload length."""
    _spec_run_peak_bytes(0.05, core_model)  # lazy imports, first-use caches
    short = _spec_run_peak_bytes(0.2, core_model)
    long = _spec_run_peak_bytes(0.8, core_model)
    assert long <= 1.1 * short, (
        f"peak {long / 2**20:.2f} MB at scale 0.8 vs "
        f"{short / 2**20:.2f} MB at scale 0.2")


# --------------------------------------------------------------- close


def test_close_is_idempotent_and_stops_sends():
    machine = build_machine(fuzz_config(4), ProtocolMode.FSLITE)
    machine.queue.schedule(5, print)
    machine.extras["note"] = object()
    machine.close()
    machine.close()
    assert machine.queue.empty()
    assert machine.extras == {}
    assert machine.network.fault_seam is None
    assert not machine.network.post_send_hooks
    with pytest.raises(SimulationError, match="no handler registered"):
        machine.network.send(Message(MessageType.GET, 0, 4, 0))


# ------------------------------------------------------------- dispatch

#: The type -> handler routing of each controller, pinned by name.
L1_ROUTES = {
    "DATA": "_on_data",
    "DATA_E": "_on_data",
    "DATA_PRV": "_on_data",
    "DATA_TO_REQ": "_on_data",
    "UPG_ACK": "_on_upg_ack",
    "UPG_ACK_PRV": "_on_upg_ack",
    "ACK_PRV": "_on_ack_prv",
    "INV": "_on_inv",
    "FWD_GET": "_on_fwd",
    "FWD_GETX": "_on_fwd",
    "TR_PRV": "_on_tr_prv",
    "INV_PRV": "_on_inv_prv",
    "RECALL": "_on_recall",
    "WB_ACK": "_on_wb_ack",
}
DIR_ROUTES = {
    "GET": "_on_request",
    "GETX": "_on_request",
    "UPGRADE": "_on_request",
    "GETCHK": "_on_request",
    "GETXCHK": "_on_request",
    "PUTM": "_on_putm",
    "INV_ACK": "_on_inv_ack",
    "DATA_WB": "_on_data_wb",
    "XFER_ACK": "_on_xfer_ack",
    "ACK_NO_DATA": "_on_ack_no_data",
    "REP_MD": "_on_rep_md",
    "PHANTOM_MD": "_on_phantom",
    "PRV_WB": "_on_prv_wb",
    "CTRL_WB": "_on_ctrl_wb",
}


def _routes(table, cls) -> dict:
    out = {}
    for mtype in MessageType:
        handler = table[mtype._value_]
        if handler is not None:
            assert handler is getattr(cls, handler.__name__)
            out[mtype.name] = handler.__name__
    return out


def test_dispatch_tables_route_every_type_as_pinned():
    assert len(l1_controller._L1_DISPATCH) == len(MessageType) + 1
    assert len(directory._DIR_DISPATCH) == len(MessageType) + 1
    assert _routes(l1_controller._L1_DISPATCH, L1Controller) == L1_ROUTES
    assert _routes(directory._DIR_DISPATCH, DirectorySlice) == DIR_ROUTES
    # Every message type has exactly one receiving controller kind.
    assert set(L1_ROUTES).isdisjoint(DIR_ROUTES)
    assert set(L1_ROUTES) | set(DIR_ROUTES) \
        == {mtype.name for mtype in MessageType}


def test_unhandled_type_raises_naming_the_node():
    machine = build_machine(fuzz_config(4), ProtocolMode.FSLITE)
    with pytest.raises(ProtocolError, match=r"^L1 2 cannot handle"):
        machine.l1s[2].handle_message(Message(MessageType.GET, 0, 2, 0))
    with pytest.raises(ProtocolError,
                       match=r"^directory node 5 cannot handle"):
        machine.slices[1].handle_message(
            Message(MessageType.INV, 4, 5, 0))
    machine.close()
