"""Unit tests for the online protocol sanitizer."""

import pytest

from repro.check import InvariantViolation, Sanitizer, mutation_context
from repro.check.fuzz import fuzz_config, make_schedule, run_schedule
from repro.coherence.states import ProtocolMode
from repro.common.config import SystemConfig
from repro.cpu.ops import compute, fetch_add, load, store
from repro.harness.runner import RunSpec, execute_spec

from _helpers import run_programs, small_config

import random

MODES = [ProtocolMode.MESI, ProtocolMode.FSDETECT, ProtocolMode.FSLITE]


def contended_programs(num_threads=4, iters=60):
    line = 0x40000

    def worker(tid):
        def prog():
            for i in range(iters):
                yield store(line + 8 * tid, i + 1, size=8)
                got = yield load(line + 8 * tid, size=8)
                assert got == i + 1
                if i % 7 == 0:
                    yield fetch_add(line + 32, 1, size=8)
                yield compute(1 + (tid + i) % 3)
        return prog()

    return [worker(t) for t in range(num_threads)]


@pytest.mark.parametrize("mode", MODES)
def test_sanitizer_clean_on_contended_line(mode):
    result, machine = run_programs(contended_programs(), mode=mode,
                                   sanitize=True)
    assert result.cycles > 0


def test_sanitizer_checks_and_detaches():
    config = small_config().with_sanitizer(sweep_interval=256)
    from repro.system.builder import build_machine

    machine = build_machine(config, ProtocolMode.FSLITE)
    machine.attach_programs(contended_programs())
    sanitizer = Sanitizer(machine).attach()
    from repro.system.simulator import Simulator

    Simulator(machine).run()
    sanitizer.check_all()
    sanitizer.detach()
    assert sanitizer.blocks_checked > 0
    assert sanitizer.sweeps > 0
    assert not machine.network.post_send_hooks
    assert not machine.network.post_deliver_hooks


def test_violation_carries_structured_context():
    schedule = make_schedule("mixed", random.Random(7), length=60)
    config = fuzz_config()
    with mutation_context("pam-reads-count-as-writes"):
        from repro.system.builder import build_machine

        machine = build_machine(config, ProtocolMode.FSLITE)
        from repro.check.fuzz import _thread_programs, schedule_to_ops

        flat, _ = schedule_to_ops(schedule, 4, config)
        machine.attach_programs(programs=_thread_programs(flat, 4))
        sanitizer = Sanitizer(machine).attach()
        from repro.system.simulator import Simulator

        with pytest.raises(InvariantViolation) as exc_info:
            Simulator(machine).run()
            sanitizer.check_all()
        sanitizer.detach()
    violation = exc_info.value
    assert violation.invariant == "prv-pam"
    assert violation.block_addr % config.block_size == 0
    assert violation.cycle > 0
    assert violation.dir_state is not None
    # Only cores actually holding a copy of the block appear.
    assert violation.l1_states
    assert violation.trace, "violation should carry a trace window"
    assert f"{violation.block_addr:#x}" in str(violation)


def test_counter_bounds_checked_by_sweep():
    # One thread re-fetching a line it keeps evicting: FC grows with every
    # Get while IC stays 0, so neither the tau_p nor (with periodic resets
    # off) the tau_r paths ever clear the counters — only the saturation
    # reset does, and the mutation removes it.
    from repro.check.fuzz import FuzzOp

    schedule = []
    for _ in range(150):
        schedule.append(FuzzOp(0, "load", line=0, offset=0, size=8))
        schedule.append(FuzzOp(0, "evict", line=0))
    config = fuzz_config().with_protocol(use_metadata_reset=False)
    report = run_schedule(schedule, mode=ProtocolMode.FSLITE, config=config,
                          mutation="counters-never-saturate")
    assert not report.ok
    assert report.failure.stage == "invariant"
    assert "counter-bounds" in report.failure.detail
    # The same schedule is clean without the mutation.
    assert run_schedule(schedule, mode=ProtocolMode.FSLITE,
                        config=config).ok


def test_harness_runs_sanitized_specs():
    spec = RunSpec(tag="ww", mode=ProtocolMode.FSLITE,
                   config=SystemConfig().with_sanitizer(), scale=0.5)
    record = execute_spec(spec)
    assert record.cycles > 0
    assert record.extra["sanitizer_blocks_checked"] > 0
    # The sanitizer config is part of the spec identity: a sanitized and an
    # unsanitized run must never share a cache slot.
    plain = RunSpec(tag="ww", mode=ProtocolMode.FSLITE, scale=0.5)
    assert spec.digest() != plain.digest()
