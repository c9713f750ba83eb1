"""The sanitizer's periodic sweep rides on message deliveries.

The event kernel has one drain loop: attaching the sanitizer leaves
:meth:`EventQueue.step` and :meth:`EventQueue.drain` untouched, and the
sweep (transient-age and counter bounds) runs from the sanitizer's own
``on_deliver`` hook every ``sweep_interval`` deliveries.
"""

import random

import pytest

from repro.check import InvariantViolation, Sanitizer
from repro.check.fuzz import make_schedule, run_schedule
from repro.common.config import SanitizerConfig
from repro.common.events import EventQueue
from repro.system.builder import build_machine
from repro.system.simulator import Simulator

from _helpers import small_config
from test_sanitizer import MODES, contended_programs


def sanitized_machine(mode, sanitizer_config):
    machine = build_machine(small_config(), mode)
    machine.attach_programs(contended_programs())
    return machine, Sanitizer(machine, sanitizer_config).attach()


@pytest.mark.parametrize("mode", MODES)
def test_sanitized_run_never_steps_the_queue(mode, monkeypatch):
    def no_step(self):
        raise AssertionError("a sanitized run stepped the event queue")

    monkeypatch.setattr(EventQueue, "step", no_step)
    schedule = make_schedule("mixed", random.Random(5), length=40)
    report = run_schedule(schedule, mode=mode)
    assert report.ok, report.failure.describe()
    assert report.blocks_checked > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("interval", [1, 7, 64])
def test_one_sweep_per_interval_of_deliveries(mode, interval):
    machine, sanitizer = sanitized_machine(
        mode, SanitizerConfig(sweep_interval=interval))
    Simulator(machine).run()
    sanitizer.detach()
    delivered = machine.network.stats.total_messages
    assert delivered > 64
    assert sanitizer.sweeps == delivered // interval


@pytest.mark.parametrize("mode", MODES)
def test_sweeps_still_bound_transient_age(mode):
    machine, sanitizer = sanitized_machine(
        mode, SanitizerConfig(busy_age_limit=1, sweep_interval=1))
    with pytest.raises(InvariantViolation) as exc_info:
        Simulator(machine).run()
    sanitizer.detach()
    assert exc_info.value.invariant == "transient-age"
