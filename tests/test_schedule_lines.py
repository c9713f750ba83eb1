"""Schedule lines must stay below the L1's set count.

An evict's pressure loads for line L read lines L + k * num_sets (k >= 1),
all expected to hold zero.  A schedule line at or past ``num_sets`` can be
one of them, and its stored bytes would then fail the pressure load's
assertion: a false finding.  ``schedule_to_ops`` rejects such a schedule.
"""

import pytest

from repro.check.fuzz import FuzzOp, fuzz_config, run_schedule, schedule_to_ops
from repro.cli import main
from repro.coherence.states import ProtocolMode
from repro.common.errors import ConfigError

NUM_SETS = fuzz_config().l1.num_sets


def store_then_evict(line):
    return [FuzzOp(0, "store", line, 0, 8, 0xabc), FuzzOp(0, "evict", 0)]


@pytest.mark.parametrize("mode", list(ProtocolMode))
def test_line_past_the_l1_sets_is_rejected(mode):
    with pytest.raises(ConfigError, match=f"below the L1's {NUM_SETS} sets"):
        run_schedule(store_then_evict(NUM_SETS), mode=mode)


@pytest.mark.parametrize("mode", list(ProtocolMode))
def test_last_line_below_the_l1_sets_runs(mode):
    report = run_schedule(store_then_evict(NUM_SETS - 1), mode=mode)
    assert report.ok, report.failure.describe()


def test_translation_names_the_limit():
    with pytest.raises(ConfigError, match=f"line {NUM_SETS} "):
        schedule_to_ops([FuzzOp(1, "load", NUM_SETS)], 4, fuzz_config())


@pytest.mark.parametrize("verb", ["fuzz", "diff", "chaos"])
def test_campaign_with_too_many_lines_is_a_usage_error(verb, capsys):
    assert main([verb, "--lines", str(NUM_SETS + 1), "--iterations", "1",
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert f"below the L1's {NUM_SETS} sets" in err
