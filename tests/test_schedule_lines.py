"""Schedule shapes the fuzz machine cannot model are usage errors.

An evict's pressure loads for line L read lines L + k * num_sets (k >= 1),
all expected to hold zero.  A schedule line at or past ``num_sets`` can be
one of them, and its stored bytes would then fail the pressure load's
assertion: a false finding.  ``schedule_to_ops`` rejects such a schedule.

Likewise a ninth thread's private slot is offset 64 of its line, i.e. a
word of the next line, which thread 0 owns (another false finding), and a
schedule over zero lines, or a shared schedule with no shared word left,
cannot be generated at all.  Each is a ``ConfigError``, which the CLI
prints as ``repro: error:``.
"""

import random

import pytest

from repro.check.fuzz import (
    FuzzOp,
    fuzz_config,
    make_schedule,
    run_schedule,
    schedule_to_ops,
)
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


@pytest.mark.parametrize("mode", list(ProtocolMode))
def test_more_threads_than_line_slots_is_rejected(mode):
    schedule = [FuzzOp(8, "store", 0, 64, 8, 0xabc)]
    with pytest.raises(ConfigError, match="at most 8 threads"):
        run_schedule(schedule, mode=mode, num_threads=9)


@pytest.mark.parametrize("family", ["disjoint", "shared", "mixed"])
def test_zero_lines_is_rejected(family):
    with pytest.raises(ConfigError, match="at least one line"):
        make_schedule(family, random.Random(0), num_lines=0)


@pytest.mark.parametrize("family", ["shared", "mixed"])
def test_shared_schedule_without_a_shared_word_is_rejected(family):
    with pytest.raises(ConfigError, match="need a shared word"):
        make_schedule(family, random.Random(0), num_threads=8)


@pytest.mark.parametrize("verb", ["fuzz", "diff", "chaos"])
@pytest.mark.parametrize("args", [["--lines", "0"], ["--threads", "9"]],
                         ids=["lines0", "threads9"])
def test_campaign_with_unmodelled_shape_is_a_usage_error(verb, args,
                                                         capsys):
    assert main([verb, *args, "--iterations", "1", "--no-shrink",
                 "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("repro: error:")


def test_shared_family_with_eight_threads_is_a_usage_error(capsys):
    assert main(["fuzz", "--threads", "8", "--family", "shared",
                 "--iterations", "1", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("repro: error:")
