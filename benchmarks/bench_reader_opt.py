"""Section VI reader-metadata optimization.

Paper: replacing the full per-byte reader bit-vector with a last-reader +
overflow encoding shrinks a SAM entry from 769 to 577 bits (25%) while
privatizing exactly the same set of blocks in every application.
"""

import pytest

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_reader_opt(experiment_cache, record_result):
    result = experiment_cache("reader_opt", E.reader_opt, BENCH_SCALE)
    record_result("reader_opt", result)

    assert result.summary["sam_entry_bits_full"] == 769
    assert result.summary["sam_entry_bits_opt"] == 577
    assert result.summary["storage_saving"] == pytest.approx(0.25,
                                                             abs=0.005)
    # Same privatized-block counts, same performance.
    for app, full, opt, rel in result.rows:
        assert full == opt, (app, full, opt)
        assert 0.97 <= rel <= 1.03, (app, rel)
