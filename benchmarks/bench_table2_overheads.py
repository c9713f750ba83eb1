"""Table II: storage and area overheads of the added structures.

Paper: PAM 8 KB per L1D (129-bit entries), SAM 12.7 KB per LLC slice
(9.7 KB with the reader optimization), 76 KB directory extension per
slice (19 bits/entry for 8 cores), total <5% of the hierarchy's capacity.
"""

import pytest

from repro.harness import experiments as E

from _bench_common import BENCH_SCALE


def test_table2_overheads(experiment_cache, record_result):
    result = experiment_cache("table2", E.table2_overheads)
    record_result("table2_overheads", result)
    values = dict(zip(result.column("structure"), result.column("value")))

    assert values["PAM table per L1D (KB)"] == pytest.approx(8.06, abs=0.01)
    assert values["SAM table per slice (KB)"] == pytest.approx(12.7,
                                                               abs=0.1)
    assert values["SAM per slice w/ reader opt (KB)"] == pytest.approx(
        9.7, abs=0.1)
    assert values["Directory extension per slice (KB)"] == pytest.approx(
        76.0, abs=0.5)
    assert result.summary["overhead_fraction"] < 0.05
