"""Small-scale pin of every paper figure/table driver.

``tests/data/experiment_tables.json`` holds, for each driver in
:mod:`repro.harness.experiments` run at scale 0.02 on one serial engine,
the lines of its ``render()`` text (rows, footer, summary and the
``cycles=`` checksum), its rows as JSON (the rounded cells the benchmarks
assert on, before ``format_table`` prints them at two decimals, so a
changed rounding digit count shows) and the sorted set of its specs'
``RunSpec.digest()``.
It is the small-scale twin of the scale-1.0 tables under
``benchmarks/results/``: a refactor of the table assembly that moves one
printed cell, summary value or spec fails here in seconds.

Raw summary floats are not pinned: the geomeans go through libm
``exp``/``log``, so only their printed (rounded) values are.

Regenerate (only when a table is meant to change)::

    PYTHONPATH=src python tests/test_experiment_tables.py
"""

import json
import pathlib

import pytest

from repro.harness import experiments as E
from repro.harness.engine import Engine

PIN_PATH = pathlib.Path(__file__).parent / "data" / "experiment_tables.json"
SCALE = 0.02

#: Driver name -> call at ``SCALE`` on ``engine``.
DRIVERS = {
    "fig02_manual_fix": lambda e: E.fig02_manual_fix(SCALE, engine=e),
    "fig13_miss_fraction": lambda e: E.fig13_miss_fraction(SCALE, engine=e),
    "fig14_speedup_energy":
        lambda e: E.fig14_speedup_energy(SCALE, engine=e),
    "fig15_no_fs": lambda e: E.fig15_no_fs(SCALE, engine=e),
    "fig16_tau_p": lambda e: E.fig16_tau_p(SCALE, engine=e),
    "fig17_huron": lambda e: E.fig17_huron(SCALE, engine=e),
    "traffic_reduction": lambda e: E.traffic_reduction(SCALE, engine=e),
    "sam_size": lambda e: E.sam_size(SCALE, engine=e),
    "reader_opt": lambda e: E.reader_opt(SCALE, engine=e),
    "granularity": lambda e: E.granularity(SCALE, engine=e),
    "big_l1d": lambda e: E.big_l1d(SCALE, engine=e),
    "ooo": lambda e: E.ooo(SCALE, engine=e),
    "ablation_hysteresis":
        lambda e: E.ablation("hysteresis", SCALE, engine=e),
    "ablation_metadata_reset":
        lambda e: E.ablation("metadata_reset", SCALE, engine=e),
    "table2_overheads": lambda e: E.table2_overheads(),
}


def _pin(result: E.ExperimentResult) -> dict:
    return {"render": result.render().splitlines(),
            "rows": [json.dumps(row) for row in result.rows],
            "digests": sorted({spec.digest() for spec in result.specs})}


def compute_pins() -> dict:
    engine = Engine()
    return {name: _pin(call(engine)) for name, call in DRIVERS.items()}


@pytest.fixture(scope="module")
def pins():
    return compute_pins()


def test_pin_file_covers_every_driver():
    assert sorted(json.loads(PIN_PATH.read_text())) == sorted(DRIVERS)


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_table_and_specs_are_pinned(pins, name):
    want = json.loads(PIN_PATH.read_text())[name]
    got = pins[name]
    assert got["render"] == want["render"], "\n".join(got["render"])
    assert got["rows"] == want["rows"]
    assert got["digests"] == want["digests"]


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(compute_pins(), indent=1) + "\n")
    print(f"wrote {PIN_PATH}")
