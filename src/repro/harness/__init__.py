"""Experiment harness: per-figure drivers reproducing the paper's results.

The execution core is :class:`~repro.harness.engine.Engine`: build
:class:`~repro.harness.runner.RunSpec` batches, submit them with
``engine.run_many(specs)``, and get deduped, cached, optionally
process-parallel :class:`~repro.harness.runner.RunRecord`\\ s back; a
failed spec is retried once before the batch raises
:class:`~repro.harness.engine.EngineError`.  ``run_workload`` remains as a
serial compatibility shim.
"""

from repro.harness import experiments
from repro.harness.baselines import (
    apply_huron_discount,
    huron_spec,
    manual_fix_spec,
    run_huron,
    run_manual_fix,
)
from repro.harness.engine import Engine, EngineError, default_cache_dir
from repro.harness.export import (
    flatten_record,
    record_from_dict,
    record_to_dict,
    records_from_json,
    records_to_csv,
    records_to_json,
)
from repro.harness.runner import RunRecord, RunSpec, execute_spec, run_workload
from repro.harness.tables import format_table, geomean

__all__ = [
    "experiments",
    "apply_huron_discount",
    "huron_spec",
    "manual_fix_spec",
    "run_huron",
    "run_manual_fix",
    "Engine",
    "EngineError",
    "default_cache_dir",
    "flatten_record",
    "record_from_dict",
    "record_to_dict",
    "records_from_json",
    "records_to_csv",
    "records_to_json",
    "RunRecord",
    "RunSpec",
    "execute_spec",
    "run_workload",
    "format_table",
    "geomean",
]
