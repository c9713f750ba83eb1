"""Tests for CSV export."""

import csv
import io

from repro.coherence.states import ProtocolMode
from repro.harness.export import flatten_record, records_to_csv
from repro.harness.runner import run_workload

SCALE = 0.1


class TestExport:
    def test_flatten_has_core_fields(self):
        rec = run_workload("ww", scale=SCALE)
        row = flatten_record(rec)
        assert row["tag"] == "ww"
        assert row["protocol"] == "mesi"
        assert row["cycles"] == rec.cycles
        assert "term_conflict" in row

    def test_records_to_csv_roundtrip(self):
        recs = [run_workload("ww", scale=SCALE),
                run_workload("ww", ProtocolMode.FSLITE, scale=SCALE)]
        text = records_to_csv(recs)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["protocol"] == "mesi"
        assert rows[1]["protocol"] == "fslite"
        assert int(rows[1]["privatizations"]) >= 1

    def test_records_to_csv_writes_file(self, tmp_path):
        path = tmp_path / "out.csv"
        records_to_csv([run_workload("ww", scale=SCALE)], str(path))
        assert path.exists()
        assert "cycles" in path.read_text()

    def test_empty_records(self):
        assert records_to_csv([]) == ""
