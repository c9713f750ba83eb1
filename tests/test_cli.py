"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "RC" in out and "fig14" in out

    def test_run(self, capsys):
        assert main(["run", "ww", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_run_fslite_csv(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        assert main(["run", "ww", "--protocol", "fslite", "--scale", "0.1",
                     "--csv", str(path)]) == 0
        assert path.exists()

    def test_compare(self, capsys):
        assert main(["compare", "ww", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "fslite" in out and "manual-fix" in out

    def test_detect(self, capsys):
        assert main(["detect", "ww", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "false-sharing instance" in out

    def test_detect_contended(self, capsys):
        assert main(["detect", "ts", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "contended truly-shared" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "PAM" in out

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_ooo_core(self, capsys):
        assert main(["run", "ww", "--core", "ooo", "--scale", "0.1"]) == 0

    def test_profile(self, capsys, tmp_path):
        import pstats

        path = tmp_path / "ww.prof"
        assert main(["profile", "ww", "--scale", "0.1", "--top", "5",
                     "--sort", "tottime", "--stats-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^# ww mesi packed scale=0\.1 seed=0: \d+ cycles "
                         r"in \d+\.\d\ds wall$", out, re.M), out
        assert f"raw profile written to {path}" in out
        assert pstats.Stats(str(path)).total_calls > 0


class TestTraceCli:
    """The trace verbs: record a live workload, inspect the file, replay
    it through the engine — end to end through ``main``."""

    @pytest.fixture()
    def recorded(self, tmp_path, capsys):
        path = tmp_path / "ww.rtrace"
        assert main(["trace-record", "ww", "--scale", "0.1",
                     "--protocol", "fslite", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_trace_record(self, tmp_path, capsys):
        path = tmp_path / "t.rtrace"
        assert main(["trace-record", "ww", "--scale", "0.1",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert path.exists()
        assert "op(s)" in out and "trace" in out and "replay" in out

    def test_trace_info(self, recorded, capsys):
        assert main(["trace-info", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "threads" in out and "ww" in out and "fslite" in out

    def test_trace_info_quick_skips_scan(self, recorded, capsys):
        assert main(["trace-info", str(recorded), "--quick"]) == 0
        assert "threads" in capsys.readouterr().out

    def test_trace_run_replays_capture_mode(self, recorded, capsys):
        assert main(["trace-run", str(recorded), "--check"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "fslite" in out

    def test_trace_run_mode_override(self, recorded, capsys):
        assert main(["trace-run", str(recorded),
                     "--protocol", "mesi"]) == 0
        assert "mesi" in capsys.readouterr().out

    def test_trace_run_rejects_corrupt_file(self, recorded, capsys):
        blob = bytearray(recorded.read_bytes())
        blob[-10] ^= 0xFF
        bad = recorded.parent / "bad.rtrace"
        bad.write_bytes(bytes(blob))
        assert main(["trace-run", str(bad), "--check"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_info_rejects_garbage(self, tmp_path, capsys):
        junk = tmp_path / "junk.rtrace"
        junk.write_bytes(b"not a trace at all")
        assert main(["trace-info", str(junk)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["trace-info"], ["trace-info", "--quick"],
                                      ["trace-run", "--check"]],
                             ids=["info", "info-quick", "run-check"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_trace_is_an_error_line(self, tmp_path, capsys,
                                               argv, target):
        path = tmp_path / "t.rtrace"
        if target == "directory":
            path.mkdir()
        assert main([*argv, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "cannot read trace" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "ww", "--scale", "0.1", "--no-cache", "--csv"],
    ["run", "ww", "--scale", "0.1", "--no-cache", "--obs-out"],
    ["trace-record", "ww", "--scale", "0.1", "--out"],
], ids=["run-csv", "run-obs-out", "trace-record-out"])
def test_output_into_missing_directory_is_an_error_line(tmp_path, capsys,
                                                        argv):
    target = tmp_path / "missing" / "out"
    assert main([*argv, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ") and str(target) in err
