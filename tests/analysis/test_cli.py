"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "099.go" in out
        assert "146.wave5" in out

    def test_params(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "Decode 4 instructions per cycle." in out

    def test_run(self, capsys):
        assert main(["run", "compress", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "cycle-exact: yes" in out
        assert "memoization speedup" in out

    def test_run_requires_workload(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_table2_subset(self, capsys):
        assert main(["table2", "--workloads", "mgrid", "--scale", "tiny",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "107.mgrid" in out

    def test_table4_subset(self, capsys):
        assert main(["table4", "--workloads", "compress", "--scale", "tiny",
                     "--quiet"]) == 0
        assert "Detailed/Total" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--workloads", "quake"])

    def test_figure7_subset(self, capsys):
        assert main(["figure7", "--workloads", "mgrid", "--scale", "tiny",
                     "--quiet"]) == 0
        assert "Figure 7" in capsys.readouterr().out


class TestTableCommands:
    """The table commands are ``run_campaign`` + rows + render: stdout
    carries the table, the pool options mean what they mean for
    ``campaign``."""

    ARGV = ["table4", "--scale", "tiny", "--workloads", "compress,mgrid"]

    def test_progress_goes_to_stderr(self, capsys):
        assert main(self.ARGV) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("Table 4:")
        assert "compress:fast:tiny" not in captured.out
        assert "job-ok compress:fast:tiny" in captured.err

    def test_quiet_prints_only_the_table(self, capsys):
        assert main(self.ARGV + ["--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("Table 4:")
        assert captured.err == ""

    def test_rejected_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table4", "--workers", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error: workers must be >= 0" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_timeout_applies_to_a_single_job(self, capsys):
        with pytest.raises(RuntimeError, match="compress:fast:tiny: timed"):
            main(["table4", "--scale", "tiny", "--workloads", "compress",
                  "--workers", "2", "--timeout", "0.0001",
                  "--retries", "0", "--quiet"])
        assert "Table 4" not in capsys.readouterr().out

    def test_failure_after_start_propagates(self, monkeypatch):
        import repro.api

        def explode(**options):
            raise RuntimeError("mid-campaign")

        monkeypatch.setattr(repro.api, "run_campaign", explode)
        with pytest.raises(RuntimeError, match="mid-campaign"):
            main(self.ARGV + ["--quiet"])
