"""The ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.__main__ import main

SPEC = Path(__file__).resolve().parent.parent / "scenarios" / "figure4_sweep.yaml"


class TestCli:
    def test_measure(self, capsys):
        assert main(["measure", "--os", "win98", "--workload", "idle",
                     "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "samples at" in out
        assert "Max/Wk" in out

    def test_compare(self, capsys):
        assert main(["compare", "--workload", "idle", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "Win98 DPC / NT DPC" in out

    def test_mttf(self, capsys):
        assert main(["mttf", "--workload", "idle", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Figure 7" in out

    def test_causes(self, capsys):
        assert main(["causes", "--workload", "games", "--duration", "5",
                     "--threshold", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "episode" in out or "No latency episodes" in out

    def test_throughput(self, capsys):
        assert main(["throughput", "--units", "40"]) == 0
        out = capsys.readouterr().out
        assert "Winstone-style scores" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_os_rejected(self):
        with pytest.raises(SystemExit):
            main(["measure", "--os", "beos"])

    def test_win2k_accepted(self, capsys):
        assert main(["measure", "--os", "win2k", "--workload", "idle",
                     "--duration", "2"]) == 0


class TestFlagValidation:
    """Invalid flag values exit 2 with a one-line error, never a traceback."""

    def _assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_negative_duration_exits_2(self, capsys):
        assert main(["measure", "--duration", "-5"]) == 2
        self._assert_one_line_error(capsys)

    def test_zero_duration_exits_2(self, capsys):
        assert main(["mttf", "--duration", "0"]) == 2
        self._assert_one_line_error(capsys)

    def test_zero_jobs_exits_2(self, capsys):
        assert main(["compare", "--workload", "idle", "--duration", "2",
                     "--jobs", "0"]) == 2
        self._assert_one_line_error(capsys)

    def test_zero_units_exits_2(self, capsys):
        assert main(["throughput", "--units", "0"]) == 2
        self._assert_one_line_error(capsys)

    def test_negative_threshold_exits_2(self, capsys):
        assert main(["causes", "--threshold", "-1", "--duration", "2"]) == 2
        self._assert_one_line_error(capsys)

    def test_bad_serve_queue_limit_exits_2(self, capsys):
        assert main(["serve", "--queue-limit", "0"]) == 2
        self._assert_one_line_error(capsys)

    def test_bad_submit_deadline_exits_2(self, capsys):
        assert main(["submit", "--port", "7998", "--deadline", "-1"]) == 2
        self._assert_one_line_error(capsys)

    def test_out_of_range_port_exits_2(self, capsys):
        assert main(["serve", "--port", "70000"]) == 2
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["submit", "--router", "127.0.0.1:abc"],
        ["run-scenario", str(SPEC), "--router", "127.0.0.1:99999"],
    ], ids=["submit-port-abc", "run-scenario-port-99999"])
    def test_malformed_router_exits_2_naming_it(self, argv, capsys):
        assert main(argv) == 2
        assert self._assert_one_line_error(capsys).startswith("repro: error: --router")

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out
