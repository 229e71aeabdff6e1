"""``python -m repro.resilience`` command-line behaviour."""

import pytest

from repro.resilience.cli import main


class TestList:
    def test_lists_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "message_loss", "partition", "crash"):
            assert name in out

    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestRun:
    def test_run_writes_deterministic_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        argv = [
            "run", "--seed", "42", "--trials", "1",
            "--campaign", "baseline", "--out", str(out_path),
        ]
        assert main(argv) == 0
        first_stdout = capsys.readouterr().out
        first_file = out_path.read_bytes()
        assert first_stdout.encode() == first_file

        assert main(argv) == 0
        second_stdout = capsys.readouterr().out
        assert second_stdout == first_stdout
        assert out_path.read_bytes() == first_file

    def test_run_selects_campaigns(self, capsys):
        assert main(
            ["run", "--trials", "1", "--campaign", "baseline",
             "--campaign", "partition"]
        ) == 0
        out = capsys.readouterr().out
        assert '"baseline"' in out
        assert '"partition"' in out
        assert '"message_loss"' not in out

    def test_unknown_campaign_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--campaign", "no_such_thing"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["run", "--campaign", "no_such_thing"], ["run", "--dump-dir", "dumps"]],
    )
    def test_run_usage_error_names_the_subcommand(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: python -m repro.resilience run "), lines
        assert lines[-1].startswith("python -m repro.resilience run: error: "), lines
