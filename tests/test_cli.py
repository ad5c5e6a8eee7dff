"""CLI tests (`python -m repro`)."""

import pytest

from repro.harness.cli import ALL_NAMES, build_parser, main


class TestParser:
    def test_all_artifact_names_accepted(self):
        parser = build_parser()
        for name in ALL_NAMES + ["all", "list"]:
            args = parser.parse_args([name])
            assert args.artifact == name

    def test_unknown_artifact_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig12"])
        assert args.scale == "small"
        assert args.sms == 4
        assert args.apps is None
        assert args.jobs is None
        assert args.no_cache is False
        assert args.op is None

    def test_jobs_and_cache_flags(self):
        args = build_parser().parse_args(
            ["fig12", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.no_cache is True

    def test_cache_artifact(self):
        args = build_parser().parse_args(["cache", "clear"])
        assert args.artifact == "cache"
        assert args.op == "clear"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "frobnicate"])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "tab3" in out

    def test_sec56_runs(self, capsys):
        assert main(["sec56", "--scale", "tiny", "--sms", "2"]) == 0
        out = capsys.readouterr().out
        assert "register usage" in out
        assert "STC" in out

    def test_suite_figure_with_restricted_apps(self, capsys):
        assert main(
            ["fig12", "--scale", "tiny", "--sms", "2",
             "--apps", "NN", "BP"]
        ) == 0
        out = capsys.readouterr().out
        assert "NN" in out and "BP" in out
        assert "R2D2" in out

    def test_cached_rerun_is_byte_identical(self, capsys):
        argv = ["fig13", "--scale", "tiny", "--sms", "2",
                "--apps", "NN", "BP"]
        assert main(argv) == 0  # cold: populates the cache
        first = capsys.readouterr().out
        assert main(argv) == 0  # warm: served from the cache
        second = capsys.readouterr().out
        assert first == second

    def test_jobs_flag_matches_serial_output(self, capsys):
        argv = ["fig12", "--scale", "tiny", "--sms", "2",
                "--apps", "NN", "BP", "--no-cache"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_cache_stats_and_clear(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cache root" in out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache"]) == 0  # default op is stats
        assert "entries" in capsys.readouterr().out

    def test_bad_verify_switch_is_one_line_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("R2D2_VERIFY", "yes")
        assert main(["fig13", "--scale", "tiny", "--sms", "2",
                     "--no-cache", "--apps", "BP"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "R2D2_VERIFY" in lines[0]
