"""Tests for the command-line interface and ASCII figure rendering."""

import pytest

from repro.analysis.figures import render_bars, render_figure2
from repro.analysis.retention import FigureTwoRow, figure2_rows
from repro.cli import build_parser, main


class TestRenderBars:
    def test_basic_rendering(self):
        output = render_bars(["a", "bb"], [1.0, 2.0], width=10, unit=" d")
        lines = output.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ")
        assert lines[1].count("#") > lines[0].count("#")
        assert " d" in lines[0]

    def test_scaling_against_max_value(self):
        output = render_bars(["x"], [5.0], max_value=10.0, width=10)
        assert output.count("#") == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0], width=2)
        assert render_bars([], []) == ""

    def test_figure2_rendering_contains_every_volume(self):
        rows = figure2_rows(volumes=["hm", "src"])
        output = render_figure2(rows)
        assert "hm" in output and "src" in output
        assert "RSSD" in output and "LocalSSD" in output
        assert render_figure2([]) == ""


class TestCLI:
    def test_parser_knows_every_experiment(self):
        parser = build_parser()
        for command in (
            "table1",
            "figure2",
            "overhead",
            "lifetime",
            "recovery",
            "forensics",
            "ablation-offload",
            "ablation-trim",
            "ablation-detection",
        ):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure2_command_prints_table(self, capsys):
        assert main(["figure2", "--volumes", "hm", "src"]) == 0
        output = capsys.readouterr().out
        assert "hm" in output and "src" in output
        assert "RSSD" in output

    def test_figure2_bars_mode(self, capsys):
        assert main(["figure2", "--volumes", "hm", "--bars"]) == 0
        assert "#" in capsys.readouterr().out

    def test_table1_subset_command(self, capsys):
        assert main(["table1", "--defenses", "LocalSSD", "RSSD"]) == 0
        output = capsys.readouterr().out
        assert "RSSD" in output and "LocalSSD" in output
        assert "Forensics" in output

    def test_table1_output_is_pinned(self, capsys):
        """Every defense row at the CLI defaults renders byte for byte."""
        assert main(["table1"]) == 0
        assert capsys.readouterr().out == (
            "Defense        GC  Timing  Trimming  Recovery  Forensics\n"
            "--------------------------------------------------------\n"
            "LocalSSD        ✗       ✗         ✗         ❍          ✗\n"
            "Unveil          ✗       ✗         ✗         ❍          ✗\n"
            "CryptoDrop      ✗       ✗         ✗         ❍          ✗\n"
            "CloudBackup     ✗       ✔         ✗         ◗          ✗\n"
            "ShieldFS        ✗       ✗         ✗         ◗          ✗\n"
            "JFS             ✗       ✗         ✗         ◗          ✗\n"
            "FlashGuard      ✔       ✗         ✗         ◗          ✗\n"
            "TimeSSD         ✔       ✗         ✗         ◗          ✗\n"
            "SSDInsider      ✗       ✗         ✗         ◗          ✗\n"
            "RBlocker        ✗       ✗         ✗         ◗          ✗\n"
            "RSSD            ✔       ✔         ✔         ●          ✔\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--defense", "Nope"],
            ["campaign", "--defenses", "Nope"],
            ["roc", "--defenses", "Nope"],
            ["table1", "--defenses", "Nope"],
        ],
    )
    def test_unknown_registry_name_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value.code).startswith("error: unknown defenses ['Nope']")

    def test_table1_refuses_a_repeated_defense(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--defenses", "RSSD", "RSSD"])
        assert excinfo.value.code == "error: repeated defenses name 'RSSD'; each may appear once"

    def test_usage_error_exits_1_without_a_traceback(self):
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "table1", "--defenses", "Nope"],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith("error: unknown defenses ['Nope']")
        assert "Traceback" not in completed.stderr

    def test_ablation_trim_command(self, capsys):
        assert main(["ablation-trim"]) == 0
        output = capsys.readouterr().out
        assert "enhanced" in output and "naive" in output
