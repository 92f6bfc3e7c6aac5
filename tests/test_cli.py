"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.core import profiling
from repro.experiments import PAPER_HEADLINE_GAINS


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("baseline", "figure1", "figure2", "ablations", "synth"):
            args = parser.parse_args([command] if command != "synth" else ["synth"])
            assert args.command == command

    def test_campaign_subcommand_registered(self):
        parser = build_parser()
        args = parser.parse_args(["campaign", "status", "--out", "somewhere"])
        assert args.command == "campaign"
        assert args.campaign_command == "status"

    def test_unknown_dataset_exits_cleanly(self, capsys):
        # A bogus dataset name must produce a clean error, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["baseline", "--dataset", "not-a-dataset", "--fast"])
        assert "not-a-dataset" in str(excinfo.value)

    def test_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["figure2"])
        assert args.dataset == "whitewine"
        assert args.population == 16
        assert args.workers == 1
        args = parser.parse_args(["figure2", "--workers", "4"])
        assert args.workers == 4
        args = parser.parse_args(["figure1"])
        assert args.dataset == "all"
        args = parser.parse_args(["synth", "--weight-bits", "4"])
        assert args.weight_bits == 4

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_removed_backend_flag_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure2", "--backend", "numpy"])
        assert excinfo.value.code != 0
        assert "--backend" in capsys.readouterr().err


class TestCommands:
    """End-to-end CLI runs with the smallest usable settings (seeds + --fast)."""

    def test_baseline_command(self, capsys):
        exit_code = main(["baseline", "--dataset", "seeds", "--fast"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "seeds" in output
        assert "mm^2" in output

    def test_figure1_command_with_export_and_plot(self, capsys, tmp_path):
        exit_code = main(
            [
                "figure1",
                "--dataset",
                "seeds",
                "--fast",
                "--plot",
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "norm_area" in output
        assert "normalized area" in output            # the ASCII plot legend
        assert (tmp_path / "out" / "seeds_sweep.json").exists()
        assert (tmp_path / "out" / "seeds_points.csv").exists()

    def test_figure1_prints_the_measured_averages_next_to_the_paper(self, capsys):
        assert main(["figure1", "--dataset", "seeds", "--fast"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # The gains table comes last, after the sweep table.
        start = max(i for i, line in enumerate(lines) if line.startswith("dataset "))
        table = [line.split() for line in lines[start:]]
        assert table[0] == ["dataset", "clustering", "pruning", "quantization"]
        labels = [row[0] for row in table[2:]]
        assert labels == ["seeds", "(average)", "(paper)"]
        # Over one dataset, the average is that dataset's own gain.
        assert table[3][1:] == table[2][1:]
        assert table[4][1:] == [
            f"{PAPER_HEADLINE_GAINS[technique]:.1f}x" for technique in table[0][1:]
        ]

    def test_figure2_command_small_ga(self, capsys):
        exit_code = main(
            [
                "figure2",
                "--dataset",
                "seeds",
                "--fast",
                "--population",
                "4",
                "--generations",
                "1",
                "--finetune-epochs",
                "1",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "combined" in output

    def test_figure2_profile_prints_stage_rows(self, capsys):
        exit_code = main(
            [
                "figure2",
                "--dataset",
                "seeds",
                "--fast",
                "--population",
                "4",
                "--generations",
                "1",
                "--finetune-epochs",
                "1",
                "--profile",
            ]
        )
        assert exit_code == 0
        report = capsys.readouterr().out.split("\nstage ")[-1]
        rows = {line.split()[0]: line.split()[1:] for line in report.splitlines()[1:]}
        for stage in ("train_baseline", "ga_evaluate", "evaluate_population_stacked", "synthesize"):
            assert int(rows[stage][0]) >= 1, stage
        assert not profiling.is_enabled()

    def test_figure2_fault_flags(self, capsys):
        exit_code = main(
            [
                "figure2",
                "--dataset",
                "seeds",
                "--fast",
                "--population",
                "4",
                "--generations",
                "1",
                "--finetune-epochs",
                "1",
                "--fault-rate",
                "0.1",
                "--fault-trials",
                "3",
                "--fault-model",
                "short",
            ]
        )
        assert exit_code == 0
        assert "combined" in capsys.readouterr().out

    def test_fault_flag_validation(self):
        parser = build_parser()
        args = parser.parse_args(["figure2"])
        assert args.fault_rate == 0.0 and args.fault_trials == 0
        assert args.fault_model == "open"
        args = parser.parse_args(
            ["figure2", "--fault-rate", "0.05", "--fault-trials", "8"]
        )
        assert args.fault_rate == 0.05 and args.fault_trials == 8
        with pytest.raises(SystemExit):
            parser.parse_args(["figure2", "--fault-rate", "1.5"])
        with pytest.raises(SystemExit):
            parser.parse_args(["figure2", "--fault-trials", "-2"])
        with pytest.raises(SystemExit):
            parser.parse_args(["figure2", "--fault-model", "bridging"])

    def test_synth_command_with_verilog(self, capsys, tmp_path):
        verilog_path = tmp_path / "seeds.v"
        exit_code = main(
            [
                "synth",
                "--dataset",
                "seeds",
                "--fast",
                "--weight-bits",
                "4",
                "--finetune-epochs",
                "2",
                "--verilog",
                str(verilog_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Normalized area" in output
        assert "agreement" in output
        assert verilog_path.exists()
        assert "module seeds_mlp" in verilog_path.read_text()

    def test_synth_command_without_quantization(self, capsys):
        exit_code = main(["synth", "--dataset", "seeds", "--fast"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "test accuracy" in output
