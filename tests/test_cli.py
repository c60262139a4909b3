"""Tests for the command-line experiment runner."""

import pytest

import repro.cli
from repro.cli import EXPERIMENTS, build_parser, main
from repro.experiments import TableResult


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.experiment == "table2"
        assert not args.fast
        assert args.pretrain_steps == 400

    def test_flags(self):
        args = build_parser().parse_args(
            ["fig5", "--fast", "--pretrain-steps", "10", "--no-disk-cache"])
        assert args.fast
        assert args.pretrain_steps == 10
        assert args.no_disk_cache


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_is_sorted(self, capsys):
        main(["list"])
        lines = [line.split()[0] for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert lines == sorted(lines)

    def test_unknown_experiment(self, capsys):
        assert main(["table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["serve-bench-sharded", "--fast"],
                                      ["bench"]],
                             ids=["serve-bench-sharded", "bench"])
    def test_retired_sharded_bench_is_unknown(self, argv, capsys):
        assert argv[0] not in EXPERIMENTS
        assert main(argv) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_list_names_no_bench_harness(self, capsys):
        main(["list"])
        lines = [line.split()[0] for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert not [name for name in lines if name.startswith("bench")]

    def test_runs_table2_fast(self, capsys):
        code = main(["table2", "--fast", "--no-disk-cache",
                     "--pretrain-steps", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "finished in" in out

    def test_registry_covers_all_paper_artifacts(self):
        tables = {f"table{i}" for i in range(2, 9)}
        figures = {f"fig{i}" for i in range(3, 10)}
        assert tables <= set(EXPERIMENTS)
        assert figures <= set(EXPERIMENTS)
        assert "serve-bench" in EXPERIMENTS


def _stub_result(name):
    return TableResult(title=name, headers=["x"], rows=[[1]])


class TestRunAll:
    def test_all_prints_wall_clock_summary(self, capsys, monkeypatch):
        monkeypatch.setattr(repro.cli, "EXPERIMENTS", {
            "alpha": (lambda ctx: _stub_result("alpha"), "stub"),
            "beta": (lambda ctx: _stub_result("beta"), "stub"),
        })
        assert main(["all", "--fast", "--no-disk-cache"]) == 0
        out = capsys.readouterr().out
        assert "Wall-clock summary" in out
        assert "alpha" in out and "beta" in out and "total" in out

    def test_all_keeps_going_and_exits_nonzero_on_failure(
            self, capsys, monkeypatch):
        def boom(ctx):
            raise RuntimeError("synthetic failure")

        ran = []

        def ok(ctx):
            ran.append(True)
            return _stub_result("ok")

        monkeypatch.setattr(repro.cli, "EXPERIMENTS", {
            "bad": (boom, "stub"),
            "good": (ok, "stub"),
        })
        assert main(["all", "--fast", "--no-disk-cache"]) == 1
        captured = capsys.readouterr()
        assert ran == [True]  # the failure did not stop the run
        assert "synthetic failure" in captured.err
        assert "FAILED" in captured.out

    def test_single_experiment_failure_exits_nonzero(self, monkeypatch,
                                                     capsys):
        def boom(ctx):
            raise ValueError("nope")

        monkeypatch.setattr(repro.cli, "EXPERIMENTS",
                            {"bad": (boom, "stub")})
        assert main(["bad", "--fast", "--no-disk-cache"]) == 1
        assert "nope" in capsys.readouterr().err
