"""Sweep tests for the ``repro.commands`` package.

Every subcommand of the front door runs once with quick arguments and
must exit 0; the ``--json`` surfaces must parse and carry their
documented keys; the two bench spellings must expose one parser; and
the replay/cluster shared flags (``commands/common.py``) must parse
identically for both subcommands.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.commands import build_parser, main

# (case id, argv) — quick arguments so the whole sweep stays fast.
# ``bench`` runs real timed kernels, so it carries the bench marker and
# stays out of the default tier-1 run like the rest of the harness.
SUBCOMMANDS = [
    ("list-models", ["list-models"]),
    ("list-systems", ["list-systems"]),
    ("quantize", ["quantize", "--tokens", "32", "--dim", "64"]),
    ("throughput", ["throughput", "--batch", "16"]),
    ("capacity", ["capacity", "--context", "1024"]),
    ("datapath", ["datapath", "--tokens", "8", "--dim", "64"]),
    ("fabric", ["fabric", "--batch", "4"]),
    ("overlap", ["overlap", "--batch", "8"]),
    ("replay", ["replay", "--requests", "2", "--batch", "2"]),
    (
        "replay-tiered",
        ["replay", "--requests", "2", "--batch", "2",
         "--device-budget-mb", "1", "--charge-transfer-cycles"],
    ),
    (
        "cluster",
        ["cluster", "--requests", "4", "--replicas", "2",
         "--batch", "2"],
    ),
    ("experiment", ["experiment", "fig01"]),
    (
        "analyze",
        None,  # needs a report file; built in the test via tmp_path
    ),
    (
        "serve",
        None,  # needs a config file; built in the test via tmp_path
    ),
]


def _write_replay_report(tmp_path):
    """A real replay report JSON for analyze/serve cases."""
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(
            ["replay", "--requests", "2", "--batch", "2", "--json"]
        )
    assert code == 0
    path = tmp_path / "replay.json"
    path.write_text(buffer.getvalue(), encoding="utf-8")
    return path


class TestSubcommandSweep:
    @pytest.mark.parametrize(
        "argv",
        [case[1] for case in SUBCOMMANDS if case[1] is not None],
        ids=[case[0] for case in SUBCOMMANDS if case[1] is not None],
    )
    def test_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_analyze_exits_zero(self, tmp_path, capsys):
        report = _write_replay_report(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(report)]) == 0
        out = capsys.readouterr().out
        assert "(replay)" in out and "generation_throughput" in out

    def test_serve_exits_zero(self, tmp_path, capsys):
        config = tmp_path / "serve.json"
        config.write_text(
            json.dumps(
                {"mode": "replay", "requests": 2, "batch": 2}
            ),
            encoding="utf-8",
        )
        assert main(["serve", str(config)]) == 0
        assert "tokens/s" in capsys.readouterr().out

    @pytest.mark.bench
    def test_bench_exits_zero(self, tmp_path, capsys, monkeypatch):
        # Every row, at the small encode / generation sizes; run from
        # an empty directory, so a row that wrote the default report
        # name itself would show.
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "bench.json"
        argv = [
            "bench", "--quick", "--repeats", "1",
            "--tokens", "128", "--dim", "128", "--steps", "16",
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]
        report = json.loads(out.read_text(encoding="utf-8"))
        assert "analytic" in report["benchmarks"]
        entry = report["benchmarks"]["analytic"]
        assert entry["runs_identical"] == 1.0
        assert entry["speedup_vectorized"] > 0.0


class TestJsonSurfaces:
    REPLAY_KEYS = {
        "system", "batch", "effective_batch", "oom",
        "generation_throughput", "total_time_s", "generated_tokens",
        "mean_latency_s", "p95_latency_s", "mean_ttft_s",
        "p95_ttft_s", "mean_tpot_s", "replay",
    }
    CLUSTER_KEYS = {
        "system", "replicas", "policy", "oom", "completed", "failed",
        "generated_tokens", "total_time_s", "generation_throughput",
        "tokens_per_s", "p99_queue_delay_s", "failovers", "requeues",
        "retries", "forks", "shared_bytes_saved", "per_replica",
    }

    def test_replay_json(self, capsys):
        assert main(
            ["replay", "--requests", "2", "--batch", "2", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert self.REPLAY_KEYS <= set(report)

    def test_cluster_json(self, capsys):
        assert main(
            ["cluster", "--requests", "4", "--replicas", "2",
             "--batch", "2", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert self.CLUSTER_KEYS <= set(report)

    def test_analyze_json(self, tmp_path, capsys):
        report = _write_replay_report(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(report), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"reports"}
        (entry,) = summary["reports"]
        assert entry["path"] == str(report)
        assert entry["kind"] == "replay"
        assert entry["metrics"]["generated_tokens"] > 0

    def test_serve_json_flag_forces_json(self, tmp_path, capsys):
        config = tmp_path / "serve.json"
        config.write_text(
            json.dumps(
                {"mode": "replay", "requests": 2, "batch": 2}
            ),
            encoding="utf-8",
        )
        assert main(["serve", str(config), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert TestJsonSurfaces.REPLAY_KEYS <= set(report)


class TestServeErrors:
    def test_missing_mode(self, tmp_path, capsys):
        config = tmp_path / "serve.json"
        config.write_text(json.dumps({"requests": 2}), encoding="utf-8")
        assert main(["serve", str(config)]) == 2
        assert "mode" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        config = tmp_path / "serve.json"
        config.write_text("[1, 2]", encoding="utf-8")
        assert main(["serve", str(config)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_flag_fails_like_argparse(self, tmp_path):
        config = tmp_path / "serve.json"
        config.write_text(
            json.dumps({"mode": "replay", "bogus_flag": 1}),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit):
            main(["serve", str(config)])


class TestAnalyzeErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"what": 1}), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        assert "unknown" in capsys.readouterr().out


def _subparser(parser: argparse.ArgumentParser, name: str):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    raise AssertionError("no subparsers on parser")


class TestBenchParserAgreement:
    def test_same_flags_and_defaults(self):
        """``repro bench`` and ``python -m repro.bench`` cannot drift."""
        from repro.bench.__main__ import build_parser as bench_parser

        standalone = bench_parser()
        mounted = _subparser(build_parser(), "bench")

        def surface(parser):
            return {
                tuple(action.option_strings): (
                    action.default, action.nargs, action.type,
                )
                for action in parser._actions
                if action.option_strings != ["-h", "--help"]
                and action.dest != "func"
            }

        assert surface(standalone) == surface(mounted)

    @pytest.mark.parametrize(
        "argv",
        [["--runs", "0"], ["--tokens", "0"], ["--dim", "0"],
         ["--steps", "0"], ["--check", "missing.json"]],
        ids=["runs", "tokens", "dim", "steps", "check-missing"],
    )
    def test_bad_arguments_fail_before_the_suite_runs(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        import repro.bench.hotpath as hotpath
        from repro.bench.__main__ import main as bench_main

        def run_benchmarks(**_):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(hotpath, "run_benchmarks", run_benchmarks)
        monkeypatch.chdir(tmp_path)
        for spelling in (bench_main, lambda args: main(["bench"] + args)):
            assert spelling(["--quick"] + argv) == 2
            err = capsys.readouterr().err  # one line, no traceback
            assert err.startswith("repro bench: ") and err.count("\n") == 1


class TestBenchCheckIsReadOnly:
    """``--check`` compares against the committed report; it writes a
    report only when ``--out`` names one (harness stubbed: no timing)."""

    def test_check_without_out_leaves_the_baseline_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.bench.hotpath as hotpath
        from repro.bench.__main__ import main as bench_main

        committed = Path(__file__).resolve().parents[1] / "BENCH_quant.json"
        baseline = tmp_path / "BENCH_quant.json"
        baseline.write_bytes(committed.read_bytes())
        fresh = json.loads(committed.read_text())
        fresh["stubbed"] = True  # would change the bytes if written
        monkeypatch.setattr(hotpath, "run_benchmarks", lambda **_: fresh)
        monkeypatch.chdir(tmp_path)
        for spelling in (bench_main, lambda argv: main(["bench"] + argv)):
            assert spelling(["--quick", "--check", str(baseline)]) == 0
            assert baseline.read_bytes() == committed.read_bytes()
            assert [p.name for p in tmp_path.iterdir()] == [baseline.name]
        out = tmp_path / "out.json"
        assert bench_main(
            ["--quick", "--check", str(baseline), "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["stubbed"]


class TestSharedReplayClusterFlags:
    """The common.py helpers parse identically for both subcommands."""

    SHARED = [
        "--method", "kvquant",
        "--trace", "burstgpt",
        "--workload", "rag",
        "--requests", "24",
        "--seed", "5",
        "--device-budget-mb", "2",
        "--eviction", "plru",
        "--charge-transfer-cycles",
        "--arena",
        "--profile-top", "7",
    ]
    SHARED_DESTS = (
        "method", "trace", "workload", "requests", "seed",
        "device_budget_mb", "eviction", "charge_transfer_cycles",
        "arena", "profile", "profile_top", "profile_out",
    )

    def test_parse_identity(self):
        parser = build_parser()
        replay_ns = parser.parse_args(["replay"] + self.SHARED)
        cluster_ns = parser.parse_args(["cluster"] + self.SHARED)
        for dest in self.SHARED_DESTS:
            assert getattr(replay_ns, dest) == getattr(
                cluster_ns, dest
            ), dest

    def test_replay_config_identity(self):
        from repro.commands.common import replay_config

        parser = build_parser()
        replay_ns = parser.parse_args(["replay"] + self.SHARED)
        cluster_ns = parser.parse_args(["cluster"] + self.SHARED)
        assert replay_config(replay_ns) == replay_config(cluster_ns)

    def test_build_trace_identity(self):
        from repro.commands.common import build_trace

        parser = build_parser()
        replay_ns = parser.parse_args(["replay"] + self.SHARED)
        cluster_ns = parser.parse_args(["cluster"] + self.SHARED)
        assert build_trace(replay_ns) == build_trace(cluster_ns)


class TestExampleConfigs:
    """The checked-in serve configs CI runs stay valid."""

    @pytest.mark.parametrize(
        "name", ["serve_replay.json", "serve_cluster.json"]
    )
    def test_example_parses_and_maps(self, name):
        import pathlib

        from repro.commands.serve import MODES, config_to_argv

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / name
        )
        config = json.loads(path.read_text(encoding="utf-8"))
        mode = config.pop("mode")
        assert mode in MODES
        ns = build_parser().parse_args(
            [mode] + config_to_argv(config)
        )
        assert callable(ns.func)
