"""Tests for the command-line interface."""

import pytest

from repro.commands import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in (
            ["list-models"],
            ["list-systems"],
            ["quantize"],
            ["throughput"],
            ["experiment", "fig01"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)


class TestCommands:
    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "llama2-7b" in out and "mixtral-8x7b" in out

    def test_list_systems(self, capsys):
        assert main(["list-systems", "--model", "llama2-13b"]) == 0
        out = capsys.readouterr().out
        assert "oaken-lpddr" in out and "vllm" in out

    def test_quantize_default(self, capsys):
        assert main(["quantize", "--tokens", "64", "--dim", "64"]) == 0
        out = capsys.readouterr().out
        assert "effective bits/element" in out
        assert "serialized stream" in out

    def test_quantize_custom_ratios(self, capsys):
        code = main(
            ["quantize", "--ratios", "2/2/90/6", "--tokens", "32",
             "--dim", "64"]
        )
        assert code == 0
        assert "2/2/90/6" in capsys.readouterr().out

    def test_throughput_ok(self, capsys):
        code = main(
            ["throughput", "--model", "llama2-7b",
             "--system", "oaken-lpddr", "--batch", "32"]
        )
        assert code == 0
        assert "tokens/s" in capsys.readouterr().out

    def test_throughput_oom_exit_code(self, capsys):
        code = main(
            ["throughput", "--model", "llama2-70b",
             "--system", "oaken-hbm", "--batch", "16"]
        )
        assert code == 1
        assert "OOM" in capsys.readouterr().out

    def test_experiment_fig01(self, capsys):
        assert main(["experiment", "fig01"]) == 0
        assert "oaken-lpddr" in capsys.readouterr().out

    def test_experiment_table4(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "quant_engine" in capsys.readouterr().out

    def test_experiment_energy(self, capsys):
        assert main(["experiment", "energy"]) == 0
        assert "tok/J" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestNewSubsystemCommands:
    def test_capacity_planner(self, capsys):
        assert main(
            ["capacity", "--model", "llama2-13b", "--context", "2048"]
        ) == 0
        out = capsys.readouterr().out
        assert "oaken-lpddr" in out and "max_batch@2048" in out

    def test_datapath_verifies_bit_exact(self, capsys):
        code = main(
            ["datapath", "--tokens", "4", "--dim", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-exact vs golden model: True" in out
        assert "decomposer" in out and "zero_insert_shifter" in out

    def test_datapath_custom_groups(self, capsys):
        code = main(
            ["datapath", "--tokens", "2", "--dim", "64",
             "--ratios", "2/2/90/6"]
        )
        assert code == 0
        assert "2/2/90/6" in capsys.readouterr().out

    def test_datapath_rejects_negative_tokens(self, capsys):
        assert main(["datapath", "--tokens", "-1"]) == 2
        assert capsys.readouterr().err.startswith("repro datapath: --tokens")

    def test_datapath_rejects_empty_dim(self, capsys):
        assert main(["datapath", "--dim", "0"]) == 2
        assert capsys.readouterr().err.startswith("repro datapath: --dim")

    def test_datapath_rejects_one_group(self, capsys):
        assert main(["datapath", "--ratios", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro datapath: ") and "two groups" in err

    def test_fabric_striped(self, capsys):
        assert main(["fabric", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "striped/paged" in out and "effective BW" in out

    def test_fabric_skewed_slower(self, capsys):
        assert main(["fabric", "--batch", "1", "--skewed"]) == 0
        assert "skewed" in capsys.readouterr().out

    def test_overlap_report(self, capsys):
        assert main(["overlap", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "hidden fraction" in out

    def test_profiling_experiment_id_known(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "profiling"])
        assert args.id == "profiling"


@pytest.mark.tiering
class TestTieringCommands:
    def test_replay_parser_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.device_budget_mb is None
        assert args.eviction == "lru"
        assert callable(args.func)

    def test_replay_untiered(self, capsys):
        code = main(
            ["replay", "--workload", "longcontext", "--requests", "2",
             "--batch", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "generated" in out and "tiering" not in out

    def test_replay_tiered_spill(self, capsys):
        code = main(
            ["replay", "--workload", "longcontext", "--requests", "2",
             "--batch", "2", "--device-budget-mb", "0.02",
             "--eviction", "plru"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tiering (plru" in out
        assert "evictions" in out and "transfer" in out

    def test_replay_json_carries_tier_counters(self, capsys):
        import json

        code = main(
            ["replay", "--workload", "longcontext", "--requests", "2",
             "--batch", "2", "--device-budget-mb", "0.02", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["replay"]["tier_evictions"] > 0
        assert report["replay"]["gate_refusals"] == 0

    def test_cluster_tiered(self, capsys):
        code = main(
            ["cluster", "--workload", "longcontext", "--requests", "2",
             "--batch", "2", "--replicas", "2",
             "--device-budget-mb", "0.02"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tiering (lru" in out

    def test_bad_eviction_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["replay", "--eviction", "random"]
            )


@pytest.mark.sharing
class TestSharingCommands:
    def test_replay_rag_workload_forks(self, capsys):
        import json

        code = main(
            ["replay", "--workload", "rag", "--requests", "8",
             "--batch", "4", "--seed", "7", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["replay"]["forks"] > 0
        assert report["replay"]["shared_bytes_saved"] > 0

    def test_cluster_cache_replay_forks(self, capsys):
        import json

        code = main(
            ["cluster", "--workload", "rag", "--requests", "8",
             "--batch", "4", "--replicas", "2", "--seed", "7",
             "--policy", "prefix_affinity", "--cache-replay", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lost"] == 0
        assert report["forks"] > 0
        assert report["shared_bytes_saved"] > 0

    def test_cluster_without_cache_replay_stays_analytic(self):
        args = build_parser().parse_args(["cluster"])
        assert args.cache_replay is False
        from repro.commands.common import replay_config

        assert replay_config(args) is None
