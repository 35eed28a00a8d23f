"""Smoke test of the end-to-end benchmark.

Not collected by the tier-1 suite (``pytest.ini`` sets ``testpaths =
tests``); run it explicitly, ~30 s::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*arguments: str, script: pathlib.Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *arguments],
        capture_output=True, text=True, timeout=300,
    )


def last_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """``--quick --trace`` over every workload, one child each."""
    out = tmp_path_factory.mktemp("e2e") / "all.json"
    proc = run("--quick", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text())["sets"][0]


def test_names_are_well_formed():
    for name in WORKLOADS + END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name
    assert len(set(END_TO_END + PER_LAYER)) == len(END_TO_END + PER_LAYER)
    assert "setup_s" in END_TO_END


def test_every_metric_is_reported_on_every_workload(traced):
    assert sorted(traced) == sorted(WORKLOADS)
    for name, result in traced.items():
        assert result["failures"] == [], (name, result["failures"])
        assert sorted(result["end_to_end"]) == sorted(END_TO_END), name
        for key, stats in result["end_to_end"].items():
            assert stats["value"] > 0, (name, key)
        assert sorted(result["per_layer"]) == sorted(PER_LAYER), name


def test_self_times_sum_to_the_traced_wall(traced):
    for name, result in traced.items():
        layers = result["per_layer"]
        attributed = sum(
            value for key, value in layers.items()
            if key.endswith((".self_s", ".driver_self_s", ".loop_self_s"))
        )
        unattributed = layers["trace.unattributed_frac"]
        assert 0.0 <= unattributed <= 0.10, (name, unattributed)
        assert attributed == pytest.approx(
            layers["trace.wall_s"] * (1.0 - unattributed), rel=1e-6
        ), name


def test_layers_a_workload_bypasses_report_zero(traced):
    def busy(name: str, prefix: str) -> float:
        return sum(
            value for key, value in traced[name]["per_layer"].items()
            if key.startswith(prefix) and key.endswith(".calls")
        )

    assert busy("replay-rag-shared", "engine.arena.") == 0
    assert busy("replay-burst-arena", "engine.arena.") > 0
    for name in WORKLOADS:
        tiered = busy(name, "engine.tiering.")
        assert (tiered > 0) == (name == "replay-longctx-tiered"), name
    for prefix in ("engine.", "core."):
        assert busy("cluster-scale-analytic", prefix) == 0
    assert traced["cluster-scale-analytic"]["per_layer"][
        "serving.cluster.failovers"
    ] > 0


def test_untraced_run_prints_the_end_to_end_metrics_last():
    proc = run("--workload", "replay-burst-arena", "--quick", "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = last_line(proc)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key] and metric["value"] > 0


def test_a_corrupted_read_fails_the_run():
    proc = run(
        "--workload", "replay-rag-shared", "--quick", "--corrupt-read"
    )
    assert proc.returncode != 0
    assert last_line(proc)["correct"] is False
    assert "read probe" in proc.stdout


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(
        HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = run(
        "--workload", "replay-burst-arena", "--quick",
        script=target / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
