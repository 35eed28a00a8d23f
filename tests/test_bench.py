"""Smoke tests for the perf-regression harness (:mod:`repro.bench`).

The smoke run's ``> 1.0`` speedup floors are deflaked inside the
harness itself: every stepped-loop benchmark (pool reads/appends,
baseline reads, and — at quick sizes — generation) times best-of-N
independent streams, so one host load spike during a full-suite run
cannot push a genuine speedup below its floor.  The tests that time
real kernels carry the ``bench`` marker so CI can rerun just them on a
timing failure without rerunning the whole suite; the runner, table
and report-helper tests below them are deterministic and unmarked.
"""

import json
import pathlib
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import run_benchmarks
from repro.bench.hotpath import format_summary

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.bench
def test_harness_runs_quickly_and_writes_json(tmp_path):
    """Reduced-size run: complete in <60s, emit a well-formed report."""
    out = tmp_path / "BENCH_quant.json"
    start = time.perf_counter()
    report = run_benchmarks(
        quick=True,
        out_path=str(out),
        tokens=256,
        dim=256,
        steps=48,
        repeats=1,
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "repro.bench/v1"
    bench = on_disk["benchmarks"]
    assert set(bench) == {
        "encode_roundtrip", "encode_serving", "generation", "bitpack",
        "pool_read",
        "pool_append", "baseline_read", "replay",
        "cluster", "tiering", "prefix_sharing", "analytic",
    }

    enc = bench["encode_roundtrip"]
    assert enc["tokens"] == 256 and enc["dim"] == 256
    # Loose floors: smoke sizes are overhead-dominated; the real
    # targets are enforced by the full-size run in BENCH_quant.json.
    assert enc["speedup_roundtrip"] > 1.0
    serving = bench["encode_serving"]
    assert serving["encoded_identical"] is True
    assert serving["speedup_stacked"] > 1.0
    assert serving["repeats"] >= 2
    gen = bench["generation"]
    assert gen["steps"] == 48
    assert gen["tokens_identical"] is True
    assert gen["speedup"] > 1.0
    pool = bench["pool_read"]
    assert pool["reads_identical"] is True
    assert pool["speedup_batched"] > 1.0
    assert pool["repeats"] >= 2  # best-of floor is load-independent
    appends = bench["pool_append"]
    assert appends["caches_identical"] is True
    assert appends["speedup_batched"] > 1.0
    assert appends["adapter_caches_identical"] is True
    assert appends["speedup_adapter_batched"] > 1.0
    # Arena sweep: both serving batch sizes present under pool_read /
    # pool_append, bit-identical reads, and the SoA arena faster than
    # the chunked pool even at smoke sizes.
    for entry in (pool, appends):
        for key in ("batch64", "batch128"):
            sub = entry[key]
            assert sub["reads_identical"] is True
            assert sub["speedup_arena"] > 1.0
            assert sub["repeats"] >= 2
    baseline = bench["baseline_read"]
    assert baseline["reads_identical"] is True
    assert baseline["speedup_amortized"] > 1.0
    assert baseline["repeats"] >= 2
    replay = bench["replay"]
    assert replay["replayed_tokens"] > 0
    assert replay["engine_cycles"] > 0
    assert replay["tokens_per_mcycle"] > 0
    assert replay["engine_cycles"] == (
        replay["engine_quant_cycles"] + replay["engine_dequant_cycles"]
    )
    # End-to-end replay sweep: the arena must not change the tokens a
    # trace generates, must compact when the closed trace drains
    # (recycling absorbs churn, never a drain), and must beat the
    # chunked pool on host wall clock.
    for key in ("batch64", "batch128"):
        sub = replay[key]
        assert sub["tokens_identical"] is True
        assert sub["arena_compactions"] > 0
        assert sub["speedup_arena"] > 1.0
    cluster = bench["cluster"]
    # Sim-time metrics: deterministic, so exact floors are safe.
    assert cluster["speedup_replicas"] > 1.0
    assert cluster["faulted"]["failovers"] > 0
    assert cluster["faulted"]["completed"] + cluster["faulted"][
        "failed"
    ] == cluster["requests"]
    tiering = bench["tiering"]
    # Also sim-time: the pressure sweep must show rising transfer cost
    # as the device budget shrinks, and merged prefetch must beat
    # per-page promotion (the harness asserts token-count equality
    # with the untiered run internally).
    assert tiering["budget_25"]["transfer_cycles"] > (
        tiering["budget_100"]["transfer_cycles"]
    )
    assert tiering["budget_25"]["evictions"] > 0
    assert tiering["budget_25"]["hit_rate"] < (
        tiering["budget_100"]["hit_rate"]
    )
    assert tiering["speedup_prefetch"] > 1.0
    sharing = bench["prefix_sharing"]
    # Byte accounting, also sim-time deterministic: the sharing run
    # must hold a strictly smaller peak than its no-sharing twin and
    # admit strictly more sequences into the bounded pool (the
    # harness asserts token-count equality and nonzero forks
    # internally).
    assert sharing["forks"] > 0
    assert sharing["shared_bytes_saved"] > 0
    assert sharing["speedup_footprint"] > 1.0
    assert sharing["speedup_admission"] > 1.0
    analytic = bench["analytic"]
    # bench_analytic raises if any grid cell diverges from the scalar
    # run, so runs_identical is an invariant, not a measurement; the
    # vectorized sweep clears 1x even at the quick grid size.
    assert analytic["runs_identical"] == 1.0
    assert analytic["points"] > 0
    assert analytic["speedup_vectorized"] > 1.0

    summary = format_summary(report)
    assert "encode roundtrip" in summary
    assert "generation" in summary
    assert "pool reads" in summary
    assert "pool appends" in summary
    assert "adapter" in summary
    assert "arena batch=64" in summary
    assert "arena batch=128" in summary
    assert "compactions" in summary
    assert "baseline reads" in summary
    assert "serving replay" in summary
    assert "cluster replay" in summary
    assert "tiered KV" in summary
    assert "prefix sharing" in summary
    assert "analytic sweep" in summary


@pytest.mark.bench
def test_no_output_file_when_disabled(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_benchmarks(
        quick=True,
        out_path=None,
        tokens=128,
        dim=128,
        steps=16,
        repeats=1,
    )
    assert not (tmp_path / "BENCH_quant.json").exists()


def test_merge_and_regression_helpers():
    """Best-of-runs merge + the speedup regression gate semantics."""
    from repro.bench import find_regressions, merge_reports, missing_speedups

    def report(seconds, speedup, extra=True):
        bench = {"encode": {"fused_s": seconds, "speedup_roundtrip": speedup}}
        if extra:
            bench["datapath"] = {"speedup_vectorized": 300.0}
        return {"schema": "repro.bench/v1", "quick": True,
                "benchmarks": bench}

    merged = merge_reports([report(0.5, 4.0), report(0.4, 3.5)])
    assert merged["merged_runs"] == 2
    enc = merged["benchmarks"]["encode"]
    assert enc["fused_s"] == 0.4          # min of the _s leaves
    assert enc["speedup_roundtrip"] == 4.0  # max of the speedups

    committed = report(0.4, 4.0)
    # Within the factor: no regression.
    assert find_regressions(report(0.5, 3.0), committed, 0.5) == []
    # Collapsed speedup trips the gate.
    regressions = find_regressions(report(0.5, 1.1), committed, 0.5)
    assert regressions == [("encode.speedup_roundtrip", 1.1, 4.0)]
    # A committed entry the current run no longer emits is lost
    # coverage and must be reported.
    assert missing_speedups(report(0.5, 4.0, extra=False), committed) == [
        "datapath.speedup_vectorized"
    ]
    # Entries only the current run has never fail retroactively.
    assert missing_speedups(committed, report(0.5, 4.0, extra=False)) == []


def test_runner_times_a_toy_entry():
    """One table row through the runner: keys, naming, sizes, identity."""
    from repro.bench.runner import QF, Entry, run_entry, same, timed

    def toy(fast=lambda c: c.data.tolist()):
        return Entry(
            "toy",
            sizes={"n": QF(4, 16), "scale": 2},
            overridable=("n",),
            setup=lambda n, scale: SimpleNamespace(data=np.arange(n) * scale),
            echo_repeats=True,
            variants={
                "slow": timed(lambda c: [int(v) for v in c.data]),
                "fast": timed(fast),
            },
            speedups={"fast": ("slow", "fast"), "": ("slow", "fast")},
            check=lambda o: {"values": same(o["slow"], o["fast"])},
            summary=lambda r: [f"toy n={r['n']}"],
        )

    quick = run_entry(toy(), quick=True, repeats=2)
    assert set(quick) == {
        "n", "scale", "repeats", "slow_s", "fast_s",
        "speedup_fast", "speedup", "values_identical",
    }
    assert (quick["n"], quick["scale"], quick["repeats"]) == (4, 2, 2)
    assert quick["speedup_fast"] == quick["slow_s"] / quick["fast_s"]
    assert quick["values_identical"] is True
    assert run_entry(toy(), quick=False)["n"] == 16
    assert run_entry(toy(), quick=True, overrides={"n": 8})["n"] == 8
    with pytest.raises(AssertionError, match="toy: values diverged"):
        run_entry(toy(fast=lambda c: c.data[:-1].tolist()), quick=True)


def test_declared_speedups_match_committed_baseline():
    """Table and ``BENCH_quant.json`` agree without running a benchmark.

    An entry added without a regenerated baseline, or a baseline key
    no entry declares any more, fails here instead of at ``--check``
    time.
    """
    from repro.bench import iter_speedups
    from repro.bench.hotpath import declared_speedups

    committed = json.loads((REPO_ROOT / "BENCH_quant.json").read_text())
    declared = declared_speedups()
    assert len(declared) == len(set(declared))
    assert set(declared) == {path for path, _ in iter_speedups(committed)}
