#!/usr/bin/env python3
"""Feature smoke checks behind CI's ``feature-smoke`` matrix.

    python scripts/ci_smoke.py NAME

NAME is one of cluster, tiering, sharing, arena, arena-e2e,
analytic-e2e, replay-e2e, arena-work and op-ledger.

Each feature smoke drives the real CLI (``python -m repro ... --json``)
at a fixed seed and asserts that the feature actually engaged —
failovers happened, pages spilled, prefixes forked, the arena
compacted — while its contract held.  Everything is simulation time,
so no retry is needed.  CI runs the same-named pytest marker first;
this script is the part that used to live as inline heredocs in the
workflow, so it can be run locally too.  ``arena-e2e``,
``analytic-e2e``, ``replay-e2e`` and ``arena-work`` are the
``e2e-smoke`` job's count gates on the end-to-end benchmark instead,
and ``op-ledger`` its per-package call ledger.
"""

from __future__ import annotations

import cProfile
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def repro_json(*args: str) -> dict:
    """Run ``python -m repro <args> --json`` and parse its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args, "--json"],
        check=True, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout)


def cluster_smoke() -> None:
    """Fault-injection smoke: fixed seed, nonzero failovers."""
    rep = repro_json(
        "cluster", "--replicas", "3", "--faults", "--requests", "32",
        "--seed", "3", "--fault-seed", "5",
    )
    assert rep["lost"] == 0, rep["lost"]
    assert rep["duplicate_completions"] == 0
    assert rep["completed"] + rep["failed"] == 32
    assert rep["failovers"] > 0, "fault plan produced no failovers"
    print("exactly-once holds:", rep["completed"], "completed,",
          rep["failed"], "failed,", rep["failovers"], "failovers")


def assert_stacked_encodes(detail: dict) -> None:
    """At most one merged kernel call per batched append: a layer's
    keys and values went through the fused kernel row-stacked."""
    assert 0 < detail["batched_encodes"] <= detail["batched_appends"], (
        detail["batched_encodes"], detail["batched_appends"])


def assert_stacked_decodes(detail: dict) -> None:
    """At most one merged decode per batched read: a layer's pending
    key and value rows came back through one ``dequantize``."""
    assert 0 < detail["batched_decodes"] <= detail["batched_reads"], (
        detail["batched_decodes"], detail["batched_reads"])


#: The PLRU spill smoke's seed-0 tier outcomes, exactly: the
#: ``tier_*`` keys of its replay report.  The replay is simulation
#: time, so they repeat bit for bit; a change to the tier store that
#: moves one has changed its eviction order or its pricing.
TIERING_SMOKE = {
    "tier_device_bytes": 0.0,
    "tier_device_capacity_bytes": 59392.0,
    "tier_device_pages": 0.0,
    "tier_evictions": 98960.0,
    "tier_hits": 8796.0,
    "tier_host_bytes": 0.0,
    "tier_host_pages": 0.0,
    "tier_misses": 49259.0,
    "tier_pages_allocated": 275.0,
    "tier_peak_device_bytes": 59392.0,
    "tier_prefetched_pages": 47041.0,
    "tier_promoted_bytes": 99311672.0,
    "tier_promotions": 98783.0,
    "tier_spilled_bytes": 99491502.0,
    "tier_transfer_cycles": 12529620.53125,
    "tier_transfer_cycles_per_token": 5641.432026677173,
}


def tiering_smoke() -> None:
    """Long-context spill smoke at a 25% device budget.

    Replay a long-context trace untiered to measure its working set,
    then again with the device tier capped at 25% of it: the tiered
    run must finish every request (nothing lost to capacity) while
    actually exercising eviction — and the chunk store's batched reads
    took the row-stacked decode.  Its tier outcomes must equal
    :data:`TIERING_SMOKE`.
    """
    replay = ("replay", "--workload", "longcontext", "--requests", "3",
              "--batch", "4")
    flat = repro_json(*replay)
    budget = 0.25 * flat["replay"]["peak_pool_bytes"] / 2.0**20
    rep = repro_json(
        *replay, "--eviction", "plru",
        "--device-budget-mb", f"{budget:.6f}",
    )
    detail = rep["replay"]
    assert not rep["oom"]
    assert rep["generated_tokens"] == flat["generated_tokens"], (
        rep["generated_tokens"], flat["generated_tokens"])
    assert detail["tier_evictions"] > 0, "no eviction pressure"
    assert detail["tier_spilled_bytes"] > 0
    assert detail["gate_refusals"] == 0, "spill mode must not refuse"
    assert_stacked_decodes(detail)
    tiers = {key: value for key, value in detail.items()
             if key.startswith("tier_")}
    assert tiers == TIERING_SMOKE, tiers
    print("spill smoke: generated", rep["generated_tokens"],
          "tokens at 25% budget,",
          int(detail["tier_evictions"]), "evictions,",
          int(detail["tier_transfer_cycles"]), "transfer cycles")


def sharing_smoke() -> None:
    """Fork-heavy replay smoke: fixed seed, shared system prompt.

    Replay the RAG burst workload — every burst forks its wave's
    shared system prompt from the anchor request — and require that
    sharing actually engaged: nonzero forks, nonzero bytes saved, and
    zero requests lost to the admission gate — and that the chunk
    store's batched appends took the row-stacked encode and its
    batched reads the row-stacked decode.
    """
    rep = repro_json(
        "replay", "--workload", "rag", "--requests", "16",
        "--batch", "4", "--seed", "7",
    )
    detail = rep["replay"]
    assert not rep["oom"]
    assert detail["forks"] > 0, "no forks: sharing never engaged"
    assert detail["shared_bytes_saved"] > 0, detail
    assert detail["gate_refusals"] == 0, detail["gate_refusals"]
    assert_stacked_encodes(detail)
    assert_stacked_decodes(detail)
    print("sharing smoke:", int(detail["forks"]), "forks,",
          int(detail["shared_bytes_saved"]), "bytes saved,",
          rep["generated_tokens"], "tokens generated")


def arena_smoke() -> None:
    """Batch-64 replay smoke: arena vs. chunked, fixed seed.

    Replay the same trace through the chunked pool and the SoA arena
    and require that the arena is invisible in results (identical
    generated tokens) while its storage actually worked: the drain
    must have compacted (recycling absorbs churn, not a drain) and
    left no live row, and every batched append made one row-stacked
    kernel call.
    """
    replay = ("replay", "--requests", "24", "--batch", "64", "--seed", "7")
    chunked = repro_json(*replay)
    arena = repro_json(*replay, "--arena")
    detail = arena["replay"]
    assert not arena["oom"]
    assert arena["generated_tokens"] == chunked["generated_tokens"], (
        arena["generated_tokens"], chunked["generated_tokens"])
    assert detail["arena"] == 1.0, "arena never engaged"
    assert detail["arena_compactions"] > 0, "drain never compacted"
    assert detail["arena_rows_live"] == 0, "drained replay leaked rows"
    assert_stacked_encodes(detail)
    # With nothing live the extent is exactly the free-listed rows;
    # both counters are summed over layers (so are the passes).
    print("arena smoke: generated", arena["generated_tokens"],
          "tokens; tail", int(detail["arena_rows_dead"]),
          "rows, capacity", int(detail["arena_capacity_bytes"]),
          "bytes,", int(detail["arena_compactions"]),
          "compaction passes (rows and passes x layers)")


#: Ceiling on ``engine.arena.compactions_per_free`` (passes x layers
#: per free) at the e2e benchmark's quick size: 1.25 when every pass
#: trimmed every slice, 0.19 with size-class recycling.
ARENA_COMPACTIONS_PER_FREE = 0.5


def traced_quick_e2e(workload: str) -> dict:
    """One traced quick-size run of an end-to-end benchmark workload;
    it must pass its own output checks.  Returns its metrics."""
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--quick", "--trace", "1",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert done.returncode == 0 and result["correct"], done.stdout
    return result["metrics"]


def arena_e2e_gate() -> None:
    """The e2e-smoke job's arena gate: a count, not a clock.

    One traced quick-size ``replay-burst-arena`` run of the end-to-end
    benchmark must pass its own output checks, and the compaction
    passes it made per ``free`` — which repeat exactly for a seed, so
    no retry is needed — must stay under the ceiling.
    """
    metrics = traced_quick_e2e("replay-burst-arena")
    per_free = metrics["engine.arena.compactions_per_free"]["value"]
    assert per_free <= ARENA_COMPACTIONS_PER_FREE, per_free
    print("arena e2e gate:", per_free, "compactions per free (ceiling",
          f"{ARENA_COMPACTIONS_PER_FREE})")


#: The work a seed-0 quick-size ``cluster-scale-analytic`` run does:
#: scheduler calls, pricing calls and failovers.  A replica whose batch
#: cannot change runs to its next retirement in one stride, so one
#: ``plan_iteration`` / ``complete_iteration`` / ``iteration_time_s``
#: call covers a run of iterations.  A change that makes the serving
#: loop cheaper per call leaves every one of these alone; a change that
#: alters the work updates them in the same diff.
ANALYTIC_WORK = {
    "serving.scheduler.plan_iteration.calls": 1942,
    "serving.scheduler.complete_iteration.calls": 1891,
    "serving.simulator.iteration_time_s.calls": 1897,
    "hardware.perf.generation_iteration.calls": 1897,
    "hardware.perf.prefill_time.calls": 965,
    "serving.cluster.failovers": 119,
}
#: The iterations that run simulates (the sum of every replica's
#: ``steps``), however many calls they take: fewer calls must not mean
#: fewer iterations.
ANALYTIC_ITERATIONS = 19792


def analytic_e2e_gate() -> None:
    """The e2e-smoke job's analytic work gate: counts, not a clock.

    One traced quick-size ``cluster-scale-analytic`` run (seed 0) must
    pass its own output checks and do exactly the work in
    ``ANALYTIC_WORK``, and one repetition of it must simulate exactly
    ``ANALYTIC_ITERATIONS`` iterations; the counts repeat exactly, so
    no retry.
    """
    metrics = traced_quick_e2e("cluster-scale-analytic")
    counts = {name: metrics[name]["value"] for name in ANALYTIC_WORK}
    assert counts == ANALYTIC_WORK, counts
    report = _set_up_quick("cluster-scale-analytic").repetition()
    iterations = sum(row["steps"] for row in report.per_replica)
    assert iterations == ANALYTIC_ITERATIONS, iterations
    print("analytic e2e gate: work counts match", counts, "over",
          iterations, "iterations")


#: The kernel, row, tier, sharing and arena work a seed-0 quick-size
#: traced run of each pool workload does, and on the tiered one the
#: tier outcomes (evictions, hit rate, spilled bytes, transfer cycles
#: per token).  A change that restructures how the replay drives the
#: pool without changing what it stores and reads leaves the rows, the
#: tier notifications and the outcomes alone — kernel calls may fall
#: as steps batch more rows; a change that alters the work updates
#: them in the same diff.
REPLAY_WORK = {
    "replay-burst-arena": {
        "core.quantizer.quantize.calls": 49,
        "core.quantizer.dequantize.calls": 16,
        "core.quantizer.rows_enc": 15524,
        "core.quantizer.rows_dec": 15396,
        "engine.synthetic.rows": 15652,
        "engine.tiering.record_append.calls": 0,
        "engine.tiering.record_read.calls": 0,
        "engine.sharing.forks": 0,
        "engine.arena.compactions": 6,
    },
    "replay-rag-shared": {
        "core.quantizer.quantize.calls": 61,
        "core.quantizer.dequantize.calls": 28,
        "core.quantizer.rows_enc": 7000,
        "core.quantizer.rows_dec": 7212,
        "engine.synthetic.rows": 7128,
        "engine.tiering.record_append.calls": 0,
        "engine.tiering.record_read.calls": 0,
        "engine.sharing.forks": 14,
        "engine.arena.compactions": 0,
    },
    "replay-longctx-tiered": {
        "core.quantizer.quantize.calls": 33,
        "core.quantizer.dequantize.calls": 20,
        "core.quantizer.rows_enc": 1536,
        "core.quantizer.rows_dec": 1408,
        "engine.synthetic.rows": 1664,
        "engine.tiering.record_append.calls": 620,
        "engine.tiering.record_read.calls": 608,
        "engine.sharing.forks": 0,
        "engine.arena.compactions": 0,
        # The tier outcomes: what the notifications did, however the
        # pool batched the steps behind them.
        "engine.tiering.evictions": 690,
        "engine.tiering.hit_rate": 0.7275426874536006,
        "engine.tiering.spilled_bytes": 658704,
        "engine.tiering.transfer_cycles_per_tok": 290.17948190789474,
    },
    "cluster-replay-faults": {
        "core.quantizer.quantize.calls": 59,
        "core.quantizer.dequantize.calls": 31,
        "core.quantizer.rows_enc": 10840,
        "core.quantizer.rows_dec": 10200,
        "engine.synthetic.rows": 11480,
        "engine.tiering.record_append.calls": 0,
        "engine.tiering.record_read.calls": 0,
        "engine.sharing.forks": 15,
        "engine.arena.compactions": 14,
    },
}


def replay_e2e_gate() -> None:
    """The e2e-smoke job's pool work ledger: counts, not a clock.

    One traced quick-size run (seed 0) of each of the four workloads
    that drive a real pool must pass its own output checks and do
    exactly the work in ``REPLAY_WORK``; the counts repeat exactly, so
    no retry.
    """
    for workload, want in REPLAY_WORK.items():
        metrics = traced_quick_e2e(workload)
        counts = {name: metrics[name]["value"] for name in want}
        assert counts == want, (workload, counts)
        print(f"replay e2e gate: {workload} work counts match")


#: The arena geometry work one seed-0 quick-size repetition of each
#: arena workload does, on the arena's one store: row relocations
#: (calls, and rows moved in every layer's blocks at once), buffer
#: re-sizes, payload-log rebuilds and compaction passes (calls, each
#: one per arena whatever the number of layers).  A change that makes
#: a write, a gather or a pass cheaper leaves every one of these
#: alone; a change to reservation, recycling or compaction updates
#: them in the same diff.
ARENA_WORK = {
    "replay-burst-arena": {
        "move_rows.calls": 69,
        "move_rows.rows": 2872,
        "resize.calls": 11,
        "rebuild_log.calls": 6,
        "compact.calls": 3,
    },
    "cluster-replay-faults": {
        "move_rows.calls": 66,
        "move_rows.rows": 2478,
        "resize.calls": 25,
        "rebuild_log.calls": 13,
        "compact.calls": 7,
    },
}


def _set_up_quick(workload: str):
    """The benchmark's own seed-0 quick-size set-up of ``workload``
    (it re-imports the program, so anything wrapped on its classes is
    wrapped after this)."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import workloads

    return workloads.set_up(workload, 0, quick=True)


def arena_geometry_work(workload: str) -> dict:
    """The :data:`ARENA_WORK` counts of one seed-0 quick-size
    repetition of ``workload``, counted in this process.

    The tracer does not see below the arena's public methods, so the
    allocator's own steps are counted by wrapping them on the classes
    that the benchmark's set-up imported (it re-imports the program,
    so the wrappers go on after it) for one timed-region repetition.
    """
    prepared = _set_up_quick(workload)
    from repro.engine.arena import KVArena, _Store

    counts = dict.fromkeys(ARENA_WORK[workload], 0)

    def counted(cls, name, rows=None):
        method = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[name + ".calls"] += 1
            if rows is not None:
                counts[name + ".rows"] += rows(*args)
            return method(self, *args, **kwargs)

        setattr(cls, name, wrapper)
        return method

    originals = [
        (_Store, "move_rows",
         counted(_Store, "move_rows", lambda src, dst, n: n)),
        (_Store, "resize", counted(_Store, "resize")),
        (_Store, "rebuild_log", counted(_Store, "rebuild_log")),
        (KVArena, "compact", counted(KVArena, "compact")),
    ]
    try:
        prepared.repetition()
    finally:
        for cls, name, method in originals:
            setattr(cls, name, method)
    return counts


def arena_work_gate() -> None:
    """The e2e-smoke job's arena geometry ledger: counts, not a clock.

    One repetition (seed 0, quick size) of each arena workload must
    relocate, re-size, rebuild and compact exactly as often as
    ``ARENA_WORK`` says; the counts repeat exactly, so no retry.
    """
    for workload, want in ARENA_WORK.items():
        counts = arena_geometry_work(workload)
        assert counts == want, (workload, counts)
        print(f"arena work gate: {workload} geometry counts match", counts)


#: Calls one seed-0 quick-size repetition of each workload makes under
#: cProfile, per ``src/repro`` package and in one NumPy + builtins
#: bucket (C functions and ``numpy`` frames, whoever calls them);
#: stdlib and benchmark frames are not counted.  The counts repeat
#: exactly from run to run, so the ledger attributes a per-call saving
#: without a clock.  A change that removes work lowers its pins in the
#: same diff: a count may not exceed its pin, nor fall more than
#: ``OP_LEDGER_SLACK`` below it.  Which frames exist depends on the
#: interpreter (3.12 inlines comprehensions) and on NumPy's Python
#: wrappers, so the pins hold under ``OP_LEDGER_ENV`` only.
#: ``CacheReplayConfig`` checks each of its five sizes with a
#: ``getattr`` and an ``operator.index`` (11 builtin calls per config
#: with ``prefetch_pages``' index): "numpy+builtins" rose by 4 per
#: config a repetition builds (one in each replay workload, five in
#: cluster-replay-faults) when the four sizes other than ``page_bytes``
#: joined the index check.
OP_WORK = {
    "replay-burst-arena": {
        "baselines": 1,
        "core": 867,
        "engine": 4150,
        "hardware": 152,
        "models": 681,
        "numpy+builtins": 14523,
        "serving": 2651,
    },
    "replay-rag-shared": {
        "baselines": 1,
        "core": 9296,
        "engine": 2080,
        "hardware": 125,
        "models": 243,
        "numpy+builtins": 17374,
        "quant": 464,
        "serving": 1348,
    },
    # A page entering a full device tier takes its victim's frame in
    # one hand-off, and a promoted run is placed in one loop.  "engine"
    # (11,165 before) loses the per-page ``_occupy``, ``_evict``,
    # ``_vacate`` and residency-property calls and every ``_price``
    # call (prices are an ``lru_cache`` now, which is not profiled);
    # "numpy+builtins" (26,154 before) the per-page ``len`` / ``max``,
    # ``dict.get`` and free-list push and pop, and a ``sum`` per
    # promoted run.  The other buckets do not move.
    "replay-longctx-tiered": {
        "baselines": 1,
        "core": 2296,
        "engine": 6168,
        "hardware": 606,
        "models": 50,
        "numpy+builtins": 19585,
        "serving": 581,
    },
    "cluster-replay-faults": {
        "baselines": 5,
        "core": 1826,
        "engine": 5522,
        "hardware": 154,
        "models": 308,
        "numpy+builtins": 23764,
        "serving": 2206,
    },
    "cluster-scale-analytic": {
        "core": 2865,
        "hardware": 6613,
        "models": 7560,
        "numpy+builtins": 91172,
        "serving": 86380,
    },
}
OP_LEDGER_SLACK = 0.02
OP_LEDGER_ENV = {"python": "3.11", "numpy": "2.4.6"}
_NUMPY_BUCKET = "numpy+builtins"


def ledger_counts(profile: cProfile.Profile, src: str) -> dict:
    """Calls in ``profile`` per package under the directory ``src``
    (the first path part below it, ``.py`` dropped), plus C functions
    and ``numpy`` frames in one bucket; other frames are not counted.

    Counted per code object: two functions that share a file, first
    line and name (comprehensions opening on one line) are two
    entries here, where ``pstats`` keys them as one and keeps either
    count.
    """
    src = src.rstrip(os.sep) + os.sep
    numpy_frames = os.sep + "numpy" + os.sep
    counts: dict = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a C function
            bucket = _NUMPY_BUCKET
        elif code.co_filename.startswith(src):
            part = pathlib.PurePath(code.co_filename[len(src):]).parts[0]
            bucket = part.removesuffix(".py")
        elif numpy_frames in code.co_filename:
            bucket = _NUMPY_BUCKET
        else:
            continue
        counts[bucket] = counts.get(bucket, 0) + entry.callcount
    return dict(sorted(counts.items()))


def op_ledger(workload: str) -> dict:
    """The :data:`OP_WORK` counts of one seed-0 quick-size repetition
    of ``workload``, profiled in this process."""
    prepared = _set_up_quick(workload)
    profile = cProfile.Profile()
    profile.runcall(prepared.repetition)
    return ledger_counts(profile, str(ROOT / "src" / "repro"))


def op_ledger_gate() -> None:
    """The e2e-smoke job's per-package call ledger: counts, not a clock.

    Each workload's :func:`op_ledger` must match ``OP_WORK``: no bucket
    above its pin (a new bucket is pinned at 0), none more than
    ``OP_LEDGER_SLACK`` below it, under the interpreter and NumPy the
    pins were captured with.  The counts repeat exactly, so no retry.
    """
    import numpy

    env = {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": numpy.__version__,
    }
    assert env == OP_LEDGER_ENV, (
        f"OP_WORK was captured under {OP_LEDGER_ENV}; this is {env}"
    )
    failures = []
    for workload, want in OP_WORK.items():
        got = op_ledger(workload)
        for bucket in sorted(set(want) | set(got)):
            pin, count = want.get(bucket, 0), got.get(bucket, 0)
            if count > pin or count < (1.0 - OP_LEDGER_SLACK) * pin:
                failures.append((workload, bucket, count, pin))
        print(f"op ledger: {workload}", got)
    assert not failures, "(workload, bucket, count, pin): " + repr(failures)


SMOKES = {
    "cluster": cluster_smoke, "tiering": tiering_smoke,
    "sharing": sharing_smoke, "arena": arena_smoke,
    "arena-e2e": arena_e2e_gate, "analytic-e2e": analytic_e2e_gate,
    "replay-e2e": replay_e2e_gate, "arena-work": arena_work_gate,
    "op-ledger": op_ledger_gate,
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in SMOKES:
        sys.exit(f"usage: ci_smoke.py {{{','.join(SMOKES)}}}")
    SMOKES[sys.argv[1]]()
