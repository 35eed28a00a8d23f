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
import pstats
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


def tiering_smoke() -> None:
    """Long-context spill smoke at a 25% device budget.

    Replay a long-context trace untiered to measure its working set,
    then again with the device tier capped at 25% of it: the tiered
    run must finish every request (nothing lost to capacity) while
    actually exercising eviction — and the chunk store's batched reads
    took the row-stacked decode.
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
#: scheduler iterations, pricing calls and failovers.  A change that
#: makes the serving loop cheaper per call leaves every one of these
#: alone; a change that alters the work updates them in the same diff.
ANALYTIC_WORK = {
    "serving.scheduler.plan_iteration.calls": 19854,
    "serving.scheduler.complete_iteration.calls": 19792,
    "serving.simulator.iteration_time_s.calls": 19809,
    "hardware.perf.generation_iteration.calls": 19809,
    "hardware.perf.prefill_time.calls": 965,
    "serving.cluster.failovers": 119,
}


def analytic_e2e_gate() -> None:
    """The e2e-smoke job's analytic work gate: counts, not a clock.

    One traced quick-size ``cluster-scale-analytic`` run (seed 0) must
    pass its own output checks and do exactly the work in
    ``ANALYTIC_WORK``; the counts repeat exactly, so no retry.
    """
    metrics = traced_quick_e2e("cluster-scale-analytic")
    counts = {name: metrics[name]["value"] for name in ANALYTIC_WORK}
    assert counts == ANALYTIC_WORK, counts
    print("analytic e2e gate: work counts match", counts)


#: The kernel, row, tier, sharing and arena work a seed-0 quick-size
#: traced run of each pool workload does.  A change that restructures
#: how the replay drives the pool without changing what it stores and
#: reads leaves every one of these alone; a change that alters the work
#: updates them in the same diff.
REPLAY_WORK = {
    "replay-burst-arena": {
        "core.quantizer.quantize.calls": 163,
        "core.quantizer.dequantize.calls": 130,
        "core.quantizer.rows_enc": 15524,
        "core.quantizer.rows_dec": 15396,
        "engine.synthetic.rows": 15652,
        "engine.tiering.record_append.calls": 0,
        "engine.tiering.record_read.calls": 0,
        "engine.sharing.forks": 0,
        "engine.arena.compactions": 6,
    },
    "replay-rag-shared": {
        "core.quantizer.quantize.calls": 399,
        "core.quantizer.dequantize.calls": 366,
        "core.quantizer.rows_enc": 7000,
        "core.quantizer.rows_dec": 7212,
        "engine.synthetic.rows": 7128,
        "engine.tiering.record_append.calls": 0,
        "engine.tiering.record_read.calls": 0,
        "engine.sharing.forks": 14,
        "engine.arena.compactions": 0,
    },
    "replay-longctx-tiered": {
        "core.quantizer.quantize.calls": 269,
        "core.quantizer.dequantize.calls": 256,
        "core.quantizer.rows_enc": 1536,
        "core.quantizer.rows_dec": 1408,
        "engine.synthetic.rows": 1664,
        "engine.tiering.record_append.calls": 620,
        "engine.tiering.record_read.calls": 608,
        "engine.sharing.forks": 0,
        "engine.arena.compactions": 0,
    },
    "cluster-replay-faults": {
        "core.quantizer.quantize.calls": 441,
        "core.quantizer.dequantize.calls": 413,
        "core.quantizer.rows_enc": 10840,
        "core.quantizer.rows_dec": 10200,
        "engine.synthetic.rows": 11480,
        "engine.tiering.record_append.calls": 0,
        "engine.tiering.record_read.calls": 0,
        "engine.sharing.forks": 15,
        "engine.arena.compactions": 16,
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
        "move_rows.calls": 149,
        "move_rows.rows": 6648,
        "resize.calls": 11,
        "rebuild_log.calls": 7,
        "compact.calls": 3,
    },
    "cluster-replay-faults": {
        "move_rows.calls": 92,
        "move_rows.rows": 4232,
        "resize.calls": 26,
        "rebuild_log.calls": 14,
        "compact.calls": 8,
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
OP_WORK = {
    "replay-burst-arena": {
        "baselines": 1,
        "core": 2897,
        "engine": 15946,
        "hardware": 382,
        "models": 895,
        "numpy+builtins": 39051,
        "serving": 10550,
    },
    "replay-rag-shared": {
        "baselines": 1,
        "core": 117008,
        "engine": 7530,
        "hardware": 468,
        "models": 565,
        "numpy+builtins": 162107,
        "quant": 464,
        "serving": 6599,
    },
    "replay-longctx-tiered": {
        "baselines": 1,
        "core": 31001,
        "engine": 16839,
        "hardware": 7203,
        "models": 276,
        "numpy+builtins": 67763,
        "serving": 2647,
    },
    "cluster-replay-faults": {
        "baselines": 5,
        "core": 8879,
        "engine": 26172,
        "hardware": 951,
        "models": 1022,
        "numpy+builtins": 77375,
        "serving": 11665,
    },
    "cluster-scale-analytic": {
        "core": 20777,
        "hardware": 45168,
        "models": 41796,
        "numpy+builtins": 305736,
        "serving": 202434,
    },
}
OP_LEDGER_SLACK = 0.02
OP_LEDGER_ENV = {"python": "3.11", "numpy": "2.4.6"}
_NUMPY_BUCKET = "numpy+builtins"


def op_ledger(workload: str) -> dict:
    """The :data:`OP_WORK` counts of one seed-0 quick-size repetition
    of ``workload``, profiled in this process."""
    prepared = _set_up_quick(workload)
    profile = cProfile.Profile()
    profile.runcall(prepared.repetition)
    src = str(ROOT / "src" / "repro") + os.sep
    numpy_frames = os.sep + "numpy" + os.sep
    counts: dict = {}
    for (filename, _, _), (_, calls, *_) in pstats.Stats(
        profile
    ).stats.items():
        if filename.startswith(src):
            bucket = pathlib.PurePath(filename[len(src):]).parts[0]
            bucket = bucket.removesuffix(".py")
        elif filename == "~" or numpy_frames in filename:
            bucket = _NUMPY_BUCKET
        else:
            continue
        counts[bucket] = counts.get(bucket, 0) + calls
    return dict(sorted(counts.items()))


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
