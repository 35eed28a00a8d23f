#!/usr/bin/env python3
"""Feature smoke checks behind CI's ``feature-smoke`` matrix.

    python scripts/ci_smoke.py {cluster,tiering,sharing,arena,arena-e2e}

Each feature smoke drives the real CLI (``python -m repro ... --json``)
at a fixed seed and asserts that the feature actually engaged —
failovers happened, pages spilled, prefixes forked, the arena
compacted — while its contract held.  Everything is simulation time,
so no retry is needed.  CI runs the same-named pytest marker first;
this script is the part that used to live as inline heredocs in the
workflow, so it can be run locally too.  ``arena-e2e`` is the
``e2e-smoke`` job's count gate on the end-to-end benchmark instead.
"""

from __future__ import annotations

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


def arena_e2e_gate() -> None:
    """The e2e-smoke job's arena gate: a count, not a clock.

    One traced quick-size ``replay-burst-arena`` run of the end-to-end
    benchmark must pass its own output checks, and the compaction
    passes it made per ``free`` — which repeat exactly for a seed, so
    no retry is needed — must stay under the ceiling.
    """
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
            "--workload", "replay-burst-arena", "--quick", "--trace", "1",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert done.returncode == 0 and result["correct"], done.stdout
    per_free = result["metrics"]["engine.arena.compactions_per_free"]["value"]
    assert per_free <= ARENA_COMPACTIONS_PER_FREE, per_free
    print("arena e2e gate:", per_free, "compactions per free (ceiling",
          f"{ARENA_COMPACTIONS_PER_FREE})")


SMOKES = {
    "cluster": cluster_smoke, "tiering": tiering_smoke,
    "sharing": sharing_smoke, "arena": arena_smoke,
    "arena-e2e": arena_e2e_gate,
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in SMOKES:
        sys.exit(f"usage: ci_smoke.py {{{','.join(SMOKES)}}}")
    SMOKES[sys.argv[1]]()
