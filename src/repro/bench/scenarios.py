"""Scenario rows of the perf-harness table.

A scenario is one deterministic simulation run — a serving replay or a
cluster replay — whose report *is* the bench result: every metric is
simulation time or byte accounting, bit-stable for a fixed seed, so
the ``--check`` gate holds these rows to exact reproducibility rather
than a noise factor.  Each row has a single ``wall`` variant (host
wall time is recorded for the smoke budget only); the ``speedup_*``
keys are ratios the scenario computes itself.  Heavy subsystems are
imported inside the functions, like every other row's setup.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.runner import QF, scenario


# -- replay ----------------------------------------------------------


def closed_trace(requests: int, inputs: int, outputs: int):
    """``requests`` identical requests, all arriving at time zero."""
    from repro.data.traces import TraceRequest

    return [
        TraceRequest(
            arrival_s=0.0, input_tokens=inputs, output_tokens=outputs
        )
        for _ in range(requests)
    ]


def replay_trace(trace, max_batch: int, system: str = "oaken-hbm", **replay):
    """One closed-trace serving replay on llama2-13b."""
    from repro.hardware.overheads import get_system
    from repro.models.config import get_model
    from repro.serving.simulator import CacheReplayConfig, simulate_trace

    return simulate_trace(
        get_system(system),
        get_model("llama2-13b").arch,
        trace,
        max_batch,
        replay=CacheReplayConfig(seed=0, **replay),
    )


def _replay_cycles(ctx) -> Dict[str, float]:
    """End-to-end engine cycles from an engine-backed serving replay.

    Every KV row the scheduler streams through the pool's batched
    append/read paths is priced by the Figure 9 datapath models; the
    accumulated counts become a cycle-throughput trajectory (replayed
    tokens per engine megacycle) — the modeled-hardware counterpart of
    the wall-clock speedups elsewhere.  Host wall time is recorded for
    the smoke budget but is not the metric.
    """
    report = replay_trace(
        closed_trace(ctx.requests, ctx.inputs, ctx.outputs),
        ctx.max_batch,
        system="oaken-lpddr",
        method="oaken",
        engine_cycles=True,
    )
    replay = report.replay
    tokens = replay["replayed_tokens"]
    cycles = replay["engine_cycles"]
    return {
        "generated_tokens": float(report.generated_tokens),
        "replayed_tokens": tokens,
        "engine_quant_cycles": replay["engine_quant_cycles"],
        "engine_dequant_cycles": replay["engine_dequant_cycles"],
        "engine_cycles": cycles,
        "cycles_per_token": cycles / tokens if tokens else 0.0,
        "tokens_per_mcycle": tokens / cycles * 1e6 if cycles else 0.0,
    }


REPLAY = scenario(
    "replay",
    _replay_cycles,
    sizes={
        "requests": QF(6, 12), "inputs": 48, "outputs": QF(10, 24),
        "max_batch": 4,
    },
    summary=lambda r: [
        f"serving replay ({r['requests']} requests, engine-backed):",
        f"  {r['engine_cycles']:.0f} engine cycles / "
        f"{r['replayed_tokens']:.0f} tokens"
        f"  -> {r['tokens_per_mcycle']:.1f} tok/Mcycle",
    ],
)


# -- cluster ---------------------------------------------------------

_REPLICA_COUNTS = (1, 2, 4)


def _cluster_scenario(ctx) -> Dict[str, object]:
    """Cluster replay scaling and resilience telemetry.

    Replays one seeded trace fault-free at each replica count, then
    once more at the largest count under a deterministic fault plan (a
    mid-trace crash with recovery plus a brownout).  Every metric is
    **simulation time** — deterministic for a fixed seed, so the gate
    can hold this entry to exact reproducibility rather than a noise
    factor.  ``speedup_replicas`` is the sim-time token-rate scaling
    from one replica to the largest count.
    """
    from repro.data.traces import generate_trace
    from repro.hardware.overheads import get_system
    from repro.models.config import get_model
    from repro.serving.cluster import ClusterConfig, simulate_cluster
    from repro.serving.faults import (
        FaultPlan,
        brownout,
        crash_and_recover,
    )

    system = get_system("oaken-hbm")
    arch = get_model("llama2-13b").arch
    trace = generate_trace("conversation", ctx.requests, seed=0)

    def run(count: int, plan=None):
        return simulate_cluster(
            system, arch, trace,
            ClusterConfig(
                replicas=count, max_batch=ctx.max_batch, policy=ctx.policy
            ),
            plan,
        )

    reports = {count: run(count) for count in _REPLICA_COUNTS}
    low, top = min(_REPLICA_COUNTS), max(_REPLICA_COUNTS)
    # Fault plan scaled to the fault-free makespan: one replica
    # crashes a quarter of the way in and recovers, another browns out
    # across the middle of the replay.
    horizon = reports[top].total_time_s
    faulted = run(
        top,
        FaultPlan(
            crash_and_recover(0, 0.25 * horizon, 0.25 * horizon)
            + brownout(top - 1, 0.4 * horizon, 0.3 * horizon, factor=3.0)
        ),
    )
    if faulted.lost or faulted.duplicate_completions:
        raise AssertionError(
            "cluster exactly-once contract violated: "
            f"lost={faulted.lost} "
            f"duplicates={faulted.duplicate_completions}"
        )
    return {
        "scaling": {
            f"replicas_{count}": {
                "tokens_per_s": report.tokens_per_s,
                "total_time_s": report.total_time_s,
                "p99_queue_delay_s": report.p99_queue_delay_s,
                "completed": float(report.completed),
            }
            for count, report in reports.items()
        },
        "speedup_replicas": (
            reports[top].tokens_per_s / reports[low].tokens_per_s
            if reports[low].tokens_per_s > 0
            else 0.0
        ),
        "faulted": {
            "replicas": float(top),
            "completed": float(faulted.completed),
            "failed": float(faulted.failed),
            "failovers": float(faulted.failovers),
            "requeues": float(faulted.requeues),
            "retries": float(faulted.retries),
            "detected_failures": float(faulted.detected_failures),
            "downtime_s": faulted.downtime_s,
            "tokens_per_s": faulted.tokens_per_s,
            "total_time_s": faulted.total_time_s,
            "p99_queue_delay_s": faulted.p99_queue_delay_s,
        },
    }


def _cluster_summary(r) -> List[str]:
    rates = "  ".join(
        f"r{count}={r['scaling'][f'replicas_{count}']['tokens_per_s']:.1f}"
        for count in _REPLICA_COUNTS
    )
    faulted = r["faulted"]
    return [
        f"cluster replay ({r['requests']} requests, {r['policy']}):",
        f"  tok/s {rates}  -> {r['speedup_replicas']:.1f}x scaling",
        f"  faulted r{faulted['replicas']:.0f}: "
        f"{faulted['completed']:.0f} completed / "
        f"{faulted['failed']:.0f} failed, "
        f"{faulted['failovers']:.0f} failovers, "
        f"downtime {faulted['downtime_s']:.2f}s",
    ]


CLUSTER = scenario(
    "cluster",
    _cluster_scenario,
    sizes={
        "requests": QF(24, 64), "max_batch": 4, "policy": "least_loaded",
    },
    speedups=("replicas",),
    summary=_cluster_summary,
)


# -- tiering ---------------------------------------------------------

#: Device budgets, in percent of the untiered working set.
_BUDGET_PERCENTS = (100, 50, 25)


def _tiering_scenario(ctx) -> Dict[str, object]:
    """Throughput and transfer-cycle overhead vs. device-tier budget.

    Replays one closed long-decode trace untiered (to measure the
    working set), then behind the tiered KV hierarchy at each budget
    percentage of that working set.  Sim-time plus the store's modeled
    transfer cycles — deterministic for a fixed seed.  Reported per
    budget: generation token rate, hit rate, evictions, transfer
    cycles per replayed token, and an *effective* token rate whose
    denominator folds the modeled transfer time back in (1 GHz clock).
    Spilling changes placement and cost, never results: every tiered
    replay must generate exactly the untiered token count.

    ``speedup_prefetch`` is the transfer-cycle ratio of the
    no-prefetch configuration to the default sequential
    prefetch-on-read at the tightest budget: coalescing runs of
    spilled pages into merged bursts is the tiered store's own hot
    path, priced by the host link's burst-efficiency curve.
    """
    from repro.engine.tiering import DEFAULT_CLOCK_HZ

    trace = closed_trace(ctx.requests, ctx.inputs, ctx.outputs)
    flat = replay_trace(trace, ctx.max_batch)
    working_set = flat.replay["peak_pool_bytes"]

    def tiered(percent: int, **replay):
        report = replay_trace(
            trace,
            ctx.max_batch,
            device_budget_mb=working_set * (percent / 100) / 2.0**20,
            **replay,
        )
        if report.generated_tokens != flat.generated_tokens:
            raise AssertionError(
                "tiered replay changed the generated token count: "
                f"{report.generated_tokens} != {flat.generated_tokens} "
                f"at a {percent}% budget"
            )
        return report

    out: Dict[str, object] = {
        "working_set_bytes": working_set,
        "untiered_tokens_per_s": flat.generation_throughput,
        "generated_tokens": float(flat.generated_tokens),
    }
    for percent in _BUDGET_PERCENTS:
        report = tiered(percent)
        replay = report.replay
        cycles = replay["tier_transfer_cycles"]
        accesses = replay["tier_hits"] + replay["tier_misses"]
        effective_s = report.total_time_s + cycles / DEFAULT_CLOCK_HZ
        out[f"budget_{percent}"] = {
            "device_budget_mb": working_set * (percent / 100) / 2.0**20,
            "tokens_per_s": report.generation_throughput,
            "tokens_per_s_effective": (
                report.generated_tokens / effective_s
                if effective_s > 0 else 0.0
            ),
            "hit_rate": (
                replay["tier_hits"] / accesses if accesses else 1.0
            ),
            "evictions": replay["tier_evictions"],
            "spilled_bytes": replay["tier_spilled_bytes"],
            "transfer_cycles": cycles,
            "transfer_cycles_per_token": (
                replay["tier_transfer_cycles_per_token"]
            ),
        }
    tightest = min(_BUDGET_PERCENTS)
    prefetch_cycles = out[f"budget_{tightest}"]["transfer_cycles"]
    no_prefetch_cycles = tiered(tightest, prefetch_pages=0).replay[
        "tier_transfer_cycles"
    ]
    out["no_prefetch_transfer_cycles"] = no_prefetch_cycles
    out["speedup_prefetch"] = (
        no_prefetch_cycles / prefetch_cycles if prefetch_cycles else 0.0
    )
    return out


def _tiering_summary(r) -> List[str]:
    pressure = "  ".join(
        f"{percent}%="
        f"{r[f'budget_{percent}']['transfer_cycles_per_token']:.0f}cyc/tok"
        for percent in _BUDGET_PERCENTS
    )
    return [
        f"tiered KV ({r['requests']} requests, "
        f"working set {r['working_set_bytes']:.0f} B):",
        f"  spill pressure {pressure}"
        f"  prefetch -> {r['speedup_prefetch']:.2f}x",
    ]


TIERING = scenario(
    "tiering",
    _tiering_scenario,
    sizes={
        "requests": 4, "inputs": 32, "outputs": QF(48, 96), "max_batch": 4,
    },
    speedups=("prefetch",),
    summary=_tiering_summary,
)


# -- prefix_sharing --------------------------------------------------

_BURST_SIZE = 6
_PREFIX_ROWS = 16
_UNIQUE_ROWS = 2
_CAPACITY_SEQUENCES = 6


def _admitted(factory, capacity_bytes: int, stream, fork_prefix: bool) -> int:
    """Sequences a capacity-bounded pool admits before refusing one."""
    from repro.engine import CacheCapacityError, KVCachePool

    pool = KVCachePool(factory, capacity_bytes=capacity_bytes)
    layers = range(2)
    shared = [
        (stream.draw(_PREFIX_ROWS), stream.draw(_PREFIX_ROWS))
        for _ in layers
    ]
    admitted = 0
    try:
        for index in range(64 * _CAPACITY_SEQUENCES):
            if fork_prefix and index > 0:
                pool.fork(0, index, _PREFIX_ROWS)
            else:
                pool.allocate(index)
                for layer in layers:
                    pool.append(index, layer, *shared[layer])
            for layer in layers:
                pool.append(
                    index, layer,
                    stream.draw(_UNIQUE_ROWS), stream.draw(_UNIQUE_ROWS),
                )
            admitted += 1
    except CacheCapacityError:
        pool.free(index)
    return admitted


def _sharing_scenario(ctx) -> Dict[str, object]:
    """Footprint and admission capacity of the copy-on-write pool.

    Two deterministic comparisons against a no-sharing twin:

    * **Footprint**: the shared-system-prompt RAG trace replayed
      twice — once as generated (the replay forks within each burst's
      prefix group) and once with the sharing annotations stripped
      (every request re-encodes its full prompt).
      ``speedup_footprint`` is the peak-pool-bytes ratio; sharing
      changes storage, never results, so the generated token counts
      must match.

    * **Admission capacity**: sequences admitted into a
      capacity-bounded fused pool before :class:`CacheCapacityError`,
      each a shared prefix plus a few unique rows.  The no-sharing
      pool pays the full prefix per sequence; the sharing pool forks
      it and pays only the unique suffix, so ``speedup_admission`` is
      the capacity face of charging shared bytes once.

    Both halves are simulation/accounting only — bit-stable for a
    fixed seed, like ``cluster``.
    """
    import dataclasses

    from repro.data.traces import generate_rag_trace
    from repro.engine import (
        KVCachePool,
        SyntheticKVStream,
        shared_backend_factory,
    )

    # Short decodes keep the replayed footprint prompt-dominated (the
    # storage sharing actually deduplicates); the full prompt sample
    # makes the shared fraction visible at replay scale.
    trace = [
        dataclasses.replace(item, output_tokens=min(item.output_tokens, 12))
        for item in generate_rag_trace(
            num_bursts=ctx.bursts, burst_size=_BURST_SIZE, seed=0
        )
    ]
    stripped = [
        dataclasses.replace(item, prefix_group=-1, shared_tokens=0)
        for item in trace
    ]
    sharing = replay_trace(trace, _BURST_SIZE, prompt_rows=48)
    nosharing = replay_trace(stripped, _BURST_SIZE, prompt_rows=48)
    if sharing.generated_tokens != nosharing.generated_tokens:
        raise AssertionError(
            "prefix sharing changed the generated token count: "
            f"{sharing.generated_tokens} != {nosharing.generated_tokens}"
        )
    if not sharing.replay["forks"]:
        raise AssertionError("RAG replay took zero forks")

    # Admission capacity under a fixed byte budget.
    stream = SyntheticKVStream(32, seed=0)
    factory = shared_backend_factory(
        "oaken", calibration=stream.calibration(2, 64)
    )
    probe = KVCachePool(factory)
    probe.allocate(0)
    for layer in range(2):
        probe.append(
            0, layer,
            stream.draw(_PREFIX_ROWS + _UNIQUE_ROWS),
            stream.draw(_PREFIX_ROWS + _UNIQUE_ROWS),
        )
    capacity_bytes = probe.nbytes() * _CAPACITY_SEQUENCES
    admitted_nosharing = _admitted(factory, capacity_bytes, stream, False)
    admitted_sharing = _admitted(factory, capacity_bytes, stream, True)
    peak, nosharing_peak = (
        report.replay["peak_pool_bytes"] for report in (sharing, nosharing)
    )
    return {
        "requests": len(trace),
        "sharing_peak_pool_bytes": peak,
        "nosharing_peak_pool_bytes": nosharing_peak,
        "forks": sharing.replay["forks"],
        "shared_bytes_saved": sharing.replay["shared_bytes_saved"],
        "speedup_footprint": nosharing_peak / peak,
        "capacity_bytes": capacity_bytes,
        "admitted_nosharing": float(admitted_nosharing),
        "admitted_sharing": float(admitted_sharing),
        "speedup_admission": (
            admitted_sharing / admitted_nosharing
            if admitted_nosharing else 0.0
        ),
    }


SHARING = scenario(
    "prefix_sharing",
    _sharing_scenario,
    sizes={"bursts": QF(3, 4)},
    speedups=("footprint", "admission"),
    summary=lambda r: [
        f"prefix sharing ({r['requests']} requests, {r['forks']:.0f} forks):",
        f"  footprint {r['nosharing_peak_pool_bytes']:.0f}"
        f" -> {r['sharing_peak_pool_bytes']:.0f} B"
        f"  -> {r['speedup_footprint']:.2f}x",
        f"  admission {r['admitted_nosharing']:.0f}"
        f" -> {r['admitted_sharing']:.0f} seqs"
        f"  -> {r['speedup_admission']:.1f}x",
    ],
)
