"""``repro cluster`` — fault-tolerant multi-replica serving replay."""

from __future__ import annotations

import argparse
import sys

from repro.commands.common import (
    add_profile_flags,
    add_tiering_flags,
    build_trace,
    check_counts,
    replay_config,
    run_profiled,
)


def register(sub) -> None:
    from repro.baselines.registry import BASELINE_NAMES
    from repro.serving.cluster import ROUTER_POLICIES

    cluster = sub.add_parser(
        "cluster",
        help="fault-tolerant multi-replica serving replay",
    )
    cluster.add_argument("--model", default="llama2-13b")
    cluster.add_argument("--system", default="oaken-hbm")
    cluster.add_argument("--replicas", type=int, default=2)
    cluster.add_argument("--batch", type=int, default=8)
    cluster.add_argument(
        "--method", default="oaken", choices=BASELINE_NAMES,
        help="registry method for the replay caches "
             "(with --device-budget-mb)",
    )
    cluster.add_argument(
        "--policy", default="least_loaded", choices=ROUTER_POLICIES
    )
    cluster.add_argument(
        "--trace", default="conversation",
        choices=("conversation", "burstgpt"),
    )
    cluster.add_argument(
        "--workload", default="trace",
        choices=("trace", "multiturn", "burst", "rag", "longcontext"),
        help="arrival structure: plain trace, multi-turn sessions "
             "(shared prefixes), wave bursts, shared-system-prompt "
             "RAG bursts, or long-context spill",
    )
    cluster.add_argument("--requests", type=int, default=48)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--cache-replay", action="store_true",
        help="drive a real KVCachePool per replica even without "
             "--device-budget-mb, so shared-prefix workloads fork "
             "instead of re-prefilling (forks / shared_bytes_saved "
             "in the report)",
    )
    cluster.add_argument(
        "--faults", action="store_true",
        help="inject a seeded random fault plan (crashes, brownouts, "
             "admission blackouts) scaled to the replay length",
    )
    cluster.add_argument("--fault-seed", type=int, default=0)
    cluster.add_argument(
        "--arena", action="store_true",
        help="back each replica's replay pool with the "
             "structure-of-arrays KV arena (implies --cache-replay)",
    )
    add_tiering_flags(cluster)
    add_profile_flags(cluster)
    cluster.add_argument(
        "--json", action="store_true",
        help="emit the full ClusterReport as JSON",
    )
    cluster.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    import json

    from repro.hardware.overheads import get_system
    from repro.models.config import get_model
    from repro.serving.cluster import ClusterConfig, simulate_cluster
    from repro.serving.faults import generate_fault_plan

    try:
        check_counts(args, "replicas", "batch", "requests")
        config = ClusterConfig(
            replicas=args.replicas,
            max_batch=args.batch,
            policy=args.policy,
            replay=replay_config(args),
        )
    except ValueError as exc:
        print(f"repro cluster: {exc}", file=sys.stderr)
        return 2
    arch = get_model(args.model).arch
    system = get_system(args.system)
    trace = build_trace(args)
    faults = None
    if args.faults:
        # Scale the fault horizon to the fault-free makespan so the
        # plan actually lands inside the replay.
        clean = simulate_cluster(system, arch, trace, config)
        faults = generate_fault_plan(
            args.replicas, max(1.0, clean.total_time_s),
            seed=args.fault_seed,
        )
    report = run_profiled(
        args,
        lambda: simulate_cluster(system, arch, trace, config, faults),
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0
    if report.oom:
        print(f"{args.system} / {args.model}: OOM")
        return 1
    print(
        f"{args.system} / {args.model}: {report.replicas} replicas "
        f"({report.policy}), {len(trace)} requests"
    )
    print(
        f"  completed {report.completed}  failed {report.failed}  "
        f"lost {report.lost}"
    )
    print(
        f"  tokens/s {report.tokens_per_s:,.1f}  "
        f"makespan {report.total_time_s:.2f} s  "
        f"p99 queue delay {report.p99_queue_delay_s:.3f} s"
    )
    print(
        f"  failovers {report.failovers}  requeues {report.requeues}  "
        f"retries {report.retries}"
    )
    print(
        f"  detected failures {report.detected_failures}  "
        f"downtime {report.downtime_s:.2f} s"
    )
    if args.device_budget_mb is not None:
        print(
            f"  tiering ({args.eviction}, {args.device_budget_mb} MiB "
            f"device): hits {report.tier_hits}  "
            f"misses {report.tier_misses}  "
            f"evictions {report.tier_evictions}  "
            f"spilled {report.tier_spilled_bytes:,.0f} B  "
            f"transfer {report.tier_transfer_cycles:,.0f} cycles"
        )
    for row in report.per_replica:
        print(
            f"    replica {row['replica']:.0f}: "
            f"{row['generated_tokens']:.0f} tokens, "
            f"busy {row['busy_s']:.2f} s, "
            f"crashes {row['crashes']:.0f}, "
            f"downtime {row['downtime_s']:.2f} s"
        )
    return 0
