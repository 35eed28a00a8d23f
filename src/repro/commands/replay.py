"""``repro replay`` — token-level single-replica trace replay."""

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

    replay = sub.add_parser(
        "replay",
        help="token-level single-replica replay (tiered KV optional)",
    )
    replay.add_argument("--model", default="llama2-13b")
    replay.add_argument("--system", default="oaken-hbm")
    replay.add_argument("--batch", type=int, default=8)
    replay.add_argument(
        "--method", default="oaken", choices=BASELINE_NAMES,
        help="registry method backing the miniature replay caches",
    )
    replay.add_argument(
        "--trace", default="conversation",
        choices=("conversation", "burstgpt"),
    )
    replay.add_argument(
        "--workload", default="trace",
        choices=("trace", "multiturn", "burst", "rag", "longcontext"),
        help="arrival structure; multiturn/rag carry shared prefixes "
             "the pool forks, longcontext stretches outputs far past "
             "the device budget to exercise spill",
    )
    replay.add_argument("--requests", type=int, default=16)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--arena", action="store_true",
        help="back the replay pool with the structure-of-arrays KV "
             "arena (bit-identical reads, arena_* occupancy counters "
             "in the report; fused methods only)",
    )
    add_tiering_flags(replay)
    add_profile_flags(replay)
    replay.add_argument(
        "--json", action="store_true",
        help="emit the full ServingReport as JSON",
    )
    replay.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    import json

    from repro.hardware.overheads import get_system
    from repro.models.config import get_model
    from repro.serving.simulator import CacheReplayConfig, simulate_trace

    try:
        check_counts(args, "batch", "requests")
        replay = replay_config(args)
        if replay is None:
            # Token-level replay is this subcommand's whole point: even
            # without a device budget it runs the measured-footprint
            # pool (untiered) rather than the analytic capacity model.
            replay = CacheReplayConfig(
                method=args.method, arena=args.arena,
                charge_transfer_cycles=args.charge_transfer_cycles,
            )
    except ValueError as exc:
        print(f"repro replay: {exc}", file=sys.stderr)
        return 2
    arch = get_model(args.model).arch
    system = get_system(args.system)
    trace = build_trace(args)
    report = run_profiled(
        args,
        lambda: simulate_trace(
            system, arch, trace, args.batch, replay=replay,
        ),
    )
    if args.json:
        out = dict(report.__dict__)
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0 if not report.oom else 1
    if report.oom:
        print(f"{args.system} / {args.model}: OOM")
        return 1
    print(
        f"{args.system} / {args.model} @ batch {args.batch}, "
        f"{len(trace)} requests ({args.workload}/{args.trace}, "
        f"method {args.method})"
    )
    print(
        f"  generated {report.generated_tokens} tokens, "
        f"{report.generation_throughput:,.1f} tokens/s, "
        f"makespan {report.total_time_s:.2f} s"
    )
    print(
        f"  latency mean {report.mean_latency_s:.3f} s  "
        f"p95 {report.p95_latency_s:.3f} s  "
        f"ttft p95 {report.p95_ttft_s:.3f} s"
    )
    detail = report.replay or {}
    print(
        f"  pool peak {detail.get('peak_pool_bytes', 0.0):,.0f} B  "
        f"gate refusals {detail.get('gate_refusals', 0.0):.0f}"
    )
    if args.device_budget_mb is not None:
        print(
            f"  tiering ({detail.get('eviction', args.eviction)}, "
            f"{args.device_budget_mb} MiB device): "
            f"hits {detail.get('tier_hits', 0.0):.0f}  "
            f"misses {detail.get('tier_misses', 0.0):.0f}  "
            f"evictions {detail.get('tier_evictions', 0.0):.0f}"
        )
        print(
            f"    spilled {detail.get('tier_spilled_bytes', 0.0):,.0f} B  "
            f"transfer {detail.get('tier_transfer_cycles', 0.0):,.0f} "
            "cycles "
            f"({detail.get('tier_transfer_cycles_per_token', 0.0):,.1f}"
            "/token)"
        )
    return 0
