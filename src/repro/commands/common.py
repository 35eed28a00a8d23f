"""Shared helpers for the command modules.

The ``replay`` and ``cluster`` subcommands grew near-identical
trace-construction, replay-config, and profiling plumbing inside the
old monolithic ``cli.py``; this module is their single home.  Heavy
imports stay inside the functions so ``python -m repro --help`` keeps
its fast startup.
"""

from __future__ import annotations

import argparse


def build_trace(args: argparse.Namespace):
    """Trace construction shared by the replay/cluster subcommands.

    Dispatches on ``--workload``: plain trace, multi-turn sessions,
    wave bursts, shared-system-prompt RAG bursts, or long-context
    spill — the knobs (``--trace``, ``--requests``, ``--seed``) parse
    identically for both subcommands, pinned by
    ``tests/test_cli_commands.py``.
    """
    from repro.data.traces import (
        generate_burst_trace,
        generate_longcontext_trace,
        generate_multiturn_trace,
        generate_rag_trace,
        generate_trace,
    )

    if args.workload == "multiturn":
        return generate_multiturn_trace(
            args.trace, num_sessions=max(1, args.requests // 3),
            seed=args.seed,
        )
    if args.workload == "burst":
        return generate_burst_trace(
            args.trace, num_bursts=max(1, args.requests // 16),
            burst_size=16, seed=args.seed,
        )
    if args.workload == "rag":
        return generate_rag_trace(
            args.trace, num_bursts=max(1, args.requests // 8),
            burst_size=8, seed=args.seed,
        )
    if args.workload == "longcontext":
        return generate_longcontext_trace(
            args.trace, num_requests=args.requests, seed=args.seed,
        )
    return generate_trace(args.trace, args.requests, seed=args.seed)


def replay_config(args: argparse.Namespace):
    """CacheReplayConfig from the tiering CLI flags, or None."""
    from repro.serving.simulator import CacheReplayConfig

    arena = getattr(args, "arena", False)
    charge = getattr(args, "charge_transfer_cycles", False)
    if args.device_budget_mb is None:
        if getattr(args, "cache_replay", False) or arena:
            # Pool-backed replay without a device budget: measured
            # admission plus prefix sharing (forks), untiered.
            return CacheReplayConfig(
                method=args.method, arena=arena,
                charge_transfer_cycles=charge,
            )
        return None
    return CacheReplayConfig(
        method=args.method,
        device_budget_mb=args.device_budget_mb,
        eviction=args.eviction,
        arena=arena,
        charge_transfer_cycles=charge,
    )


def check_counts(args: argparse.Namespace, *names: str) -> None:
    """Raise ``ValueError`` naming the first ``--flag`` in ``names``
    whose value is below 1, before anything runs."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be >= 1, got {value}")


def run_profiled(args: argparse.Namespace, fn):
    """Run ``fn`` under cProfile when profiling flags are set.

    ``--profile`` prints the top ``--profile-top`` cumulative-time rows
    to **stderr** (stdout stays clean for ``--json`` pipelines);
    ``--profile-out FILE`` dumps the raw pstats data for ``snakeviz``
    or ``pstats.Stats(FILE)`` sessions.  Without either flag this is a
    plain call.
    """
    profile_out = getattr(args, "profile_out", None)
    if not getattr(args, "profile", False) and not profile_out:
        return fn()
    import cProfile
    import pstats
    import sys

    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative")
    if getattr(args, "profile", False):
        stats.print_stats(getattr(args, "profile_top", 20))
    if profile_out:
        stats.dump_stats(profile_out)
    return result


def add_tiering_flags(p: argparse.ArgumentParser) -> None:
    """``--device-budget-mb`` / ``--eviction`` / transfer charging."""
    from repro.engine.tiering import EVICTION_POLICIES

    p.add_argument(
        "--device-budget-mb", type=float, default=None,
        help="enable the tiered paged KV hierarchy with this "
             "device-tier budget (MiB); cold pages spill to the "
             "host tier instead of refusing admission",
    )
    p.add_argument(
        "--eviction", default="lru", choices=EVICTION_POLICIES,
        help="device-tier eviction policy (with --device-budget-mb)",
    )
    p.add_argument(
        "--charge-transfer-cycles", action="store_true",
        help="charge modeled tier-transfer time into iteration "
             "latency (default: transfers are reported but free)",
    )


def add_profile_flags(p: argparse.ArgumentParser) -> None:
    """``--profile`` / ``--profile-top`` / ``--profile-out``."""
    p.add_argument(
        "--profile", action="store_true",
        help="wrap the run in cProfile and print the top "
             "cumulative-time hot spots to stderr",
    )
    p.add_argument(
        "--profile-top", type=int, default=20, metavar="N",
        help="rows printed by --profile (default 20)",
    )
    p.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="dump raw pstats data to FILE (works without "
             "--profile; load with pstats.Stats(FILE))",
    )
