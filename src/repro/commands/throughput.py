"""``repro throughput`` — simulate one generation run.

One call of the analytic model's scalar entry point
(:func:`repro.hardware.perf.simulate_generation_run`).
"""

from __future__ import annotations

import argparse
import sys


def register(sub) -> None:
    throughput = sub.add_parser(
        "throughput", help="simulate one generation run"
    )
    throughput.add_argument("--model", default="llama2-7b")
    throughput.add_argument("--system", default="oaken-lpddr")
    throughput.add_argument("--batch", type=int, default=64)
    throughput.add_argument("--input-tokens", type=int, default=1024)
    throughput.add_argument("--output-tokens", type=int, default=1024)
    throughput.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.hardware.overheads import get_system
    from repro.hardware.perf import simulate_generation_run
    from repro.models.config import get_model

    try:
        result = simulate_generation_run(
            get_system(args.system),
            get_model(args.model).arch,
            args.batch,
            input_tokens=args.input_tokens,
            output_tokens=args.output_tokens,
        )
    except ValueError as exc:
        print(f"repro throughput: {exc}", file=sys.stderr)
        return 2
    if result.oom:
        print(f"{args.system} / {args.model} @ batch {args.batch}: OOM")
        return 1
    print(
        f"{args.system} / {args.model} @ batch {args.batch} "
        f"({args.input_tokens}:{args.output_tokens}):"
    )
    print(f"  throughput:      {result.tokens_per_s:,.0f} tokens/s")
    print(f"  effective batch: {result.effective_batch}")
    print(f"  prefill:         {result.prefill_s:.3f} s")
    print(f"  generation:      {result.generation_s:.3f} s")
    if result.breakdown is not None:
        b = result.breakdown
        print(
            f"  mid-run iter:    nonattn {b.nonattn_s * 1e3:.2f} ms, "
            f"attn {b.attn_s * 1e3:.2f} ms, exposed overhead "
            f"{b.exposed_overhead_s * 1e3:.2f} ms"
        )
    return 0
