"""``repro capacity`` — max batch per serving system at a context.

The system column is one :func:`repro.hardware.sweep.capacity_grid`
call, which loops the scalar planner
(:func:`repro.hardware.perf.max_supported_batch`).
"""

from __future__ import annotations

import argparse
import sys


def register(sub) -> None:
    capacity = sub.add_parser(
        "capacity", help="max batch per serving system at a context"
    )
    capacity.add_argument("--model", default="llama2-13b")
    capacity.add_argument("--context", type=int, default=2048)
    capacity.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.experiments.common import TextTable
    from repro.hardware.overheads import SERVING_SYSTEMS
    from repro.hardware.sweep import capacity_grid
    from repro.models.config import get_model

    names = list(SERVING_SYSTEMS)
    try:
        arch = get_model(args.model).arch
        batches = capacity_grid(names, args.model, [args.context])
    except ValueError as exc:
        print(f"repro capacity: {exc}", file=sys.stderr)
        return 2
    table = TextTable(
        ["system", "device", "kv_bits", f"max_batch@{args.context}"]
    )
    for i, name in enumerate(names):
        system = SERVING_SYSTEMS[name]
        table.add_row(
            [
                system.name,
                system.device_for(arch).name,
                f"{system.kv_bits(arch):.2f}",
                int(batches[i, 0]),
            ]
        )
    print(f"capacity plan for {args.model} at {args.context} tokens")
    print(table.render())
    return 0
