"""``repro datapath`` — stream KV through the Figure 9 datapaths."""

from __future__ import annotations

import argparse
import sys

import numpy as np


def register(sub) -> None:
    datapath = sub.add_parser(
        "datapath", help="stream KV through the Figure 9 datapaths"
    )
    datapath.add_argument("--ratios", default="4/90/6")
    datapath.add_argument("--tokens", type=int, default=32)
    datapath.add_argument("--dim", type=int, default=128)
    datapath.add_argument("--seed", type=int, default=0)
    datapath.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.core.config import OakenConfig
    from repro.core.reference import ReferenceOakenQuantizer
    from repro.core.thresholds import profile_thresholds
    from repro.hardware.datapath import EngineBackedQuantizer

    try:
        if args.tokens < 0:
            raise ValueError(f"--tokens must be >= 0, got {args.tokens}")
        if args.dim < 1:
            raise ValueError(f"--dim must be >= 1, got {args.dim}")
        config = OakenConfig.from_ratio_string(args.ratios)
    except ValueError as exc:
        print(f"repro datapath: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    samples = [
        rng.standard_normal((64, args.dim)) * 3.0 for _ in range(8)
    ]
    thresholds = profile_thresholds(samples, config)
    slab = rng.standard_normal((args.tokens, args.dim)) * 3.0

    engine = EngineBackedQuantizer(config, thresholds)
    encoded = engine.quantize(slab)
    restored = engine.dequantize(encoded)
    # The golden model: the frozen seed kernels.
    golden = ReferenceOakenQuantizer(config, thresholds)
    reference = golden.quantize(slab)
    bits_match = bool(
        np.array_equal(encoded.dense_codes, reference.dense_codes)
        and np.array_equal(restored, golden.dequantize(reference))
    )
    print(f"{args.tokens} tokens x {args.dim} dim, groups {args.ratios}")
    print(f"bit-exact vs golden model: {bits_match}")
    for name, report in (
        ("quant ", engine.quant_timing.report(encoded)),
        ("dequant", engine.dequant_timing.report(encoded)),
    ):
        print(
            f"{name} engine: {report.total_cycles} cycles "
            f"({report.time_s(1.0) * 1e6:.2f} us @ 1 GHz)"
        )
        for stage, fraction in sorted(report.occupancy().items()):
            print(f"    {stage:22s} {fraction:6.2%}")
    return 0 if bits_match else 1
