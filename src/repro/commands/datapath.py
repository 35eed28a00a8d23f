"""``repro datapath`` — stream KV through the Figure 9 datapaths."""

from __future__ import annotations

import argparse

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
    from repro.core.quantizer import OakenQuantizer
    from repro.core.thresholds import profile_thresholds
    from repro.hardware.datapath import (
        VectorizedDequantEngine,
        VectorizedQuantEngine,
    )

    config = OakenConfig.from_ratio_string(args.ratios)
    rng = np.random.default_rng(args.seed)
    samples = [
        rng.standard_normal((64, args.dim)) * 3.0 for _ in range(8)
    ]
    thresholds = profile_thresholds(samples, config)
    slab = rng.standard_normal((args.tokens, args.dim)) * 3.0

    quant = VectorizedQuantEngine(config, thresholds)
    dequant = VectorizedDequantEngine(config, thresholds)
    golden = OakenQuantizer(config, thresholds)
    encoded, quant_cycles = quant.quantize_matrix(slab)
    restored, dequant_cycles = dequant.dequantize_matrix(encoded)
    reference = golden.quantize(slab)
    bits_match = bool(
        np.array_equal(encoded.dense_codes, reference.dense_codes)
        and np.array_equal(restored, golden.dequantize(reference))
    )
    print(f"{args.tokens} tokens x {args.dim} dim, groups {args.ratios}")
    print(f"bit-exact vs golden model: {bits_match}")
    for name, report in (
        ("quant ", quant_cycles), ("dequant", dequant_cycles),
    ):
        print(
            f"{name} engine: {report.total_cycles} cycles "
            f"({report.time_s(1.0) * 1e6:.2f} us @ 1 GHz)"
        )
        for stage, fraction in sorted(report.occupancy().items()):
            print(f"    {stage:22s} {fraction:6.2%}")
    return 0 if bits_match else 1
