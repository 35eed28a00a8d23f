"""``repro quantize`` — quantizer demo on synthetic KV data."""

from __future__ import annotations

import argparse
import sys

import numpy as np


def register(sub) -> None:
    from repro.baselines.registry import BASELINE_NAMES

    quantize = sub.add_parser(
        "quantize", help="quantizer demo on synthetic KV data"
    )
    quantize.add_argument(
        "--method", default="oaken", choices=BASELINE_NAMES,
        help="any registry method, built via repro.engine",
    )
    quantize.add_argument("--ratios", default="4/90/6")
    quantize.add_argument("--outlier-bits", type=int, default=5)
    quantize.add_argument("--tokens", type=int, default=256)
    quantize.add_argument("--dim", type=int, default=128)
    quantize.add_argument("--seed", type=int, default=0)
    quantize.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.core.config import OakenConfig
    from repro.core.serialization import serialize
    from repro.engine import create_quantizer
    from repro.quant.metrics import signal_to_quantization_noise

    # Every registry method builds through the one engine factory; the
    # group-ratio knobs only parameterize the paper method.
    config = None
    try:
        if args.tokens < 1:
            raise ValueError(f"--tokens must be >= 1, got {args.tokens}")
        if args.dim < 1:
            raise ValueError(f"--dim must be >= 1, got {args.dim}")
        if args.method == "oaken":
            config = OakenConfig.from_ratio_string(
                args.ratios, outlier_bits=args.outlier_bits
            )
    except ValueError as exc:
        print(f"repro quantize: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.tokens, args.dim))
    outlier_channels = rng.choice(
        args.dim, size=max(1, args.dim // 20), replace=False
    )
    x[:, outlier_channels] *= 10.0
    quantizer = create_quantizer(args.method, "key", config=config)
    quantizer.fit([x])
    print(f"method: {args.method}")
    if config is not None:
        print(f"groups: {args.ratios} @ {args.outlier_bits}-bit outliers")
    print(f"tokens x dim: {args.tokens} x {args.dim}")
    if args.method == "oaken":
        # Encode once; the report lines all derive from this layout.
        encoded = quantizer.quantizer.quantize(x)
        restored = quantizer.quantizer.dequantize(encoded)
        footprint = encoded.footprint()
        print(f"outliers: {encoded.num_outliers / x.size:.2%}")
    else:
        restored = quantizer.roundtrip(x)
        footprint = quantizer.footprint(x)
    print(f"effective bits/element: {footprint.effective_bitwidth:.3f}")
    print(f"compression vs FP16: {footprint.compression_ratio():.2f}x")
    print(
        "SQNR: "
        f"{signal_to_quantization_noise(x, restored):.1f} dB"
    )
    if args.method == "oaken":
        blob = serialize(encoded)
        print(f"serialized stream: {len(blob):,} bytes")
    return 0
