#!/usr/bin/env python
"""Trace one token through the Figure 9 engine datapaths.

Feeds a single KV vector (a one-token matrix) through the quantization
engine's stages one at a time — decomposer, min/max finder,
σ-calculator, quantizers, zero-remove shifter — prints what each module
sees, then reads a slab back through the dequantization engine's
zero-insert path and verifies the reconstruction matches the golden
model bit for bit.

Run:  python examples/datapath_trace.py
"""

import numpy as np

from repro.core import OakenConfig, OakenQuantizer, OfflineProfiler
from repro.core.grouping import MIDDLE_GROUP
from repro.hardware.datapath import (
    VectorizedDecomposer,
    VectorizedDequantEngine,
    VectorizedMinMaxFinder,
    VectorizedOutlierExtractor,
    VectorizedQuantEngine,
    VectorizedScaleCalculator,
)


def make_kv(tokens: int, seed: int) -> np.ndarray:
    """Synthesize KV rows with channel-concentrated outliers."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((tokens, 64))
    x[:, [3, 29, 51]] *= 10.0  # outlier channels (Observation 3)
    return x


def main() -> None:
    config = OakenConfig()
    profiler = OfflineProfiler(config)
    for run in range(50):
        profiler.observe(make_kv(tokens=64, seed=run))
    thresholds = profiler.finalize()
    t_lo_o, t_lo_i, t_hi_i, t_hi_o = thresholds.as_eq1_tuple()
    print("control registers (offline thresholds):")
    print(f"  T_lo_outer={t_lo_o:+.3f}  T_lo_inner={t_lo_i:+.3f}  "
          f"T_hi_inner={t_hi_i:+.3f}  T_hi_outer={t_hi_o:+.3f}")

    token = make_kv(tokens=1, seed=999)

    # --- pass 1: decomposer + min/max finder -------------------------
    decomposer = VectorizedDecomposer(config, thresholds)
    raw, group, shifted, side = (a[0] for a in decomposer.route(token))
    finder = VectorizedMinMaxFinder(config.num_sparse_bands)
    mid_lo, mid_hi, band_lo, band_hi = finder.ranges(
        group[None], shifted[None]
    )
    names = {MIDDLE_GROUP: "middle", 0: "outer", 1: "inner"}
    print("\npass 1 — decomposer routing (first 8 elements):")
    for pos in range(8):
        print(f"  pos {pos:2d}  value {raw[pos]:+7.3f}"
              f"  -> {names[group[pos]]:6s}  shifted "
              f"{shifted[pos]:+7.3f}  side={side[pos]}")
    counts = {name: int((group == g).sum()) for g, name in names.items()}
    print(f"  group census: {counts} (of {group.size} elements)")

    # --- σ-calculator turnaround --------------------------------------
    calc = VectorizedScaleCalculator(config)
    print("\nσ-calculator — per-group FP16 scales:")
    ranges = {
        MIDDLE_GROUP: (mid_lo, mid_hi),
        0: (band_lo[:, 0], band_hi[:, 0]),
        1: (band_lo[:, 1], band_hi[:, 1]),
    }
    for g, (lo, hi) in ranges.items():
        middle = g == MIDDLE_GROUP
        lo16, hi16, sigma = calc.scales(lo, hi, middle=middle)
        print(f"  {names[g]:6s}: lo={lo16[0]:+7.3f} "
              f"hi={hi16[0]:+7.3f} sigma={sigma[0]:7.3f} "
              f"({calc.group_bits(middle)}-bit codes)")

    # --- pass 2: engine end to end ------------------------------------
    engine = VectorizedQuantEngine(config, thresholds)
    encoded, _ = engine.quantize_matrix(token)
    print("\npass 2 — fused dense row (first 16 nibbles): "
          f"{encoded.dense_codes[0, :16].tolist()}")
    nibbles = VectorizedOutlierExtractor(config).fused_nibbles(
        encoded.sparse_side, encoded.sparse_mag_code
    )
    print(f"zero-remove shifter emitted {encoded.num_outliers} COO "
          "records:")
    for i in range(min(6, encoded.num_outliers)):
        pos = int(encoded.sparse_pos[i])
        print(f"  pos {pos:2d} -> chunk {pos // config.chunk_size}, "
              f"idx {pos % config.chunk_size:2d}, "
              f"band {encoded.sparse_band[i]}, "
              f"side={int(encoded.sparse_side[i])}, "
              f"mag={encoded.sparse_mag_code[i]:2d}, "
              f"nibble={nibbles[i]}")

    # --- full matrix + cycle report -----------------------------------
    slab = make_kv(tokens=32, seed=7)
    encoded, cycles = engine.quantize_matrix(slab)
    print(f"\n32-token slab: {cycles.total_cycles} cycles "
          f"({cycles.time_s(1.0) * 1e9:.0f} ns @ 1 GHz), "
          f"stage occupancy:")
    for name, fraction in sorted(cycles.occupancy().items()):
        print(f"  {name:20s} {fraction:6.2%}")

    # --- read back through the zero-insert path ----------------------
    dequant = VectorizedDequantEngine(config, thresholds)
    restored, _ = dequant.dequantize_matrix(encoded)
    golden = OakenQuantizer(config, thresholds)
    np.testing.assert_array_equal(restored, golden.roundtrip(slab))
    error = np.abs(restored - slab)
    print(f"\nzero-insert readback verified bit-exact vs golden model; "
          f"mean |error| = {error.mean():.4f}, max = {error.max():.4f}")


if __name__ == "__main__":
    main()
