#!/usr/bin/env python
"""Trace one token through the Figure 9 engine datapaths.

Feeds a single KV vector (a one-token matrix) through the engine-backed
quantizer — the fused kernel, priced as the quantization engine would
run it — and prints what each module leaves in the encoded layout:
the decomposer's routing, the σ-calculator's FP16 scales, the fused
dense row and the zero-remove shifter's COO records.  Then it prices a
slab with the engines' cycle reports, reads it back through the
dequantization engine (whose zero-insert shifter checks every fused
nibble), and verifies the reconstruction against the frozen seed
kernels bit for bit.

Run:  python examples/datapath_trace.py
"""

import numpy as np

from repro.core import OakenConfig, OfflineProfiler
from repro.core.reference import ReferenceOakenQuantizer
from repro.hardware.datapath import EngineBackedQuantizer


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

    engine = EngineBackedQuantizer(config, thresholds)
    token = make_kv(tokens=1, seed=999)
    encoded = engine.quantize(token)

    # --- pass 1: decomposer routing, read off the sparse stream ------
    names = {-1: "middle", 0: "outer", 1: "inner"}
    group = np.full(token.shape[1], -1)
    group[encoded.sparse_pos] = encoded.sparse_band
    print("\npass 1 — decomposer routing (first 8 elements):")
    for pos in range(8):
        print(f"  pos {pos:2d}  value {token[0, pos]:+7.3f}"
              f"  -> {names[group[pos]]}")
    counts = {name: int((group == g).sum()) for g, name in names.items()}
    print(f"  group census: {counts} (of {group.size} elements)")

    # --- σ-calculator turnaround --------------------------------------
    print("\nσ-calculator — per-group FP16 scale bounds:")
    mag_bits = config.outlier_bits - 1
    print(f"  middle: lo={encoded.middle_lo[0]:+7.3f} "
          f"hi={encoded.middle_hi[0]:+7.3f} ({config.inlier_bits}-bit codes)")
    for band in (0, 1):
        print(f"  {names[band]:6s}: lo={encoded.band_lo[0, band]:+7.3f} "
              f"hi={encoded.band_hi[0, band]:+7.3f} ({mag_bits}-bit codes)")

    # --- pass 2: fused dense row + zero-remove shifter -----------------
    print("\npass 2 — fused dense row (first 16 nibbles): "
          f"{encoded.dense_codes[0, :16].tolist()}")
    print(f"zero-remove shifter emitted {encoded.num_outliers} COO "
          "records:")
    for i in range(min(6, encoded.num_outliers)):
        pos = int(encoded.sparse_pos[i])
        print(f"  pos {pos:2d} -> chunk {pos // config.chunk_size}, "
              f"idx {pos % config.chunk_size:2d}, "
              f"band {encoded.sparse_band[i]}, "
              f"side={int(encoded.sparse_side[i])}, "
              f"mag={encoded.sparse_mag_code[i]:2d}, "
              f"nibble={encoded.dense_codes[0, pos]}")

    # --- full matrix + cycle report -----------------------------------
    slab = make_kv(tokens=32, seed=7)
    encoded = engine.quantize(slab)
    cycles = engine.quant_timing.report(encoded)
    print(f"\n32-token slab: {cycles.total_cycles} cycles "
          f"({cycles.time_s(1.0) * 1e9:.0f} ns @ 1 GHz), "
          f"stage occupancy:")
    for name, fraction in sorted(cycles.occupancy().items()):
        print(f"  {name:20s} {fraction:6.2%}")

    # --- read back through the zero-insert path ----------------------
    restored = engine.dequantize(encoded)
    golden = ReferenceOakenQuantizer(config, thresholds)
    np.testing.assert_array_equal(restored, golden.roundtrip(slab))
    error = np.abs(restored - slab)
    print(f"\nzero-insert readback verified bit-exact vs golden model; "
          f"mean |error| = {error.mean():.4f}, max = {error.max():.4f}")


if __name__ == "__main__":
    main()
