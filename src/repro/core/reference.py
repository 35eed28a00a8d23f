"""Frozen seed implementation of the Oaken quantizer (golden reference).

This module preserves, verbatim, the original multi-pass quantize /
dequantize kernels that shipped with the seed repository.  The fused
single-pass kernel in :mod:`repro.core.quantizer` is required to stay
bit-identical to these functions (in float64 compute mode); the golden
equivalence tests in ``tests/test_quantizer_golden.py`` and the
perf-regression harness in :mod:`repro.bench` both treat this module as
the fixed baseline.

Do not optimize this file.  Its only jobs are (a) to define what
"correct" means for the fused kernel and (b) to be the "seed" side of
the speedup ratios recorded in ``BENCH_quant.json``.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import EncodedKV
from repro.core.grouping import assign_groups
from repro.core.quantizer import OakenQuantizer, _EPS, _fp16_round


def _rowwise_encode(
    shifted: np.ndarray,
    mask: np.ndarray,
    bits: int,
) -> tuple:
    """Per-row uniform quantization of ``shifted`` restricted to ``mask``.

    Returns ``(codes, lo, hi)`` where ``codes`` is a full [T, D] uint8
    matrix (garbage outside ``mask``), and ``lo`` / ``hi`` are the
    FP16-rounded per-row scale bounds.  This is the seed kernel: it
    computes and clips codes for every element, masked or not.
    """
    lo = np.min(np.where(mask, shifted, np.inf), axis=1)
    hi = np.max(np.where(mask, shifted, -np.inf), axis=1)
    empty = ~mask.any(axis=1)
    lo = np.where(empty, 0.0, lo)
    hi = np.where(empty, 0.0, hi)
    lo = _fp16_round(lo)
    hi = _fp16_round(hi)
    span = hi - lo
    sigma = np.where(span > _EPS, (2.0**bits - 1.0) / np.maximum(span, _EPS), 1.0)
    codes = np.round((shifted - lo[:, None]) * sigma[:, None])
    codes = np.clip(codes, 0, 2**bits - 1).astype(np.uint8)
    return codes, lo, hi


def _rowwise_decode(
    codes: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int
) -> np.ndarray:
    """Inverse of :func:`_rowwise_encode` over the full matrix."""
    span = hi - lo
    sigma = np.where(span > _EPS, (2.0**bits - 1.0) / np.maximum(span, _EPS), 1.0)
    return codes.astype(np.float64) / sigma[:, None] + lo[:, None]


def reference_quantize(quantizer: OakenQuantizer, values: np.ndarray) -> EncodedKV:
    """The seed ``OakenQuantizer.quantize``: one dense pass per band."""
    x = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"expected a [T, D] matrix, got shape {x.shape}")
    cfg = quantizer.config
    thr = quantizer.thresholds
    partition = assign_groups(x, thr)
    labels = partition.labels

    # --- dense middle group -------------------------------------------------
    mid_lo_edge, mid_hi_edge = thr.middle_shift_edges()
    if cfg.group_shift:
        shifted_mid = np.where(x > 0, x - mid_hi_edge, x - mid_lo_edge)
    else:
        shifted_mid = x
    middle_mask = partition.middle_mask
    dense_codes, middle_lo, middle_hi = _rowwise_encode(
        shifted_mid, middle_mask, cfg.inlier_bits
    )
    dense_codes = np.where(middle_mask, dense_codes, 0).astype(np.uint8)

    # --- sparse bands -------------------------------------------------------
    num_bands = cfg.num_sparse_bands
    tokens = x.shape[0]
    band_lo = np.zeros((tokens, num_bands), dtype=np.float64)
    band_hi = np.zeros((tokens, num_bands), dtype=np.float64)
    mag_bits = cfg.outlier_bits - 1
    # Per-element magnitude code and side flag, defined on band slots.
    mag_code_matrix = np.zeros(x.shape, dtype=np.uint8)
    side_matrix = np.zeros(x.shape, dtype=bool)
    for band in range(num_bands):
        mask = labels == band
        lo_edge, hi_edge = thr.band_shift_edges(band)
        if cfg.group_shift:
            magnitude = np.where(x > 0, x - hi_edge, lo_edge - x)
            side = x > 0
        else:
            # Ablation: quantize raw band values; "side" carries the
            # code MSB instead of a geometric side.
            magnitude = x
            side = np.zeros(x.shape, dtype=bool)
        bits = mag_bits if cfg.group_shift else cfg.outlier_bits
        codes, lo, hi = _rowwise_encode(magnitude, mask, bits)
        band_lo[:, band] = lo
        band_hi[:, band] = hi
        mag_code_matrix = np.where(mask, codes, mag_code_matrix)
        side_matrix = np.where(mask, side, side_matrix)

    # --- COO stream ---------------------------------------------------------
    outlier_mask = partition.outlier_mask
    sparse_token, sparse_pos = np.nonzero(outlier_mask)
    sparse_band = labels[sparse_token, sparse_pos].astype(np.int16)
    sparse_side = side_matrix[sparse_token, sparse_pos]
    sparse_mag = mag_code_matrix[sparse_token, sparse_pos]

    sparse_fp16 = None
    if cfg.fused_encoding:
        # Embed the low `inlier_bits` of each outlier code into its
        # zeroed dense slot.  For 5-bit outliers that is the full
        # 4-bit magnitude; the side bit travels in the COO record.
        # For 4-bit outliers the side bit rides in the nibble too.
        if cfg.group_shift:
            full_code = (
                sparse_side.astype(np.uint16) << mag_bits
            ) | sparse_mag.astype(np.uint16)
        else:
            full_code = sparse_mag.astype(np.uint16)
        nibble = full_code & ((1 << cfg.inlier_bits) - 1)
        dense_codes[sparse_token, sparse_pos] = nibble.astype(np.uint8)
    else:
        # Naive 23-bit layout: exact FP16 outliers, dense slot zeroed.
        sparse_fp16 = x[sparse_token, sparse_pos].astype(np.float16)
        dense_codes[sparse_token, sparse_pos] = 0

    return EncodedKV(
        config=cfg,
        thresholds=thr,
        shape=x.shape,
        dense_codes=dense_codes,
        middle_lo=middle_lo.astype(np.float32),
        middle_hi=middle_hi.astype(np.float32),
        band_lo=band_lo.astype(np.float32),
        band_hi=band_hi.astype(np.float32),
        sparse_token=sparse_token.astype(np.int64),
        sparse_pos=sparse_pos.astype(np.int64),
        sparse_band=sparse_band,
        sparse_side=sparse_side,
        sparse_mag_code=sparse_mag.astype(np.uint8),
        sparse_fp16=sparse_fp16,
    )


def reference_dequantize(
    quantizer: OakenQuantizer, encoded: EncodedKV
) -> np.ndarray:
    """The seed ``OakenQuantizer.dequantize``: full-matrix float64 decode."""
    cfg = quantizer.config
    thr = quantizer.thresholds
    # Middle group: decode everything, then overwrite outlier slots.
    shifted = _rowwise_decode(
        encoded.dense_codes,
        encoded.middle_lo.astype(np.float64),
        encoded.middle_hi.astype(np.float64),
        cfg.inlier_bits,
    )
    mid_lo_edge, mid_hi_edge = thr.middle_shift_edges()
    if cfg.group_shift:
        out = np.where(shifted >= 0, shifted + mid_hi_edge,
                       shifted + mid_lo_edge)
    else:
        out = shifted

    token = encoded.sparse_token
    pos = encoded.sparse_pos
    if token.size:
        if encoded.sparse_fp16 is not None:
            out[token, pos] = encoded.sparse_fp16.astype(np.float64)
        else:
            band = encoded.sparse_band.astype(np.int64)
            lo = encoded.band_lo.astype(np.float64)[token, band]
            hi = encoded.band_hi.astype(np.float64)[token, band]
            mag_bits = cfg.outlier_bits - 1
            bits = mag_bits if cfg.group_shift else cfg.outlier_bits
            span = hi - lo
            sigma = np.where(
                span > _EPS,
                (2.0**bits - 1.0) / np.maximum(span, _EPS),
                1.0,
            )
            mag = encoded.sparse_mag_code.astype(np.float64) / sigma + lo
            if cfg.group_shift:
                lo_edges = np.empty(cfg.num_sparse_bands)
                hi_edges = np.empty(cfg.num_sparse_bands)
                for b in range(cfg.num_sparse_bands):
                    lo_edges[b], hi_edges[b] = thr.band_shift_edges(b)
                restored = np.where(
                    encoded.sparse_side,
                    hi_edges[band] + mag,
                    lo_edges[band] - mag,
                )
            else:
                restored = mag
            out[token, pos] = restored

    return out.astype(np.float32)


class ReferenceOakenQuantizer(OakenQuantizer):
    """An :class:`OakenQuantizer` pinned to the seed multi-pass kernels.

    Used by the perf-regression harness as the "seed" side of every
    speedup ratio, and by the golden tests as the source of expected
    outputs.  Behaviour (including accounting) is otherwise identical,
    except that it never stacks (:meth:`stack`).
    """

    def quantize(self, values: np.ndarray) -> EncodedKV:
        return reference_quantize(self, values)

    def quantize_into(self, values: np.ndarray, scratch) -> EncodedKV:
        # The seed kernel has no streaming path; scratch is ignored.
        return reference_quantize(self, values)

    def dequantize(self, encoded: EncodedKV) -> np.ndarray:
        return reference_dequantize(self, encoded)

    def stack(self, quantizers) -> OakenQuantizer:
        """Refused: the seed kernel is a per-tensor oracle, so no cache
        or store runs on it."""
        raise ValueError(
            "ReferenceOakenQuantizer is the per-tensor kernel oracle and "
            "cannot back a KV cache; use OakenQuantizer"
        )
