"""Oaken's group-shift quantizer (paper Sections 4.3-4.5, Eq. 4).

The quantizer combines the three algorithmic components:

1. values are partitioned into groups with offline thresholds
   (:mod:`repro.core.grouping`),
2. the outer and middle groups are *group-shifted* by their thresholds
   so each group spans a narrow range near zero, then uniformly
   quantized with online per-token min/max scales
   (:mod:`repro.quant.uniform`),
3. the result is laid out with the fused dense-and-sparse encoding
   (:mod:`repro.core.encoding`).

Outlier codes are ``outlier_bits`` wide and decompose into one *side*
bit (which side of the band the value came from — positive or negative)
plus ``outlier_bits - 1`` magnitude bits.  Group-shift turns each band
into a non-negative magnitude distribution starting at zero, so the
side bit fully disambiguates reconstruction: there is no sign-recovery
ambiguity even for values just past a threshold.  The dense middle
group has no spare bit, so its (small, near-zero) shift is recovered
from the sign of the reconstructed shifted value; the worst-case error
of that recovery is bounded by the inner threshold, which is by
construction one of the smallest magnitudes in the tensor.

Everything here is vectorized over a [T, D] token-major matrix; the
per-token semantics are identical to quantizing each newly generated
KV vector as it streams out of the attention layer.

The encode path is a *fused single pass*: the sparse COO stream is
extracted first, per-(token, band) scale bounds come from segment
reductions over only the outlier elements, and the dense matrix is
touched exactly once — unlike the seed implementation (preserved in
:mod:`repro.core.reference`), which ran one full [T, D] pass per sparse
band.  The working dtype comes from the quantizer's
:class:`~repro.core.modes.ComputeMode` policy: in the default
``exact_f64`` mode the fused kernel is bit-identical to the seed
kernels; ``deploy_f32`` trades exactness within one code level (for
values that land within float32 epsilon of a rounding boundary or
group threshold) for roughly half the memory traffic on the hot
deployment path.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import OakenConfig
from repro.core.encoding import EncodedKV, sparse_record_bits
from repro.core.grouping import GroupThresholds
from repro.core.modes import (
    EXACT_F64,
    ComputeMode,
    ComputeModeLike,
    resolve_compute_mode,
)
from repro.core.thresholds import profile_thresholds

#: Guard below which a quantization range is treated as degenerate.
_EPS = 1e-12


def _fp16_round(values: np.ndarray) -> np.ndarray:
    """Round scale scalars to FP16 precision, as the hardware stores them."""
    return np.asarray(values, dtype=np.float16).astype(np.float64)


def _sigma(lo: np.ndarray, hi: np.ndarray, bits: int) -> np.ndarray:
    """Uniform-quantization scale factor of Eq. 2 with the seed's guard."""
    span = hi - lo
    return np.where(
        span > _EPS, (2.0**bits - 1.0) / np.maximum(span, _EPS), 1.0
    )


class QuantizeScratch:
    """Reusable work buffers for the fused kernel.

    Single-token appends during generation call the quantizer thousands
    of times on tiny [1, D] matrices, where buffer allocation is a
    measurable fraction of the cost.  A scratch object owned by the
    caller (e.g. one per :class:`~repro.core.kvcache.LayerKVCache`
    tensor) lets :meth:`OakenQuantizer.quantize_into` reuse its
    full-matrix temporaries across calls.  Buffers grow monotonically
    and are never shared between concurrent encodes.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def array(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A reusable uninitialized array of ``shape`` and ``dtype``."""
        need = 1
        for extent in shape:
            need *= int(extent)
        buf = self._buffers.get(key)
        if buf is None or buf.dtype != np.dtype(dtype) or buf.size < need:
            buf = np.empty(max(need, 1), dtype=dtype)
            self._buffers[key] = buf
        return buf[:need].reshape(shape)


def _outlier_coo(
    x: np.ndarray, thr: GroupThresholds
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the sparse stream: (token, pos, band) in row-major order.

    Replicates :func:`repro.core.grouping.assign_groups` exactly without
    materializing the full label matrix:

    * outer bands are nested suffix sets (thresholds widen outward), so
      the claimed band is the count of *unsatisfied* more-extreme bands;
    * inner shells are nested prefix sets (magnitude edges shrink
      inward), so the claimed band is the innermost containing shell;
    * outer claims take precedence, as in the sequential assignment.
    """
    mask: Optional[np.ndarray] = None
    if thr.num_outer_bands:
        lo = thr.outer_lo[-1]
        hi = thr.outer_hi[-1]
        mask = (x > hi) | (x < lo)
    if thr.num_inner_bands:
        mag_edge = thr.inner_mag[0]
        inner = (x <= mag_edge) & (x >= -mag_edge)
        mask = inner if mask is None else (mask | inner)
    if mask is None:
        token = np.zeros(0, dtype=np.int64)
        return token, token.copy(), token.copy()

    token, pos = np.nonzero(mask)
    xg = x[token, pos]

    band = np.zeros(xg.shape, dtype=np.int64)
    is_outer = np.zeros(xg.shape, dtype=bool)
    if thr.num_outer_bands:
        # Count leading bands the element does NOT fall in.
        unsat = np.zeros(xg.shape, dtype=np.int64)
        for j in range(thr.num_outer_bands):
            unsat += (xg >= thr.outer_lo[j]) & (xg <= thr.outer_hi[j])
        is_outer = unsat < thr.num_outer_bands
        band = np.where(is_outer, unsat, 0)
    if thr.num_inner_bands:
        shells = np.zeros(xg.shape, dtype=np.int64)
        for j in range(thr.num_inner_bands):
            edge = thr.inner_mag[j]
            shells += (xg <= edge) & (xg >= -edge)
        inner_band = thr.num_outer_bands + np.maximum(shells, 1) - 1
        band = np.where(is_outer, band, inner_band)
    return token.astype(np.int64), pos.astype(np.int64), band


def _band_edges(
    cfg: OakenConfig, thr: GroupThresholds
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-band (negative-side, positive-side) shift offsets as arrays."""
    lo_edges = np.empty(cfg.num_sparse_bands)
    hi_edges = np.empty(cfg.num_sparse_bands)
    for b in range(cfg.num_sparse_bands):
        lo_edges[b], hi_edges[b] = thr.band_shift_edges(b)
    return lo_edges, hi_edges


def _segment_bounds(
    token: np.ndarray,
    band: np.ndarray,
    mag: np.ndarray,
    tokens: int,
    num_bands: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """FP16-rounded per-(token, band) min/max of the outlier magnitudes.

    The COO stream is token-sorted, so each (token, band) group is a set
    of contiguous-by-token runs; one ``reduceat`` per band over the
    band's subsequence computes all row bounds in O(nnz) without ever
    touching the dense matrix.  Empty groups keep the seed convention
    ``lo = hi = 0``.
    """
    band_lo = np.zeros((tokens, num_bands), dtype=np.float64)
    band_hi = np.zeros((tokens, num_bands), dtype=np.float64)
    for b in range(num_bands):
        sel = band == b
        if not np.any(sel):
            continue
        tok_b = token[sel]
        mag_b = mag[sel]
        starts = np.flatnonzero(np.diff(tok_b)) + 1
        starts = np.concatenate(([0], starts))
        rows = tok_b[starts]
        band_lo[rows, b] = _fp16_round(np.minimum.reduceat(mag_b, starts))
        band_hi[rows, b] = _fp16_round(np.maximum.reduceat(mag_b, starts))
    return band_lo, band_hi


def _fused_quantize(
    cfg: OakenConfig,
    thr: GroupThresholds,
    values: np.ndarray,
    compute_dtype=np.float64,
    scratch: Optional[QuantizeScratch] = None,
) -> EncodedKV:
    """Single-pass fused encode of a [T, D] matrix.

    Pipeline: COO extraction -> gathered per-band encode (segment
    reductions over outliers only) -> one dense in-place encode pass
    with outlier slots neutralized by an inf-scatter -> fused nibble
    embed.  With ``compute_dtype=float64`` every emitted array is
    bit-identical to :func:`repro.core.reference.reference_quantize`.
    """
    x = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"expected a [T, D] matrix, got shape {x.shape}")
    wdtype = np.dtype(compute_dtype)
    xw = x if wdtype == np.float64 else x.astype(wdtype)
    tokens, dim = x.shape

    # --- COO stream first ---------------------------------------------------
    token, pos, band = _outlier_coo(xw, thr)
    nnz = token.size
    xg = xw[token, pos].astype(np.float64)

    # --- sparse bands: gathered encode on outliers only ---------------------
    mag_bits = cfg.outlier_bits - 1
    band_bits = mag_bits if cfg.group_shift else cfg.outlier_bits
    lo_edges, hi_edges = _band_edges(cfg, thr)
    if cfg.group_shift:
        mag = np.where(xg > 0, xg - hi_edges[band], lo_edges[band] - xg)
        side = xg > 0
    else:
        mag = xg
        side = np.zeros(nnz, dtype=bool)
    band_lo, band_hi = _segment_bounds(
        token, band, mag, tokens, cfg.num_sparse_bands
    )
    lo_g = band_lo[token, band]
    sigma_g = _sigma(lo_g, band_hi[token, band], band_bits)
    sparse_mag = np.clip(
        np.rint((mag - lo_g) * sigma_g), 0, 2**band_bits - 1
    ).astype(np.uint8)

    # --- dense middle group: one in-place pass ------------------------------
    mid_lo_edge, mid_hi_edge = thr.middle_shift_edges()
    shift_shape = (tokens, dim)
    if cfg.group_shift:
        if scratch is not None:
            # Build the per-element shift offsets directly in the
            # scratch buffer, then subtract in place: no full-matrix
            # allocation survives on the streaming append path.
            shifted = scratch.array("shifted", shift_shape, wdtype)
            positive = scratch.array("positive", shift_shape, np.bool_)
            np.greater(xw, 0, out=positive)
            np.copyto(shifted, wdtype.type(mid_lo_edge))
            np.copyto(shifted, wdtype.type(mid_hi_edge), where=positive)
            np.subtract(xw, shifted, out=shifted)
        else:
            edges = np.where(xw > 0, wdtype.type(mid_hi_edge),
                             wdtype.type(mid_lo_edge))
            shifted = np.subtract(xw, edges, out=edges)
    else:
        if scratch is not None:
            shifted = scratch.array("shifted", shift_shape, wdtype)
            shifted[...] = xw
        else:
            shifted = xw.copy()

    # Outlier slots are overwritten after encoding, so they can carry
    # sentinels: +inf is transparent to the row minimum, -inf to the
    # maximum, and -inf clips to code 0 exactly like the seed's masking.
    shifted[token, pos] = np.inf
    middle_lo = shifted.min(axis=1).astype(np.float64)
    shifted[token, pos] = -np.inf
    middle_hi = shifted.max(axis=1).astype(np.float64)
    empty_mid = np.bincount(token, minlength=tokens) == dim
    if empty_mid.any():
        middle_lo[empty_mid] = 0.0
        middle_hi[empty_mid] = 0.0
    middle_lo = _fp16_round(middle_lo)
    middle_hi = _fp16_round(middle_hi)
    sigma_mid = _sigma(middle_lo, middle_hi, cfg.inlier_bits)

    lo_col = middle_lo.astype(wdtype)[:, None]
    sigma_col = sigma_mid.astype(wdtype)[:, None]
    np.subtract(shifted, lo_col, out=shifted)
    np.multiply(shifted, sigma_col, out=shifted)
    np.rint(shifted, out=shifted)
    np.clip(shifted, 0, 2**cfg.inlier_bits - 1, out=shifted)
    dense_codes = shifted.astype(np.uint8)

    # --- fused nibble embed / naive FP16 records ----------------------------
    sparse_fp16 = None
    if cfg.fused_encoding:
        if cfg.group_shift:
            full_code = (
                side.astype(np.uint16) << mag_bits
            ) | sparse_mag.astype(np.uint16)
        else:
            full_code = sparse_mag.astype(np.uint16)
        nibble = full_code & ((1 << cfg.inlier_bits) - 1)
        dense_codes[token, pos] = nibble.astype(np.uint8)
    else:
        sparse_fp16 = xg.astype(np.float16)

    return EncodedKV(
        config=cfg,
        thresholds=thr,
        shape=x.shape,
        dense_codes=dense_codes,
        middle_lo=middle_lo.astype(np.float32),
        middle_hi=middle_hi.astype(np.float32),
        band_lo=band_lo.astype(np.float32),
        band_hi=band_hi.astype(np.float32),
        sparse_token=token,
        sparse_pos=pos,
        sparse_band=band.astype(np.int16),
        sparse_side=side,
        sparse_mag_code=sparse_mag,
        sparse_fp16=sparse_fp16,
    )


def _fused_dequantize(
    cfg: OakenConfig,
    thr: GroupThresholds,
    encoded: EncodedKV,
    compute_dtype=np.float64,
) -> np.ndarray:
    """In-place decode of the fused layout back to a float32 matrix."""
    wdtype = np.dtype(compute_dtype)
    sigma = _sigma(
        encoded.middle_lo.astype(np.float64),
        encoded.middle_hi.astype(np.float64),
        cfg.inlier_bits,
    )
    out = encoded.dense_codes.astype(wdtype)
    np.divide(out, sigma.astype(wdtype)[:, None], out=out)
    np.add(out, encoded.middle_lo.astype(wdtype)[:, None], out=out)
    mid_lo_edge, mid_hi_edge = thr.middle_shift_edges()
    if cfg.group_shift:
        edges = np.where(out >= 0, wdtype.type(mid_hi_edge),
                         wdtype.type(mid_lo_edge))
        np.add(out, edges, out=out)

    token = encoded.sparse_token
    pos = encoded.sparse_pos
    if token.size:
        if encoded.sparse_fp16 is not None:
            out[token, pos] = encoded.sparse_fp16.astype(wdtype)
        else:
            band = encoded.sparse_band.astype(np.int64)
            lo = encoded.band_lo.astype(np.float64)[token, band]
            hi = encoded.band_hi.astype(np.float64)[token, band]
            bits = cfg.outlier_bits - 1 if cfg.group_shift else cfg.outlier_bits
            sigma_g = _sigma(lo, hi, bits)
            mag = encoded.sparse_mag_code.astype(np.float64) / sigma_g + lo
            if cfg.group_shift:
                lo_edges, hi_edges = _band_edges(cfg, thr)
                restored = np.where(
                    encoded.sparse_side,
                    hi_edges[band] + mag,
                    lo_edges[band] - mag,
                )
            else:
                restored = mag
            out[token, pos] = restored

    return out.astype(np.float32)


class OakenQuantizer:
    """Quantize/dequantize per-token KV vectors with Oaken's algorithm.

    Args:
        config: algorithm hyper-parameters (group ratios, bitwidths,
            feature toggles).
        thresholds: offline-profiled group thresholds for the tensor
            this quantizer will serve (one quantizer per layer per
            key/value tensor, per Observation 1).
        mode: the :class:`~repro.core.modes.ComputeMode` precision
            policy (a mode object, a registry name, or a float32/
            float64 dtype-like for backward compatibility).  The
            default ``exact_f64`` is bit-identical to the seed encoder
            and to the scalar hardware-datapath golden model;
            ``deploy_f32`` halves the memory traffic of the dense pass
            and may move codes by at most one level for values within
            float32 epsilon of a rounding boundary or group threshold
            (the mode's tolerance contract).
    """

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        mode: ComputeModeLike = None,
    ):
        if thresholds.num_outer_bands != config.num_outer_bands:
            raise ValueError(
                "thresholds have a different outer band count than config"
            )
        if thresholds.num_inner_bands != config.num_inner_bands:
            raise ValueError(
                "thresholds have a different inner band count than config"
            )
        self.config = config
        self.thresholds = thresholds
        self.mode: ComputeMode = resolve_compute_mode(mode, EXACT_F64)

    @property
    def compute_dtype(self) -> np.dtype:
        """Working dtype of the fused kernels (from the mode policy)."""
        return self.mode.compute_dtype

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[np.ndarray],
        config: Optional[OakenConfig] = None,
        mode: ComputeModeLike = None,
    ) -> "OakenQuantizer":
        """Profile thresholds offline from samples and build a quantizer."""
        cfg = config if config is not None else OakenConfig()
        return cls(cfg, profile_thresholds(samples, cfg), mode)

    # ------------------------------------------------------------------
    # quantization
    # ------------------------------------------------------------------

    def quantize(self, values: np.ndarray) -> EncodedKV:
        """Quantize a [T, D] token-major KV matrix.

        Args:
            values: float array; each row is one token's key or value
                vector.

        Returns:
            The :class:`~repro.core.encoding.EncodedKV` storage layout.
        """
        return _fused_quantize(
            self.config, self.thresholds, values, self.compute_dtype
        )

    def quantize_into(
        self, values: np.ndarray, scratch: QuantizeScratch
    ) -> EncodedKV:
        """Streaming encode reusing ``scratch`` for work buffers.

        The entry point for single-token appends: semantics are
        identical to :meth:`quantize`, but the kernel's full-matrix
        temporaries come from ``scratch`` instead of fresh allocations,
        amortizing allocator traffic across the thousands of tiny
        encodes a generation loop performs.  The returned
        :class:`EncodedKV` owns its arrays and never aliases scratch.
        """
        return _fused_quantize(
            self.config, self.thresholds, values, self.compute_dtype, scratch
        )

    # ------------------------------------------------------------------
    # dequantization
    # ------------------------------------------------------------------

    def dequantize(self, encoded: EncodedKV) -> np.ndarray:
        """Reconstruct a float32 [T, D] matrix from the encoded layout."""
        return _fused_dequantize(
            self.config, self.thresholds, encoded, self.compute_dtype
        )

    def roundtrip(self, values: np.ndarray) -> np.ndarray:
        """Quantize then dequantize — the lossy transform seen by attention."""
        return self.dequantize(self.quantize(values))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def expected_effective_bitwidth(self, dim: int) -> float:
        """Analytic bits/element at the configured outlier ratio.

        Used by the hardware simulator, which needs byte counts without
        materializing tensors; delegates to the module-level
        :func:`expected_effective_bitwidth`.
        """
        return expected_effective_bitwidth(self.config, dim)


def expected_effective_bitwidth(config: OakenConfig, dim: int) -> float:
    """Analytic bits/element at the configured outlier ratio.

    Dense codes at ``inlier_bits``, one aligned sparse record per
    expected outlier, and the per-token scale scalars amortized over
    ``dim`` elements.
    """
    return (
        config.inlier_bits
        + config.outlier_ratio * sparse_record_bits(config)
        + config.token_metadata_bits / dim
    )
