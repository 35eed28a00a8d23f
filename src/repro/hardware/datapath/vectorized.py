"""The Figure 9 engines as whole-tensor stages.

Each class in this module models one hardware module of the paper's
quantization or dequantization engine, running its arithmetic over
``[T, D]`` arrays in one numpy pass, in the
:class:`~repro.core.modes.ComputeMode` working dtype.  Every class is
the whole-tensor twin of one stage of the scalar element-streaming
golden model kept in ``tests/datapath_oracle.py``: the same arithmetic,
in the same order, in the same dtype.

Equivalence contract (asserted by ``tests/test_datapath_vectorized``):

* ``exact_f64`` stage mode — every emitted bit (dense codes, COO
  stream, FP16 scale bounds, reconstructed rows) is identical to the
  scalar golden model's, which is itself bit-identical to the reference
  quantizer and the frozen seed kernels.
* ``deploy_f32`` stage mode — bit-identical to the scalar golden model
  run in the same float32 stage mode (both sides do float32 arithmetic
  on float32 registers), and within the mode's one-code-level tolerance
  of the ``exact_f64`` output.

Cycle accounting is twinned too: :class:`VectorizedQuantEngine` and
:class:`VectorizedDequantEngine` return a
:class:`~repro.hardware.datapath.timing.CycleReport` with exactly the
per-stage busy counters and end-to-end cycle count the element-streaming
pipeline records — the timing model describes the hardware, not the
host implementation.  The end-to-end count is the timing's closed-form
``cycles(tokens, dim)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.config import OakenConfig
from repro.core.encoding import EncodedKV
from repro.core.grouping import MIDDLE_GROUP, GroupThresholds
from repro.core.modes import EXACT_F64, ComputeModeLike, resolve_compute_mode
from repro.hardware.datapath.timing import (
    CycleReport,
    DatapathTiming,
    DequantTiming,
)

#: Degenerate-range guard, matching ``scale_sigma`` / ``_sigma``.
_EPS = 1e-12


def _fp16_round_array(values: np.ndarray, wdtype: np.dtype) -> np.ndarray:
    """FP16-round an array, result in the stage-mode working dtype."""
    return np.asarray(values, dtype=np.float16).astype(wdtype)


def _sigma_array(
    lo: np.ndarray, hi: np.ndarray, bits: int, wdtype: np.dtype
) -> np.ndarray:
    """Vectorized twin of ``scale_sigma`` in ``wdtype``."""
    w = wdtype.type
    span = hi - lo
    return np.where(
        span > w(_EPS),
        w(2.0**bits - 1.0) / np.maximum(span, w(_EPS)),
        w(1.0),
    )


def _full_outlier_codes(
    config: OakenConfig, side: np.ndarray, mag_code: np.ndarray
) -> np.ndarray:
    """Every outlier's full code: side bit (when group-shifted) over
    the magnitude bits — the one packing rule the zero-remove shifter
    (nibble embed) and zero-insert shifter (corruption check) share."""
    if config.group_shift:
        mag_bits = config.outlier_bits - 1
        return (
            side.astype(np.uint16) << mag_bits
        ) | mag_code.astype(np.uint16)
    return mag_code.astype(np.uint16)


def _fused_nibbles(
    config: OakenConfig, side: np.ndarray, mag_code: np.ndarray
) -> np.ndarray:
    """Low ``inlier_bits`` of each full outlier code (uint8)."""
    full_code = _full_outlier_codes(config, side, mag_code)
    return (full_code & ((1 << config.inlier_bits) - 1)).astype(np.uint8)


class VectorizedDecomposer:
    """Whole-tensor twin of ``Decomposer``.

    One pass of vectorized threshold compares assigns every element
    its group (outer bands claim outermost-first, inner shells
    innermost-first, exactly like the scalar ``classify`` loop), and
    the group-shift subtraction runs on the full matrix at once.  The
    control registers hold the thresholds at the stage-mode precision.
    """

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        mode: ComputeModeLike = None,
    ):
        self.config = config
        self.thresholds = thresholds
        self.mode = resolve_compute_mode(mode, EXACT_F64)
        wdtype = self.mode.compute_dtype
        w = wdtype.type
        self._outer_lo = np.array(thresholds.outer_lo, dtype=wdtype)
        self._outer_hi = np.array(thresholds.outer_hi, dtype=wdtype)
        self._inner_mag = np.array(thresholds.inner_mag, dtype=wdtype)
        mid_lo, mid_hi = thresholds.middle_shift_edges()
        self._mid_lo_edge = w(mid_lo)
        self._mid_hi_edge = w(mid_hi)
        bands = [
            thresholds.band_shift_edges(b)
            for b in range(thresholds.num_sparse_bands)
        ]
        self._band_lo_edge = np.array(
            [lo for lo, _ in bands], dtype=wdtype
        )
        self._band_hi_edge = np.array(
            [hi for _, hi in bands], dtype=wdtype
        )

    def classify(self, x: np.ndarray) -> np.ndarray:
        """[T, D] group ids — the vectorized scalar ``classify`` loop."""
        thr = self.thresholds
        group = np.full(x.shape, MIDDLE_GROUP, dtype=np.int64)
        unclaimed = np.ones(x.shape, dtype=bool)
        for band in range(thr.num_outer_bands):
            claim = unclaimed & (
                (x > self._outer_hi[band]) | (x < self._outer_lo[band])
            )
            group[claim] = band
            unclaimed &= ~claim
        if thr.num_inner_bands:
            magnitude = np.abs(x)
            for j in range(thr.num_inner_bands - 1, -1, -1):
                claim = unclaimed & (magnitude <= self._inner_mag[j])
                group[claim] = thr.num_outer_bands + j
                unclaimed &= ~claim
        return group

    def route(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Classify and group-shift a whole [T, D] matrix.

        Returns ``(xw, group, shifted, side)``: the stage-dtype input,
        per-element group ids, group-shifted values, and side bits —
        the same wire contents every scalar ``RoutedElement`` carries.
        """
        wdtype = self.mode.compute_dtype
        xw = self.mode.cast(np.asarray(values, dtype=np.float64))
        group = self.classify(xw)
        cfg = self.config
        is_middle = group == MIDDLE_GROUP
        if not cfg.group_shift:
            side = np.zeros(xw.shape, dtype=bool)
            return xw, group, xw.copy(), side
        positive = xw > 0
        # Middle path: subtract the signed middle edge.
        mid_edges = np.where(
            positive, self._mid_hi_edge, self._mid_lo_edge
        ).astype(wdtype, copy=False)
        shifted = xw - mid_edges
        if self._band_hi_edge.size:
            # Sparse paths: band magnitude relative to the claimed edge
            # (a middle-only config has no band edges to gather).
            band = np.where(is_middle, 0, group)
            hi_e = self._band_hi_edge[band]
            lo_e = self._band_lo_edge[band]
            sparse_shift = np.where(positive, xw - hi_e, lo_e - xw)
            shifted = np.where(is_middle, shifted, sparse_shift)
        side = positive & ~is_middle
        return xw, group, shifted.astype(wdtype, copy=False), side


class VectorizedMinMaxFinder:
    """Whole-tensor twin of ``MinMaxFinder``.

    Per-(token, group) ranges via masked reductions; groups a token
    never routed to report the scalar registers' ``(0, 0)``.
    """

    def __init__(self, num_sparse_bands: int, mode: ComputeModeLike = None):
        self.num_sparse_bands = num_sparse_bands
        self.mode = resolve_compute_mode(mode, EXACT_F64)

    def _masked_range(
        self, shifted: np.ndarray, mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        wdtype = self.mode.compute_dtype
        w = wdtype.type
        if shifted.shape[1] == 0:
            zeros = np.zeros(shifted.shape[0], dtype=wdtype)
            return zeros, zeros.copy()
        occupied = mask.any(axis=1)
        lo = np.where(mask, shifted, w(np.inf)).min(axis=1)
        hi = np.where(mask, shifted, w(-np.inf)).max(axis=1)
        zero = w(0.0)
        return (
            np.where(occupied, lo, zero),
            np.where(occupied, hi, zero),
        )

    def ranges(
        self, group: np.ndarray, shifted: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(middle_lo, middle_hi, band_lo, band_hi)`` per token.

        ``middle_*`` are [T]; ``band_*`` are [T, num_sparse_bands].
        """
        wdtype = self.mode.compute_dtype
        tokens = group.shape[0]
        middle_lo, middle_hi = self._masked_range(
            shifted, group == MIDDLE_GROUP
        )
        band_lo = np.zeros((tokens, self.num_sparse_bands), dtype=wdtype)
        band_hi = np.zeros((tokens, self.num_sparse_bands), dtype=wdtype)
        for b in range(self.num_sparse_bands):
            band_lo[:, b], band_hi[:, b] = self._masked_range(
                shifted, group == b
            )
        return middle_lo, middle_hi, band_lo, band_hi


class VectorizedScaleCalculator:
    """Whole-tensor twin of ``ScaleCalculator``.

    FP16-rounds every group range and derives sigma from the rounded
    bounds — one vectorized pass over all tokens and groups at once.
    """

    def __init__(self, config: OakenConfig, mode: ComputeModeLike = None):
        self.config = config
        self.mode = resolve_compute_mode(mode, EXACT_F64)

    def group_bits(self, middle: bool) -> int:
        """Code width of the inlier vs outlier path."""
        cfg = self.config
        if middle:
            return cfg.inlier_bits
        if cfg.group_shift:
            return cfg.outlier_bits - 1
        return cfg.outlier_bits

    def scales(
        self, lo: np.ndarray, hi: np.ndarray, middle: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo16, hi16, sigma)`` for one group family's raw ranges."""
        wdtype = self.mode.compute_dtype
        lo16 = _fp16_round_array(lo, wdtype)
        hi16 = _fp16_round_array(hi, wdtype)
        sigma = _sigma_array(lo16, hi16, self.group_bits(middle), wdtype)
        return lo16, hi16, sigma


class VectorizedOutlierExtractor:
    """Whole-tensor twin of ``OutlierExtractor``.

    One ``nonzero`` compacts the sparse stream in exactly the scalar
    emission order (row-major: token by token, positions ascending) —
    the zero-remove shifter over the whole tensor at once.
    """

    def __init__(self, config: OakenConfig):
        self.config = config

    def extract(
        self, group: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(token, pos, band)`` of every sparse element, stream order."""
        token, pos = np.nonzero(group != MIDDLE_GROUP)
        return (
            token.astype(np.int64),
            pos.astype(np.int64),
            group[token, pos],
        )

    def fused_nibbles(
        self, side: np.ndarray, mag_code: np.ndarray
    ) -> np.ndarray:
        """Low ``inlier_bits`` of each full outlier code (uint8)."""
        return _fused_nibbles(self.config, side, mag_code)


class VectorizedFusedConcatenator:
    """Whole-tensor twin of ``FusedConcatenator``.

    The inlier and outlier paths never write the same slot, so the
    scalar OR-merge reduces to one scatter of the outlier nibbles into
    the dense code matrix (zeros under the naive non-fused layout).
    """

    def __init__(self, config: OakenConfig):
        self.config = config

    def merge(
        self,
        dense_codes: np.ndarray,
        token: np.ndarray,
        pos: np.ndarray,
        nibbles: Optional[np.ndarray],
    ) -> np.ndarray:
        """Scatter nibbles (or zeros) into the outlier slots, in place."""
        if nibbles is None:
            dense_codes[token, pos] = 0
        else:
            dense_codes[token, pos] = nibbles
        return dense_codes


class VectorizedQuantEngine:
    """Whole-tensor quantization engine (Figure 9a, end to end).

    Same constructor contract, same ``(EncodedKV, CycleReport)``
    return as the golden model's quantization engine, with its
    per-element python loop replaced by one vectorized pass per stage.

    Args:
        config: quantizer hyper-parameters.
        thresholds: offline-profiled thresholds.
        timing: lane width and clock of the modeled datapath (the
            cycle report prices the hardware, not the host).
        mode: :class:`~repro.core.modes.ComputeMode` stage mode.
    """

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        timing: Optional[DatapathTiming] = None,
        mode: ComputeModeLike = None,
    ):
        if thresholds.num_outer_bands != config.num_outer_bands:
            raise ValueError("thresholds/config outer band mismatch")
        if thresholds.num_inner_bands != config.num_inner_bands:
            raise ValueError("thresholds/config inner band mismatch")
        self.config = config
        self.thresholds = thresholds
        self.timing = timing if timing is not None else DatapathTiming()
        self.mode = resolve_compute_mode(mode, EXACT_F64)
        self._decomposer = VectorizedDecomposer(
            config, thresholds, self.mode
        )
        self._minmax = VectorizedMinMaxFinder(
            config.num_sparse_bands, self.mode
        )
        self._scale_calc = VectorizedScaleCalculator(config, self.mode)
        self._extractor = VectorizedOutlierExtractor(config)
        self._concat = VectorizedFusedConcatenator(config)

    def quantize_matrix(
        self, values: np.ndarray
    ) -> "tuple[EncodedKV, CycleReport]":
        """Quantize a [T, D] matrix in one vectorized pass per stage."""
        x = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError(f"expected a [T, D] matrix, got {x.shape}")
        cfg = self.config
        wdtype = self.mode.compute_dtype
        tokens, dim = x.shape

        # Stage 1+2: decompose/route and per-group range discovery.
        xw, group, shifted, side = self._decomposer.route(x)
        mid_lo_raw, mid_hi_raw, band_lo_raw, band_hi_raw = (
            self._minmax.ranges(group, shifted)
        )

        # Between passes: the sigma calculator prices each group.
        middle_lo, middle_hi, sigma_mid = self._scale_calc.scales(
            mid_lo_raw, mid_hi_raw, middle=True
        )
        band_lo, band_hi, sigma_band = self._scale_calc.scales(
            band_lo_raw, band_hi_raw, middle=False
        )

        # Pass 2, inlier path: every slot through the middle scale
        # (outlier slots are overwritten by the scatter below, exactly
        # like the scalar engine never routing them here).
        inlier_levels = 2**cfg.inlier_bits - 1
        dense = np.clip(
            np.rint(
                (shifted - middle_lo[:, None]) * sigma_mid[:, None]
            ),
            0,
            inlier_levels,
        ).astype(np.uint8)

        # Pass 2, outlier path: gathered encode over the COO stream.
        token, pos, band = self._extractor.extract(group)
        outlier_bits = self._scale_calc.group_bits(middle=False)
        mag_g = shifted[token, pos]
        side_g = side[token, pos]
        lo_g = band_lo[token, band]
        sigma_g = sigma_band[token, band]
        mag_code = np.clip(
            np.rint((mag_g - lo_g) * sigma_g), 0, 2**outlier_bits - 1
        ).astype(np.uint8)

        sparse_fp16 = None
        nibbles = None
        if cfg.fused_encoding:
            nibbles = self._extractor.fused_nibbles(side_g, mag_code)
        else:
            sparse_fp16 = xw[token, pos].astype(np.float16)
        self._concat.merge(dense, token, pos, nibbles)

        report = self._cycle_report(tokens, dim, token)
        encoded = EncodedKV(
            config=cfg,
            thresholds=self.thresholds,
            shape=(tokens, dim),
            dense_codes=dense,
            middle_lo=middle_lo.astype(np.float32),
            middle_hi=middle_hi.astype(np.float32),
            band_lo=band_lo.astype(np.float32),
            band_hi=band_hi.astype(np.float32),
            sparse_token=token,
            sparse_pos=pos,
            sparse_band=band.astype(np.int16),
            sparse_side=side_g,
            sparse_mag_code=mag_code,
            sparse_fp16=sparse_fp16,
        )
        return encoded, report

    def _cycle_report(
        self, tokens: int, dim: int, token: np.ndarray
    ) -> CycleReport:
        """The exact counters the scalar engine would have recorded."""
        report = CycleReport(tokens=tokens, elements=tokens * dim)
        if tokens:
            pass_cycles = self.timing.pass_cycles(dim)
            groups = 1 + self.config.num_sparse_bands
            counts = np.bincount(token, minlength=tokens)
            report.stage("decomposer").record(
                tokens * dim, tokens * pass_cycles
            )
            report.stage("minmax_finder").record(
                tokens * dim, tokens * pass_cycles
            )
            report.stage("scale_calculator").record(
                tokens * groups,
                tokens * self.timing.scale_latency_cycles,
            )
            report.stage("quantizer").record(
                tokens * dim, tokens * pass_cycles
            )
            report.stage("zero_remove_shifter").record(
                int(token.size),
                int(np.minimum(counts, pass_cycles).sum()),
            )
        report.total_cycles = self.timing.cycles(tokens, dim)
        return report


class VectorizedZeroInsertShifter:
    """Whole-tensor twin of ``ZeroInsertShifter``.

    Validates every fused nibble against its dense slot in one
    comparison (the scalar corruption check, tensor-wide) and hands
    back the record code fields for the gathered outlier decode.
    """

    def __init__(self, config: OakenConfig):
        self.config = config

    def validate(
        self,
        dense_codes: np.ndarray,
        token: np.ndarray,
        pos: np.ndarray,
        side: np.ndarray,
        mag_code: np.ndarray,
    ) -> None:
        """Raise ValueError when any dense slot disagrees with its record."""
        cfg = self.config
        if not cfg.fused_encoding or token.size == 0:
            return
        expected = _fused_nibbles(cfg, side, mag_code)
        slots = dense_codes[token, pos]
        mismatch = slots != expected
        if mismatch.any():
            first = int(np.argmax(mismatch))
            raise ValueError(
                f"fused nibble mismatch at position {int(pos[first])}: "
                f"dense slot holds {int(slots[first])}, record says "
                f"{int(expected[first])}"
            )


class VectorizedInlierDequantizer:
    """Whole-tensor twin of ``InlierDequantizer``."""

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        mode: ComputeModeLike = None,
    ):
        self.config = config
        self.mode = resolve_compute_mode(mode, EXACT_F64)
        w = self.mode.compute_dtype.type
        mid_lo, mid_hi = thresholds.middle_shift_edges()
        self._mid_lo_edge = w(mid_lo)
        self._mid_hi_edge = w(mid_hi)

    def decode(
        self,
        dense_codes: np.ndarray,
        middle_lo: np.ndarray,
        middle_hi: np.ndarray,
    ) -> np.ndarray:
        """Every dense slot through the middle scale, whole tensor."""
        wdtype = self.mode.compute_dtype
        sigma = _sigma_array(
            middle_lo, middle_hi, self.config.inlier_bits, wdtype
        )
        out = dense_codes.astype(wdtype)
        out = out / sigma[:, None] + middle_lo[:, None]
        if self.config.group_shift:
            out = out + np.where(
                out >= 0, self._mid_hi_edge, self._mid_lo_edge
            ).astype(wdtype, copy=False)
        return out


class VectorizedOutlierDequantizer:
    """Whole-tensor twin of ``OutlierDequantizer``."""

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        mode: ComputeModeLike = None,
    ):
        self.config = config
        self.mode = resolve_compute_mode(mode, EXACT_F64)
        wdtype = self.mode.compute_dtype
        bands = [
            thresholds.band_shift_edges(b)
            for b in range(thresholds.num_sparse_bands)
        ]
        self._band_lo_edge = np.array(
            [lo for lo, _ in bands], dtype=wdtype
        )
        self._band_hi_edge = np.array(
            [hi for _, hi in bands], dtype=wdtype
        )

    def decode(
        self,
        band: np.ndarray,
        side: np.ndarray,
        mag_code: np.ndarray,
        band_lo: np.ndarray,
        band_hi: np.ndarray,
        token: np.ndarray,
        fp16_values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Every outlier's reconstructed value, gathered COO order."""
        cfg = self.config
        wdtype = self.mode.compute_dtype
        if fp16_values is not None:
            # Naive 23-bit layout: the records carry the exact values.
            return fp16_values.astype(wdtype)
        bits = (
            cfg.outlier_bits - 1 if cfg.group_shift else cfg.outlier_bits
        )
        lo = band_lo[token, band]
        hi = band_hi[token, band]
        sigma = _sigma_array(lo, hi, bits, wdtype)
        magnitude = mag_code.astype(wdtype) / sigma + lo
        if not cfg.group_shift:
            return magnitude
        return np.where(
            side,
            self._band_hi_edge[band] + magnitude,
            self._band_lo_edge[band] - magnitude,
        ).astype(wdtype, copy=False)


class VectorizedDequantEngine:
    """Whole-tensor dequantization engine (Figure 9b, end to end).

    Same constructor contract and ``(matrix, CycleReport)`` return as
    the golden model's dequantization engine.
    """

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        timing: Optional[DequantTiming] = None,
        mode: ComputeModeLike = None,
    ):
        self.config = config
        self.thresholds = thresholds
        self.timing = timing if timing is not None else DequantTiming()
        self.mode = resolve_compute_mode(mode, EXACT_F64)
        self._shifter = VectorizedZeroInsertShifter(config)
        self._inlier = VectorizedInlierDequantizer(
            config, thresholds, self.mode
        )
        self._outlier = VectorizedOutlierDequantizer(
            config, thresholds, self.mode
        )

    def dequantize_matrix(
        self, encoded: EncodedKV
    ) -> "tuple[np.ndarray, CycleReport]":
        """Reconstruct the full tensor in one vectorized pass per stage."""
        cfg = self.config
        wdtype = self.mode.compute_dtype
        tokens, dim = encoded.shape

        middle_lo = self.mode.cast(encoded.middle_lo)
        middle_hi = self.mode.cast(encoded.middle_hi)
        out = self._inlier.decode(
            encoded.dense_codes, middle_lo, middle_hi
        )

        token = encoded.sparse_token
        pos = encoded.sparse_pos
        if token.size:
            band = encoded.sparse_band.astype(np.int64)
            side = encoded.sparse_side
            mag = encoded.sparse_mag_code
            self._shifter.validate(
                encoded.dense_codes, token, pos, side, mag
            )
            out[token, pos] = self._outlier.decode(
                band,
                side,
                mag,
                self.mode.cast(encoded.band_lo),
                self.mode.cast(encoded.band_hi),
                token,
                fp16_values=encoded.sparse_fp16,
            )

        report = self._cycle_report(tokens, dim, token)
        return out.astype(np.float32), report

    def _cycle_report(
        self, tokens: int, dim: int, token: np.ndarray
    ) -> CycleReport:
        """The exact counters the scalar engine would have recorded."""
        report = CycleReport(tokens=tokens, elements=tokens * dim)
        if tokens:
            pass_cycles = self.timing.pass_cycles(dim)
            counts = np.bincount(token, minlength=tokens)
            busy = int(np.minimum(counts, pass_cycles).sum())
            report.stage("zero_insert_shifter").record(
                int(token.size), busy
            )
            report.stage("inlier_dequantizer").record(
                tokens * dim, tokens * pass_cycles
            )
            report.stage("outlier_dequantizer").record(
                int(token.size), busy
            )
        report.total_cycles = self.timing.cycles(tokens, dim)
        return report


__all__ = [
    "VectorizedDecomposer",
    "VectorizedDequantEngine",
    "VectorizedFusedConcatenator",
    "VectorizedInlierDequantizer",
    "VectorizedMinMaxFinder",
    "VectorizedOutlierDequantizer",
    "VectorizedOutlierExtractor",
    "VectorizedQuantEngine",
    "VectorizedScaleCalculator",
    "VectorizedZeroInsertShifter",
]
