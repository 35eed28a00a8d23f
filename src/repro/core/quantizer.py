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

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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


def _sigma(lo: np.ndarray, hi: np.ndarray, levels: float) -> np.ndarray:
    """Uniform-quantization scale factor of Eq. 2 with the seed's guard.

    ``levels`` is ``2**bits - 1``, the top code of the target width.
    """
    span = hi - lo
    return np.where(span > _EPS, levels / np.maximum(span, _EPS), 1.0)


class QuantizeScratch:
    """Reusable work buffers for the fused kernel.

    Single-token appends during generation call the quantizer thousands
    of times on tiny [1, D] matrices, where buffer allocation is a
    measurable fraction of the cost.  A scratch object owned by the
    caller (one per :class:`LayerEncoder`) lets
    :meth:`OakenQuantizer.quantize_into` reuse its full-matrix
    temporaries across calls.  Buffers grow monotonically and are never
    shared between concurrent encodes.
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


@dataclass(frozen=True, eq=False)
class _KernelPlan:
    """The offline half of the fused kernels, compiled once.

    Everything the kernels need that is fixed by ``(config, thresholds
    per row block, compute dtype)`` and not by the data: what the paper
    profiles offline, laid out the way the online pass consumes it.  A
    plan serves ``groups`` equal row blocks, each with its own
    thresholds (one block for a per-tensor quantizer; keys over values
    for a layer's row-stacked encoder), so every table has a leading
    block axis.

    Attributes:
        groups: G, the number of row blocks.
        outer_lo / outer_hi: per outer band, a ``[G, 1, 1]`` threshold
            column in the compute dtype, broadcast over the input
            viewed as ``[G, T, D]``.  A compute-dtype column compares
            exactly as the Python-float thresholds did: those are weak
            scalars, cast to the array's dtype before comparing.
        inner_lo / inner_hi: likewise the signed edges of each inner
            shell (``-inner_mag[j]`` / ``+inner_mag[j]``).
        mid_edge: ``[G, 1, 1]`` middle-group shift magnitude.
        band_lo_edges / band_hi_edges: flat ``[G * bands]`` float64
            negative / positive side shift offset of every sparse band,
            block-major (gathered per outlier record).
        band_levels / mid_levels: top code ``2**bits - 1`` of the
            sparse magnitude and the dense inlier codes.
    """

    config: OakenConfig
    groups: int
    wdtype: np.dtype
    outer_lo: Tuple[np.ndarray, ...]
    outer_hi: Tuple[np.ndarray, ...]
    inner_lo: Tuple[np.ndarray, ...]
    inner_hi: Tuple[np.ndarray, ...]
    mid_edge: np.ndarray
    band_lo_edges: np.ndarray
    band_hi_edges: np.ndarray
    band_levels: float
    mid_levels: float


@functools.lru_cache(maxsize=256)
def _kernel_plan(
    config: OakenConfig,
    thresholds: Tuple[GroupThresholds, ...],
    wdtype: np.dtype,
) -> _KernelPlan:
    """The plan for ``thresholds`` (one per row block), keyed by value:
    quantizers fitted to equal thresholds share one plan."""
    for thr in thresholds:
        if thr.num_outer_bands != config.num_outer_bands:
            raise ValueError(
                "thresholds have a different outer band count than config"
            )
        if thr.num_inner_bands != config.num_inner_bands:
            raise ValueError(
                "thresholds have a different inner band count than config"
            )

    def frozen(values, shape, dtype=np.float64) -> np.ndarray:
        table = np.array(values, dtype=dtype).reshape(shape)
        table.flags.writeable = False  # shared by every equal quantizer
        return table

    def columns(per_block) -> np.ndarray:
        return frozen(per_block, (-1, 1, 1), wdtype)

    def per_band(field: str, count: int, sign: float = 1.0):
        return tuple(
            columns([sign * getattr(thr, field)[j] for thr in thresholds])
            for j in range(count)
        )

    def band_edges(side: int) -> np.ndarray:
        return frozen(
            [
                thr.band_shift_edges(band)[side]
                for thr in thresholds
                for band in range(config.num_sparse_bands)
            ],
            -1,
        )

    mag_bits = (
        config.outlier_bits - 1 if config.group_shift else config.outlier_bits
    )
    return _KernelPlan(
        config=config,
        groups=len(thresholds),
        wdtype=np.dtype(wdtype),
        outer_lo=per_band("outer_lo", config.num_outer_bands),
        outer_hi=per_band("outer_hi", config.num_outer_bands),
        inner_lo=per_band("inner_mag", config.num_inner_bands, -1.0),
        inner_hi=per_band("inner_mag", config.num_inner_bands),
        mid_edge=columns(
            [thr.middle_shift_edges()[1] for thr in thresholds]
        ),
        band_lo_edges=band_edges(0),
        band_hi_edges=band_edges(1),
        band_levels=2.0**mag_bits - 1.0,
        mid_levels=2.0**config.inlier_bits - 1.0,
    )


def _outlier_coo(
    x: np.ndarray, plan: _KernelPlan
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the sparse stream of ``x`` viewed as ``[G, T, D]``.

    Returns ``(flat, values, band)``: row-major flat indices of the
    outlier slots, their values, and the sparse band each falls in.
    Replicates :func:`repro.core.grouping.assign_groups` exactly without
    materializing the full label matrix:

    * outer bands are nested suffix sets (thresholds widen outward), so
      the claimed band is the count of *unsatisfied* more-extreme bands;
    * inner shells are nested prefix sets (magnitude edges shrink
      inward), so the claimed band is the innermost containing shell;
    * outer claims take precedence, as in the sequential assignment.
    """
    num_outer = len(plan.outer_lo)
    num_inner = len(plan.inner_hi)
    mask = outer = None
    if num_outer:
        outer = (x > plan.outer_hi[-1]) | (x < plan.outer_lo[-1])
        mask = outer
    if num_inner:
        inner = (x <= plan.inner_hi[0]) & (x >= plan.inner_lo[0])
        mask = inner if mask is None else (mask | inner)
    if mask is None:
        flat = np.zeros(0, dtype=np.int64)
        return flat, np.zeros(0, dtype=x.dtype), np.zeros(0, dtype=np.int16)
    flat = mask.reshape(-1).nonzero()[0]
    xg = x.reshape(-1)[flat]

    # Single-band sides need no per-record threshold compare: the dense
    # masks above already decided them.
    outer_band = np.int16(0)
    inner_band = np.int16(num_outer)
    if num_outer > 1 or num_inner > 1:
        block = flat // (x.shape[1] * x.shape[2]) if x.shape[0] > 1 else 0

        def of_record(column: np.ndarray) -> np.ndarray:
            return column.reshape(-1)[block]

        if num_outer > 1:
            # Count leading bands the element does NOT fall in.
            outer_band = np.zeros(flat.size, dtype=np.int16)
            for lo, hi in zip(plan.outer_lo, plan.outer_hi):
                outer_band += (xg >= of_record(lo)) & (xg <= of_record(hi))
        if num_inner > 1:
            shells = np.zeros(flat.size, dtype=np.int16)
            for lo, hi in zip(plan.inner_lo, plan.inner_hi):
                shells += (xg <= of_record(hi)) & (xg >= of_record(lo))
            inner_band = np.maximum(shells, 1) + np.int16(num_outer - 1)
    if num_outer and num_inner:
        band = np.where(outer.reshape(-1)[flat], outer_band, inner_band)
    else:
        band = np.full(
            flat.shape, outer_band if num_outer else inner_band
        )
    return flat, xg, band


def _segment_bounds(
    slot: np.ndarray,
    band: np.ndarray,
    mag: np.ndarray,
    slots: int,
    num_bands: int,
) -> np.ndarray:
    """FP16-rounded min/max of the outlier magnitudes per (token, band).

    ``slot = token * num_bands + band`` names each record's group.  The
    COO stream is token-sorted, so a stable sort by band alone (a radix
    pass over a 16-bit key) makes every group one contiguous run, and
    one ``reduceat`` per bound covers all of them in O(nnz) without
    touching the dense matrix.  A group is empty when no record names
    it — decided by the run starts, never by a sentinel, so infinite
    magnitudes reduce like any other — and keeps the seed convention
    ``lo = hi = 0``.

    Returns a ``[2, slots]`` float64 array: row 0 the lower bounds,
    row 1 the upper.
    """
    bounds = np.zeros((2, slots), dtype=np.float64)
    if slot.size == 0:
        return bounds
    if num_bands > 1:
        order = np.argsort(band, kind="stable")
        slot = slot[order]
        mag = mag[order]
    first = np.empty(slot.size, dtype=bool)
    first[0] = True
    np.not_equal(slot[1:], slot[:-1], out=first[1:])
    starts = first.nonzero()[0]
    extremes = np.empty((2, starts.size), dtype=np.float64)
    np.minimum.reduceat(mag, starts, out=extremes[0])
    np.maximum.reduceat(mag, starts, out=extremes[1])
    bounds[:, slot[starts]] = _fp16_round(extremes)
    return bounds


def _edge_index(
    band: np.ndarray, token: np.ndarray, bands: int, groups: int, rows: int
) -> np.ndarray:
    """Where each record's band sits in a plan's block-major
    ``band_*_edges`` tables, for ``rows`` rows in ``groups`` blocks."""
    if groups == 1:
        return band
    return band + bands * (token // (rows // groups))


def _fused_nibbles(
    config: OakenConfig, side: np.ndarray, mag_code: np.ndarray
) -> np.ndarray:
    """The low ``inlier_bits`` of every outlier's full code — the side
    bit (when group-shifted) over the magnitude bits — as embedded in
    the outlier's dense slot: the fused layout's one packing rule."""
    code = mag_code
    if config.group_shift:
        code = (side.view(np.uint8) << (config.outlier_bits - 1)) | code
    return code & ((1 << config.inlier_bits) - 1)


def _fused_quantize(
    plan: _KernelPlan,
    thresholds: Union[GroupThresholds, Tuple[GroupThresholds, ...]],
    values: np.ndarray,
    scratch: Optional[QuantizeScratch] = None,
) -> EncodedKV:
    """Single-pass fused encode of a [G*T, D] matrix of G row blocks.

    Pipeline: COO extraction -> gathered per-band encode (segment
    reductions over outliers only) -> one dense in-place encode pass
    with outlier slots neutralized by an inf-scatter -> fused nibble
    embed.  Every step is row-local or elementwise, so block ``g`` of
    the result is exactly the encode of block ``g`` under the
    thresholds ``plan`` was compiled from for it; in float64 every
    emitted array is bit-identical to
    :func:`repro.core.reference.reference_quantize`.  ``thresholds``
    labels the result: the calling quantizer's own objects (plans are
    shared by value, chunk identity checks are not).
    """
    cfg = plan.config
    x = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"expected a [T, D] matrix, got shape {x.shape}")
    rows, dim = x.shape
    groups = plan.groups
    if rows % groups:
        raise ValueError(
            f"{rows} rows do not split into {groups} equal row blocks"
        )
    wdtype = plan.wdtype
    xw = x if wdtype == np.float64 else x.astype(wdtype)
    blocks = xw.reshape(groups, rows // groups, dim)
    bands = cfg.num_sparse_bands

    # --- COO stream first ---------------------------------------------------
    # ``flat`` indexes the outlier slots of any [rows, dim] matrix viewed
    # flat: the value gather and all three scatters below share it.
    flat, xg, band = _outlier_coo(blocks, plan)
    token, pos = np.divmod(flat, dim)
    xg = xg.astype(np.float64, copy=False)

    # --- sparse bands: gathered encode on outliers only ---------------------
    slot = token * bands + band
    if cfg.group_shift:
        edge = _edge_index(band, token, bands, groups, rows)
        side = xg > 0
        mag = np.where(
            side, xg - plan.band_hi_edges[edge], plan.band_lo_edges[edge] - xg
        )
    else:
        mag = xg
        side = np.zeros(flat.size, dtype=bool)
    bounds = _segment_bounds(slot, band, mag, rows * bands, bands)
    sigma = _sigma(bounds[0], bounds[1], plan.band_levels)
    sparse_mag = (
        np.rint((mag - bounds[0][slot]) * sigma[slot])
        .clip(0, plan.band_levels)
        .astype(np.uint8)
    )

    # --- dense middle group: one in-place pass ------------------------------
    if scratch is not None:
        # No full-matrix allocation survives on the streaming append path.
        shifted = scratch.array("shifted", (rows, dim), wdtype)
    else:
        shifted = np.empty((rows, dim), dtype=wdtype)
    if cfg.group_shift:
        # x - copysign(edge, x): where this differs from the seed's
        # ``x > 0`` select (x = +-0) the slot is an inner-band outlier,
        # overwritten below.
        by_block = shifted.reshape(blocks.shape)
        np.copysign(plan.mid_edge, blocks, out=by_block)
        np.subtract(blocks, by_block, out=by_block)
    else:
        np.copyto(shifted, xw)

    # Outlier slots are overwritten after encoding, so they can carry
    # sentinels: +inf is transparent to the row minimum, -inf to the
    # maximum, and -inf clips to code 0 exactly like the seed's masking.
    slots = shifted.reshape(-1)
    middle = np.empty((2, rows), dtype=wdtype)
    slots[flat] = np.inf
    shifted.min(axis=1, out=middle[0])
    slots[flat] = -np.inf
    shifted.max(axis=1, out=middle[1])
    middle = middle.astype(np.float64, copy=False)
    # A row of outliers only reduced over sentinels alone.
    empty_mid = middle[0] > middle[1]
    if empty_mid.any():
        middle[:, empty_mid] = 0.0
    middle = _fp16_round(middle)
    sigma_mid = _sigma(middle[0], middle[1], plan.mid_levels)

    np.subtract(shifted, middle[0].astype(wdtype)[:, None], out=shifted)
    np.multiply(shifted, sigma_mid.astype(wdtype)[:, None], out=shifted)
    np.rint(shifted, out=shifted)
    shifted.clip(0, plan.mid_levels, out=shifted)
    dense_codes = shifted.astype(np.uint8)

    # --- fused nibble embed / naive FP16 records ----------------------------
    sparse_fp16 = None
    if cfg.fused_encoding:
        dense_codes.reshape(-1)[flat] = _fused_nibbles(cfg, side, sparse_mag)
    else:
        sparse_fp16 = xg.astype(np.float16)

    middle = middle.astype(np.float32)
    bounds = bounds.astype(np.float32).reshape(2, rows, bands)
    return EncodedKV(
        config=cfg,
        thresholds=thresholds,
        shape=x.shape,
        dense_codes=dense_codes,
        middle_lo=middle[0],
        middle_hi=middle[1],
        band_lo=bounds[0],
        band_hi=bounds[1],
        sparse_token=token,
        sparse_pos=pos,
        sparse_band=band,
        sparse_side=side,
        sparse_mag_code=sparse_mag,
        sparse_fp16=sparse_fp16,
    )


def _fused_dequantize(plan: _KernelPlan, encoded: EncodedKV) -> np.ndarray:
    """In-place decode of the fused layout back to a float32 matrix."""
    cfg = plan.config
    wdtype = plan.wdtype
    groups = plan.groups
    rows, dim = encoded.shape
    sigma = _sigma(
        encoded.middle_lo.astype(np.float64),
        encoded.middle_hi.astype(np.float64),
        plan.mid_levels,
    )
    out = encoded.dense_codes.astype(wdtype)
    np.divide(out, sigma.astype(wdtype)[:, None], out=out)
    np.add(out, encoded.middle_lo.astype(wdtype)[:, None], out=out)
    if cfg.group_shift:
        # ``out`` is never -0.0 here (a non-negative code over a positive
        # scale, plus the bound), so copysign selects as ``out >= 0`` did.
        by_block = out.reshape(groups, rows // groups, dim)
        np.add(by_block, np.copysign(plan.mid_edge, by_block), out=by_block)

    token = encoded.sparse_token
    pos = encoded.sparse_pos
    if token.size:
        if encoded.sparse_fp16 is not None:
            out[token, pos] = encoded.sparse_fp16.astype(wdtype)
        else:
            bands = cfg.num_sparse_bands
            band = encoded.sparse_band
            slot = token * bands + band
            lo = encoded.band_lo.astype(np.float64).reshape(-1)
            hi = encoded.band_hi.astype(np.float64).reshape(-1)
            sigma = _sigma(lo, hi, plan.band_levels)
            mag = encoded.sparse_mag_code / sigma[slot] + lo[slot]
            if cfg.group_shift:
                edge = _edge_index(band, token, bands, groups, rows)
                mag = np.where(
                    encoded.sparse_side,
                    plan.band_hi_edges[edge] + mag,
                    plan.band_lo_edges[edge] - mag,
                )
            out[token, pos] = mag

    return out.astype(np.float32)


class OakenQuantizer:
    """Quantize/dequantize per-token KV vectors with Oaken's algorithm.

    Args:
        config: algorithm hyper-parameters (group ratios, bitwidths,
            feature toggles).
        thresholds: offline-profiled group thresholds for the tensor
            this quantizer will serve (one quantizer per layer per
            key/value tensor, per Observation 1).  A sequence of G
            thresholds builds a *row-stacked* quantizer instead: its
            input is G equal row blocks, block ``g`` quantized under
            ``thresholds[g]`` — how :class:`LayerEncoder` puts a
            layer's keys and values through one kernel call.
        mode: the :class:`~repro.core.modes.ComputeMode` precision
            policy (a mode object, a registry name, or a float32/
            float64 dtype-like for backward compatibility).  The
            default ``exact_f64`` is bit-identical to the seed encoder;
            ``deploy_f32`` runs the dense pass in float32 (half its
            memory traffic) and the sparse records in float64 on the
            float32-cast input, and may move codes by at most one level
            for values within float32 epsilon of a rounding boundary or
            group threshold (the mode's tolerance contract).  Both
            modes are bit-identical to the scalar Figure 9 golden model
            run in the same mode.

    :meth:`quantize`, :meth:`quantize_into` and :meth:`dequantize` are
    the entry points of the fused kernels, and their signatures are
    frozen: ``benchmarks/e2e`` times the kernels by wrapping exactly
    these three attributes of this class (see ``docs/engine_api.md``).
    The engine-backed subclass in :mod:`repro.hardware.datapath` calls
    the kernels beside them, to price each call in engine cycles.
    """

    def __init__(
        self,
        config: OakenConfig,
        thresholds: Union[GroupThresholds, Sequence[GroupThresholds]],
        mode: ComputeModeLike = None,
    ):
        single = isinstance(thresholds, GroupThresholds)
        groups = (thresholds,) if single else tuple(thresholds)
        self.config = config
        self.thresholds = thresholds if single else groups
        self.mode: ComputeMode = resolve_compute_mode(mode, EXACT_F64)
        # The offline half of both kernels, compiled once.
        self._plan = _kernel_plan(config, groups, self.mode.compute_dtype)

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
        return cls(cfg, profile_thresholds(samples, cfg), mode=mode)

    # ------------------------------------------------------------------
    # quantization
    # ------------------------------------------------------------------

    def quantize(self, values: np.ndarray) -> EncodedKV:
        """Quantize a [T, D] token-major KV matrix.

        Args:
            values: float array; each row is one token's key or value
                vector ([G*T, D], G equal row blocks, for a row-stacked
                quantizer).

        Returns:
            The :class:`~repro.core.encoding.EncodedKV` storage layout.
        """
        return _fused_quantize(self._plan, self.thresholds, values)

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
            self._plan, self.thresholds, values, scratch
        )

    # ------------------------------------------------------------------
    # dequantization
    # ------------------------------------------------------------------

    def dequantize(self, encoded: EncodedKV) -> np.ndarray:
        """Reconstruct a float32 [T, D] matrix from the encoded layout."""
        return _fused_dequantize(self._plan, encoded)

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


class LayerEncoder:
    """Encodes and decodes one layer's key and value rows.

    A layer's keys and values are produced together, and the fused
    kernels are row-local, so when the layer's two quantizers are plain
    :class:`OakenQuantizer` s of equal config and mode the rows go
    through **one** kernel call each way as a ``[keys; values]`` row
    stack (a row-stacked quantizer over both tensors' thresholds).  Any
    other pair — a subclass pinned to other kernels, the engine-backed
    datapath models — keeps one call per tensor.  Either way the result
    is bit-identical to the two per-tensor calls.

    The stack/no-stack decision is :attr:`parts`, and it is made here
    only.  Both stores — the chunk store and the arena — take the
    encode as it leaves the kernel (:meth:`encode_parts`) and hand
    stored rows back for the decode half (:meth:`decode_parts`): one
    kernel call each way when the pair stacks, one per tensor
    otherwise, through the same store code.

    Owns the one scratch its calls need; the stores hold one encoder
    per layer and never touch the kernel entry points themselves.

    Attributes:
        parts: ``(tensors, quantizer)`` per kernel call — ``tensors``
            the slice of the K|V axis (0 keys, 1 values) whose rows
            ``quantizer`` encodes and decodes as equal row blocks.
    """

    def __init__(self, key_quantizer, value_quantizer) -> None:
        self.key_quantizer = key_quantizer
        self.value_quantizer = value_quantizer
        self.scratch = QuantizeScratch()
        self.stacked: Optional[OakenQuantizer] = None
        pair = (key_quantizer, value_quantizer)
        if (
            all(type(q) is OakenQuantizer for q in pair)
            and all(isinstance(q.thresholds, GroupThresholds) for q in pair)
            and key_quantizer.config == value_quantizer.config
            and key_quantizer.mode == value_quantizer.mode
        ):
            self.stacked = OakenQuantizer(
                key_quantizer.config,
                (key_quantizer.thresholds, value_quantizer.thresholds),
                key_quantizer.mode,
            )
        self.parts: Tuple[Tuple[slice, OakenQuantizer], ...] = (
            ((slice(0, 2), self.stacked),)
            if self.stacked is not None
            else ((slice(0, 1), key_quantizer), (slice(1, 2), value_quantizer))
        )

    def encode_parts(
        self,
        key_blocks: Sequence[np.ndarray],
        value_blocks: Sequence[np.ndarray],
    ) -> List[Tuple[slice, EncodedKV]]:
        """The encode half: one ``quantize_into`` per kernel call.

        ``key_blocks[i]`` and ``value_blocks[i]`` are same-shape
        [t_i, D] matrices (callers check).  Returns one ``(tensors,
        encoded)`` per entry of :attr:`parts`: the encode of that
        slice's blocks as equal [sum t_i, D] row blocks — stacked, the
        ``[keys; values]`` encode exactly as the kernel emits it.
        """
        tensors_blocks = (key_blocks, value_blocks)
        parts = []
        for tensors, quantizer in self.parts:
            rows = [b for blocks in tensors_blocks[tensors] for b in blocks]
            stack = rows[0] if len(rows) == 1 else np.concatenate(rows)
            parts.append(
                (tensors, quantizer.quantize_into(stack, self.scratch))
            )
        return parts

    def decode_parts(
        self, gather: Callable[[slice, OakenQuantizer], EncodedKV]
    ) -> List[Tuple[slice, np.ndarray]]:
        """The decode half: one ``dequantize`` per kernel call.

        ``gather(tensors, quantizer)`` returns the stored rows of
        ``tensors`` as equal row blocks (``[K rows; V rows]`` when the
        slice spans both), labelled with ``quantizer``'s config and
        thresholds; the result pairs each slice with its float32
        ``[blocks * rows, D]`` decode — bit-identical, row for row, to
        the two per-tensor decodes.
        """
        return [
            (tensors, quantizer.dequantize(gather(tensors, quantizer)))
            for tensors, quantizer in self.parts
        ]


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
