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
extracted first, per-(token, band) scale bounds come from unbuffered
min/max reductions over only the outlier elements, and the dense matrix is
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
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

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
#: Band of a record by whether the outer mask holds it (``[False,
#: True]`` as a uint8 index), when each side has one band.
_SIDE_BAND = np.array([1, 0], dtype=np.int16)
_SIDE_BAND.flags.writeable = False
#: The input dtypes the encode takes as they are.
_FLOAT32 = np.dtype(np.float32)
_FLOAT64 = np.dtype(np.float64)


def _fp16_round(values: np.ndarray) -> np.ndarray:
    """Round scale scalars to FP16 precision, as the hardware stores them."""
    return np.asarray(values, dtype=np.float16).astype(np.float64)


def _sigma(lo: np.ndarray, hi: np.ndarray, levels) -> np.ndarray:
    """Uniform-quantization scale factor of Eq. 2 with the seed's guard.

    ``levels`` is ``2**bits - 1``, the top code of the target width: a
    scalar, or one per column of a table whose columns mix widths.
    """
    span = hi - lo
    return np.where(span > _EPS, levels / np.maximum(span, _EPS), 1.0)


#: Largest ``rows * dim`` a scratch compiles and keeps a
#: :class:`_ShapePlan` for; a larger encode builds a plain plan for
#: itself alone.  A compiled plan saves a quarter to two fifths of a
#: call below 4,096 elements and nothing measurable above, where a
#: full-size ``replay-burst-arena`` step (256 stacked rows of width 32)
#: lands: see ``docs/engine_api.md`` for the figures.
_CACHED_SHAPE_ELEMENTS = 1 << 12
#: Shape plans one scratch keeps, least recently used out first.  The
#: arena's scratch meets at most 35 distinct shapes in a full-size
#: benchmark repetition (``replay-burst-arena``); keeping 16 loses
#: under half a percentage point of hit rate there and none elsewhere.
_CACHED_SHAPES = 16


class QuantizeScratch:
    """Per-shape plans for the fused encode, reused across calls.

    Single-token appends during generation call the quantizer thousands
    of times on tiny matrices, where the fixed per-call work — work
    buffers, index and operand tables, views — is most of the cost.  A
    scratch owned by the caller (one per :class:`LayerEncoder`) lets
    :meth:`OakenQuantizer.quantize_into` compile that work once per
    input shape (a :class:`_ShapePlan`) and reuse it.  The cache is
    bounded, in entries and in the size of a kept shape.

    A scratch is never shared between concurrent encodes, and nothing
    it holds is ever part of a result: every array an encode returns is
    allocated by that encode.
    """

    def __init__(self) -> None:
        self._shapes: Dict[tuple, "_ShapePlan"] = {}

    def shape(self, plan: "_KernelPlan", rows: int, dim: int) -> "_ShapePlan":
        """The plan of a ``[rows, dim]`` encode under ``plan``."""
        key = (plan, rows, dim)
        shape = self._shapes.pop(key, None)
        if shape is None:
            if rows * dim > _CACHED_SHAPE_ELEMENTS:
                return _ShapePlan(plan, rows, dim)
            shape = _ShapePlan(plan, rows, dim, compiled=True)
            if len(self._shapes) >= _CACHED_SHAPES:
                del self._shapes[next(iter(self._shapes))]
        self._shapes[key] = shape  # the most recently used goes last
        return shape


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
        band_counts: the config's ``(outer, inner)`` band counts.
        nibble_is_code: whether :func:`_fused_nibbles` is the magnitude
            code itself — the side bit sits above the dense slot and
            the magnitude fits it (5-bit outliers over 4-bit slots).
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
    band_counts: Tuple[int, int]
    nibble_is_code: bool

    @property
    def dense_edges(self) -> Tuple[np.ndarray, ...]:
        """The columns every element is compared with or shifted by:
        the outermost band's ``outer_hi`` / ``outer_lo``, the outermost
        shell's ``inner_hi`` / ``inner_lo`` (each pair when its side
        has bands), then ``mid_edge``."""
        pairs = ()
        if self.outer_hi:
            pairs += (self.outer_hi[-1], self.outer_lo[-1])
        if self.inner_hi:
            pairs += (self.inner_hi[0], self.inner_lo[0])
        return pairs + (self.mid_edge,)


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
        band_counts=(config.num_outer_bands, config.num_inner_bands),
        nibble_is_code=(
            mag_bits == config.inlier_bits
            if config.group_shift
            else mag_bits <= config.inlier_bits
        ),
    )


def _column_levels(plan: "_KernelPlan", rows: int) -> np.ndarray:
    """The top code of every column of a ``rows``-row encode's ``[lo;
    hi]`` scale table: the kernels keep ``rows`` middle-group columns,
    then one column per (token, band) slot, token-major."""
    levels = np.empty(rows * (1 + plan.config.num_sparse_bands))
    levels[:rows] = plan.mid_levels
    levels[rows:] = plan.band_levels
    return levels


class _ShapePlan:
    """The shape-dependent half of the fused encode, for one ``(kernel
    plan, rows, dim)`` — as :class:`_KernelPlan` is the
    threshold-dependent half.

    A *compiled* plan, the kind a :class:`QuantizeScratch` keeps,
    spends memory to save work on every reuse: its dense-pass operands
    are full ``[G, T, D]`` tables (on a small matrix a NumPy operation
    against a full operand costs about half of one that broadcasts a
    ``[G, 1, 1]`` column), and it looks up the row and column of each
    outlier's flat position instead of dividing.  A plan built for one
    call takes the kernel plan's columns and divides.

    Attributes:
        blocks: the ``[G, T, D]`` row-block view of the input.
        levels: :func:`_column_levels`.
        row_column: where each row's band slots start in the scale
            table.
        row_edge: where each row's block starts in the kernel plan's
            block-major ``band_*_edges`` tables (``None`` for one
            block).
        unset: the scale table before any value reaches it: ``+inf``
            lows over ``-inf`` highs.
        token / pos: the row and column of every flat position
            (compiled; ``None`` otherwise).
        outer_hi / outer_lo / inner_hi / inner_lo / mid_edge: the dense
            pass's operands (:attr:`_KernelPlan.dense_edges`); ``None``
            for a side without bands.
        shifted: ``[rows, dim]`` work buffer of the dense pass, with
            its ``[G, T, D]`` and flat views.
        outer / mask / spare: ``[G, T, D]`` boolean work buffers of the
            COO extraction, with flat views of the first two.
        row_scales: ``[rows, 1]`` work buffers of each row's lower
            bound and scale in the compute dtype, with read-only
            ``row_lo`` / ``row_sigma`` views broadcasting it over the
            row: a broadcast view costs a NumPy operation less than a
            ``[rows, 1]`` operand.

    Every buffer is overwritten by each encode of this shape and copied
    out of, never returned.
    """

    __slots__ = (
        "blocks", "levels", "row_column", "row_edge", "unset", "token",
        "pos", "outer_hi", "outer_lo", "inner_hi", "inner_lo",
        "mid_edge", "shifted", "shifted_blocks", "shifted_flat",
        "outer", "mask", "spare", "outer_flat", "mask_flat",
        "row_scales", "row_lo", "row_sigma",
    )

    def __init__(
        self,
        plan: "_KernelPlan",
        rows: int,
        dim: int,
        compiled: bool = False,
    ) -> None:
        groups = plan.groups
        if rows % groups:
            raise ValueError(
                f"{rows} rows do not split into {groups} equal row blocks"
            )
        bands = plan.config.num_sparse_bands
        self.blocks = (groups, rows // groups, dim)
        self.levels = _column_levels(plan, rows)
        row = np.arange(rows)
        self.row_column = rows + bands * row
        self.row_edge = None
        if groups > 1:
            self.row_edge = bands * (row // (rows // groups))
        self.unset = np.empty((2, self.levels.size))
        self.unset[0] = np.inf
        self.unset[1] = -np.inf
        edges = list(plan.dense_edges)
        self.token = self.pos = None
        if compiled:
            positions = np.empty((2, rows, dim), dtype=np.int64)
            positions[0] = np.arange(rows)[:, None]
            positions[1] = np.arange(dim)
            self.token, self.pos = positions.reshape(2, -1)
            full = np.empty((len(edges),) + self.blocks, dtype=plan.wdtype)
            for table, column in zip(full, edges):
                table[...] = column
            edges = list(full)
        self.outer_hi = self.outer_lo = self.inner_hi = self.inner_lo = None
        if plan.outer_hi:
            self.outer_hi, self.outer_lo = edges[:2]
            del edges[:2]
        if plan.inner_hi:
            self.inner_hi, self.inner_lo = edges[:2]
        self.mid_edge = edges[-1]
        self.shifted = np.empty((rows, dim), dtype=plan.wdtype)
        self.shifted_blocks = self.shifted.reshape(self.blocks)
        self.shifted_flat = self.shifted.reshape(-1)
        self.outer, self.mask, self.spare = np.empty(
            (3,) + self.blocks, dtype=bool
        )
        self.outer_flat = self.outer.reshape(-1)
        self.mask_flat = self.mask.reshape(-1)
        scales = np.empty((2, rows, 1), dtype=plan.wdtype)
        self.row_scales = (scales[0], scales[1])
        self.row_lo, self.row_sigma = np.broadcast_to(scales, (2, rows, dim))


def _outlier_coo(
    x: np.ndarray, plan: _KernelPlan, shape: Optional[_ShapePlan] = None
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

    ``shape`` supplies the mask buffers (one is built when omitted).
    """
    num_outer, num_inner = plan.band_counts
    if not (num_outer or num_inner):
        flat = np.zeros(0, dtype=np.int64)
        return flat, np.zeros(0, dtype=x.dtype), np.zeros(0, dtype=np.int16)
    if shape is None:
        groups, tokens, dim = x.shape
        shape = _ShapePlan(plan, groups * tokens, dim)
    outer, spare = shape.outer, shape.spare
    if num_outer:
        np.greater(x, shape.outer_hi, out=outer)
        np.less(x, shape.outer_lo, out=spare)
        np.logical_or(outer, spare, out=outer)
    if num_inner:
        mask = shape.mask
        np.less_equal(x, shape.inner_hi, out=mask)
        np.greater_equal(x, shape.inner_lo, out=spare)
        np.logical_and(mask, spare, out=mask)
        if num_outer:
            np.logical_or(mask, outer, out=mask)
        flat = shape.mask_flat.nonzero()[0]
    else:
        flat = shape.outer_flat.nonzero()[0]
    xg = x.reshape(-1)[flat]

    # Single-band sides need no per-record threshold compare: the dense
    # masks above already decided them, and with one band a side the
    # outer mask alone names every record's band.
    band_lut = num_outer <= 1 and num_inner <= 1
    outer_band = np.int16(0)
    inner_band = np.int16(num_outer)
    if not band_lut:
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
        if band_lut:
            band = _SIDE_BAND[shape.outer_flat[flat].view(np.uint8)]
        else:
            band = np.where(shape.outer_flat[flat], outer_band, inner_band)
    else:
        band = np.full(
            flat.shape, outer_band if num_outer else inner_band
        )
    return flat, xg, band


def _fused_nibbles(
    config: OakenConfig, side: np.ndarray, mag_code: np.ndarray
) -> np.ndarray:
    """The low ``inlier_bits`` of every outlier's full code — the side
    bit (when group-shifted) over the magnitude bits — as embedded in
    the outlier's dense slot: the fused layout's one packing rule.

    Magnitude codes are clipped to their width, so bits that cannot
    reach the slot are never computed: for the default 5-bit outliers
    over 4-bit slots the nibble is the magnitude code itself."""
    keep = config.inlier_bits
    code = mag_code
    width = config.outlier_bits
    if config.group_shift:
        width -= 1  # the magnitude bits, under the side bit
        if width < keep:
            code = (side.view(np.uint8) << width) | code
            width += 1
    if width > keep:
        code = code & ((1 << keep) - 1)
    return code


def _fused_quantize(
    plan: _KernelPlan,
    thresholds: Union[GroupThresholds, Tuple[GroupThresholds, ...]],
    values: np.ndarray,
    scratch: Optional[QuantizeScratch] = None,
) -> EncodedKV:
    """Single-pass fused encode of a [G*T, D] matrix of G row blocks.

    Pipeline: COO extraction -> gathered per-band magnitudes -> one
    dense in-place pass with outlier slots neutralized by an
    inf-scatter -> one FP16 rounding and one scale computation over
    every middle-group and band bound -> code emission -> fused nibble
    embed.  Every step is row-local or elementwise, so block ``g`` of
    the result is exactly the encode of block ``g`` under the
    thresholds ``plan`` was compiled from for it; in float64 every
    emitted array is bit-identical to
    :func:`repro.core.reference.reference_quantize`.  ``thresholds``
    labels the result: the calling quantizer's own objects (plans are
    shared by value, chunk identity checks are not).  ``scratch``
    supplies the shape's compiled half; without one it is built here.
    """
    cfg = plan.config
    x = values
    if type(x) is not np.ndarray or (
        x.dtype is not _FLOAT64 and x.dtype is not _FLOAT32
    ):
        x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2:
        x = np.atleast_2d(x)
        if x.ndim != 2:
            raise ValueError(f"expected a [T, D] matrix, got shape {x.shape}")
    rows, dim = x.shape
    shape = (
        _ShapePlan(plan, rows, dim) if scratch is None
        else scratch.shape(plan, rows, dim)
    )
    wdtype = plan.wdtype
    # (float32 -> float64 -> compute dtype is exact, so a float32 input
    # converts straight to the compute dtype.)
    if x.dtype is not wdtype:
        x = x.astype(wdtype)
    blocks = x.reshape(shape.blocks)

    # --- COO stream first ---------------------------------------------------
    # ``flat`` indexes the outlier slots of any [rows, dim] matrix viewed
    # flat: the value gather and all three scatters below share it.
    flat, xg, band = _outlier_coo(blocks, plan, shape)
    if shape.token is None:
        token, pos = np.divmod(flat, dim)
    else:
        token = shape.token[flat]
        pos = shape.pos[flat]
    if xg.dtype is not _FLOAT64:
        xg = xg.astype(np.float64)

    # --- sparse bands: gathered magnitudes on outliers only -----------------
    if cfg.group_shift:
        edge = band if shape.row_edge is None else band + shape.row_edge[token]
        side = xg > 0
        mag = np.where(
            side, xg - plan.band_hi_edges[edge], plan.band_lo_edges[edge] - xg
        )
    else:
        mag = xg
        side = np.zeros(flat.size, dtype=bool)
    # One ``[lo; hi]`` scale table: the middle group's bounds per row,
    # then each (token, band) slot's — rounded and scaled in one pass.
    # The band slots' bounds are the min/max of their records'
    # magnitudes, O(nnz) without touching the dense matrix: from
    # ``+inf`` / ``-inf``, the identities of min and max, one unbuffered
    # minimum and one maximum over the records.  A slot no record names
    # keeps ``lo > hi`` until the zeroing below.
    scales = shape.unset.copy()
    column = shape.row_column[token] + band
    np.minimum.at(scales[0], column, mag)
    np.maximum.at(scales[1], column, mag)

    # --- dense middle group: one in-place pass ------------------------------
    shifted = shape.shifted
    if cfg.group_shift:
        # x - copysign(edge, x): where this differs from the seed's
        # ``x > 0`` select (x = +-0) the slot is an inner-band outlier,
        # overwritten below.
        by_block = shape.shifted_blocks
        np.copysign(shape.mid_edge, blocks, out=by_block)
        np.subtract(blocks, by_block, out=by_block)
    else:
        np.copyto(shape.shifted_blocks, blocks)

    # Outlier slots are overwritten after encoding, so they can carry
    # sentinels: +inf is transparent to the row minimum, -inf to the
    # maximum, and -inf clips to code 0 exactly like the seed's masking.
    slots = shape.shifted_flat
    slots[flat] = np.inf
    np.minimum.reduce(shifted, axis=1, out=scales[0, :rows])
    slots[flat] = -np.inf
    np.maximum.reduce(shifted, axis=1, out=scales[1, :rows])
    # A column no value reached — a band slot without records, a row of
    # outliers whose middle group reduced over sentinels alone — is
    # ``lo = hi = 0``, the seed convention.
    np.copyto(scales, 0.0, where=scales[0] > scales[1])
    scales = scales.astype(np.float16).astype(np.float64)  # FP16 storage
    sigma = _sigma(scales[0], scales[1], shape.levels)

    sparse = mag - scales[0][column]
    sparse *= sigma[column]
    np.rint(sparse, out=sparse)
    np.maximum(sparse, 0.0, out=sparse)
    np.minimum(sparse, plan.band_levels, out=sparse)
    sparse_mag = sparse.astype(np.uint8)

    # Each row's lower bound and scale, in the compute dtype, broadcast
    # over the row.
    row_lo, row_sigma = shape.row_scales
    row_lo[...] = scales[0, :rows, None]
    row_sigma[...] = sigma[:rows, None]
    np.subtract(shifted, shape.row_lo, out=shifted)
    np.multiply(shifted, shape.row_sigma, out=shifted)
    np.rint(shifted, out=shifted)
    np.maximum(shifted, 0.0, out=shifted)
    np.minimum(shifted, plan.mid_levels, out=shifted)
    dense_codes = shifted.astype(np.uint8)

    # --- fused nibble embed / naive FP16 records ----------------------------
    sparse_fp16 = None
    if cfg.fused_encoding:
        dense_codes[token, pos] = (
            sparse_mag if plan.nibble_is_code
            else _fused_nibbles(cfg, side, sparse_mag)
        )
    else:
        sparse_fp16 = xg.astype(np.float16)

    scales = scales.astype(np.float32)
    band_scales = scales[:, rows:].reshape(2, rows, cfg.num_sparse_bands)
    return EncodedKV(
        config=cfg,
        thresholds=thresholds,
        shape=(rows, dim),
        dense_codes=dense_codes,
        middle_lo=scales[0, :rows],
        middle_hi=scales[1, :rows],
        band_lo=band_scales[0],
        band_hi=band_scales[1],
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
    rows, dim = encoded.shape
    bands = cfg.num_sparse_bands
    # The encode's ``[lo; hi]`` scale table, rebuilt in float64: one
    # scale computation for the middle group and every band.
    lo, hi = np.concatenate(
        (encoded.middle_lo, encoded.band_lo,
         encoded.middle_hi, encoded.band_hi),
        axis=None, dtype=np.float64,
    ).reshape(2, -1)
    sigma = _sigma(lo, hi, _column_levels(plan, rows))
    out = encoded.dense_codes.astype(wdtype)
    np.divide(out, sigma[:rows, None].astype(wdtype, copy=False), out=out)
    np.add(
        out, encoded.middle_lo[:, None].astype(wdtype, copy=False), out=out
    )
    if cfg.group_shift:
        # ``out`` is never -0.0 here (a non-negative code over a positive
        # scale, plus the bound), so copysign selects as ``out >= 0`` did.
        blocks = out.reshape(plan.groups, -1, dim)
        np.add(blocks, np.copysign(plan.mid_edge, blocks), out=blocks)

    token = encoded.sparse_token
    if token.size:
        pos = encoded.sparse_pos
        if encoded.sparse_fp16 is not None:
            out[token, pos] = encoded.sparse_fp16
        else:
            band = encoded.sparse_band
            # Each record's band slot (the encode's ``row_column[token]
            # + band``, counted from the first band column).
            column = token * bands
            column += band
            mag = encoded.sparse_mag_code / sigma[rows:][column]
            mag += lo[rows:][column]
            if cfg.group_shift:
                edge = band
                if plan.groups > 1:  # (the encode's ``row_edge``)
                    edge = token // (rows // plan.groups)
                    edge *= bands
                    edge += band
                mag = np.where(
                    encoded.sparse_side,
                    plan.band_hi_edges[edge] + mag,
                    plan.band_lo_edges[edge] - mag,
                )
            out[token, pos] = mag

    return out if out.dtype is _FLOAT32 else out.astype(np.float32)


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
    the kernels beside them, to price each call in engine cycles, and
    stacks through the :meth:`stack` hook like this class.
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

    # ------------------------------------------------------------------
    # row stacking
    # ------------------------------------------------------------------

    def _stack_key(self) -> tuple:
        """What quantizers must share to be the row blocks of one
        kernel call."""
        return (type(self), self.config, self.mode)

    def _stacked(self, quantizers: Sequence) -> "OakenQuantizer":
        """The row-stacked quantizer over ``quantizers``, checked by
        :meth:`stack`."""
        return OakenQuantizer(
            self.config, tuple(q.thresholds for q in quantizers), self.mode
        )

    def stack(
        self, quantizers: Sequence["OakenQuantizer"]
    ) -> "OakenQuantizer":
        """One row-stacked quantizer whose block ``g`` is
        ``quantizers[g]``'s tensor: what :class:`LayerEncoder` runs a
        transaction's blocks through.

        Raises:
            ValueError: a quantizer is itself row-stacked, or differs
                from this one in type, config or mode (or what a
                subclass adds to :meth:`_stack_key`).
        """
        key = self._stack_key()
        for q in quantizers:
            if not isinstance(q.thresholds, GroupThresholds) or (
                q._stack_key() != key
            ):
                raise ValueError(
                    f"{type(q).__name__} cannot share a row-stacked kernel "
                    f"call with {type(self).__name__}: the key and value "
                    "quantizers of a cache share one config, one mode and "
                    "one type, each over one tensor"
                )
        return self._stacked(quantizers)


class LayerEncoder:
    """Encodes and decodes the key and value rows of a model's layers.

    A step produces every layer's keys and values together, and the
    fused kernels are row-local, so a transaction's rows are one stack
    of equal row blocks along a (layer, K|V) axis: block ``2 * i + t``
    holds tensor ``t`` (0 keys, 1 values) of the ``i``-th listed layer.
    The whole stack goes through **one** kernel call each way: the
    row-stacked quantizer over every block's thresholds, built once per
    tuple of layers by the quantizers' own :meth:`OakenQuantizer.stack`
    (so the engine-backed subclass stacks into an engine-backed twin).
    The result is bit-identical to the per-tensor calls.

    Both stores — the chunk store, one layer per call, and the arena, a
    whole step per call — take the encode as it leaves the kernel
    (:meth:`encode`) and hand stored rows back for the decode half
    (:meth:`decode`).  The encoder owns the one scratch its calls need;
    the stores never touch the kernel entry points themselves.

    Args:
        key_quantizers / value_quantizers: one fitted quantizer per
            layer.

    Attributes:
        stacked: the row-stacked quantizer over every layer
            (``[keys; values]`` for a one-layer encoder).

    Raises:
        ValueError: the quantizers cannot share one kernel call
            (:meth:`OakenQuantizer.stack`), before any state exists.
    """

    def __init__(
        self, key_quantizers: Sequence, value_quantizers: Sequence
    ) -> None:
        self.key_quantizers = tuple(key_quantizers)
        self.value_quantizers = tuple(value_quantizers)
        self.scratch = QuantizeScratch()
        self._stacks: Dict[tuple, OakenQuantizer] = {}
        self.stacked = self.quantizer_of(range(len(self.key_quantizers)))

    def quantizer_of(self, layers: Sequence[int]) -> OakenQuantizer:
        """The row-stacked quantizer of a transaction over ``layers``,
        its blocks ``layers``' keys and values in (layer, K|V) order.
        Built once per tuple of layers."""
        key = tuple(layers)
        stacked = self._stacks.get(key)
        if stacked is None:
            quantizers = [
                q
                for layer in key
                for q in (
                    self.key_quantizers[layer], self.value_quantizers[layer]
                )
            ]
            stacked = self._stacks[key] = quantizers[0].stack(quantizers)
        return stacked

    def encode(
        self, layers: Sequence[int], rows: Sequence[np.ndarray]
    ) -> EncodedKV:
        """The encode half: one ``quantize_into`` of the stack.

        ``rows`` are the transaction's [t_i, D] matrices block by block,
        the same number to a block (the blocks of one transaction are
        equal; callers check).  Returns the encode of the whole stack
        exactly as the kernel emits it.
        """
        stack = rows[0] if len(rows) == 1 else np.concatenate(rows)
        return self.quantizer_of(layers).quantize_into(stack, self.scratch)

    def decode(
        self,
        layers: Sequence[int],
        gather: Callable[[OakenQuantizer], EncodedKV],
    ) -> np.ndarray:
        """The decode half: one ``dequantize`` of the stack.

        ``gather(quantizer)`` returns the transaction's stored rows as
        equal row blocks, labelled with ``quantizer``'s config and
        thresholds; the result is their float32 ``[rows, D]`` decode —
        bit-identical, row for row, to the per-tensor decodes.
        """
        stacked = self.quantizer_of(layers)
        return stacked.dequantize(gather(stacked))


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
