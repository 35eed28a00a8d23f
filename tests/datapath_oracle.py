"""The scalar element-streaming Figure 9 datapath: the test oracle.

Every module of the paper's Figure 9 (decomposer, min/max finder,
σ-calculator, inlier/outlier quantizers, zero-remove/zero-insert
shifters, outlier index buffer, OR-merge concatenator) as a class
processing one element at a time.  ``src/`` has one Oaken arithmetic,
the fused kernel of :class:`~repro.core.quantizer.OakenQuantizer`, and
prices it as the engines would run it
(:meth:`~repro.hardware.datapath.DatapathTiming.report`); the tests
hold the kernel equal to this model bit for bit in both ComputeModes,
and the reports equal to its cycle counts — the check the authors ran
between their RTL and their algorithm.

Timing: each token makes two passes over its ``D`` elements (range
discovery, then quantization) with a fixed σ-calculator turnaround in
between, and tokens pipeline three deep, so the quantization engine's
steady-state initiation interval is
``max(ceil(D / lanes), scale_latency_cycles)``.  Dequantization needs
no turnaround (scales stream in with the data): one pass per token
after a fixed fill, and an empty pass costs nothing.  These counts are
kept independent of ``DatapathTiming.cycles`` / ``DequantTiming.cycles``
— the closed forms the reports carry — so the cycle pin compares two
implementations.

Precision contract, register for register with the kernel:

* ``exact_f64`` — every stage works in float64.
* ``deploy_f32`` — the dense path works in float32 on the float32-cast
  input: the decomposer's compares and middle shift, the middle
  min/max, the inlier quantizer and the inlier dequantizer.  The sparse
  path works in float64 on those same float32 values: band shift,
  band min/max and scales, outlier quantizer and outlier dequantizer
  (whose result is rounded once, into the float32 output row).  Every
  σ is computed in float64 from the FP16 bounds and, on the dense
  path, then rounded to float32.

Operand order and each stage's working dtype are this contract: an
edit here must keep the kernel ≡ oracle pins green in both modes, and
one that needs a tolerance names the stage here and keeps the
tolerance in this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import OakenConfig
from repro.core.encoding import EncodedKV
from repro.core.grouping import MIDDLE_GROUP, GroupThresholds
from repro.core.modes import EXACT_F64, ComputeModeLike, resolve_compute_mode
from repro.hardware.datapath import CycleReport, DatapathTiming, DequantTiming


# -- wire formats between stages ---------------------------------------


@dataclass(frozen=True)
class RoutedElement:
    """One scalar leaving the decomposer stage.

    Attributes:
        position: element index within the token vector.
        group: ``MIDDLE_GROUP`` (-1) for the dense path, otherwise the
            sparse band id (outer bands first, outermost = 0).
        shifted: the group-shifted value handed to the quantization
            path — the shifted inlier for the dense path, the band
            magnitude for sparse paths (raw value when group-shift is
            disabled).
        side: True when the original value sat on the positive side of
            its band (always False for the dense path and in the
            no-group-shift ablation).
        raw: the original FP16-domain value (kept for the naive
            non-fused encoding, which stores outliers exactly).
    """

    position: int
    group: int
    shifted: float
    side: bool
    raw: float

    @property
    def is_outlier(self) -> bool:
        """True when this element takes the sparse path."""
        return self.group != MIDDLE_GROUP


@dataclass(frozen=True)
class COORecord:
    """One aligned sparse record as written to the sparse page stream.

    Attributes:
        position: absolute element index within the token vector.
        chunk: which ``2**index_bits``-element chunk the index addresses.
        index: chunk-local index (the paper's 6 index bits).
        band: sparse band id (the paper's group bit(s)).
        side: the side/"sign" bit riding in the record.
        mag_code: quantized magnitude code (full width, before fusion).
        fused_nibble: the low ``inlier_bits`` of the full outlier code,
            as embedded in the zeroed dense slot (None when fused
            encoding is disabled).
        fp16_value: exact FP16 value for the naive 23-bit layout (None
            under fused encoding).
    """

    position: int
    chunk: int
    index: int
    band: int
    side: bool
    mag_code: int
    fused_nibble: Optional[int] = None
    fp16_value: Optional[float] = None


@dataclass
class TokenQuantResult:
    """Everything the quantization engine emits for one token.

    Attributes:
        dense_codes: [D] uint8 fused dense row (middle codes + embedded
            outlier nibbles).
        records: COO records in position stream order.
        middle_lo / middle_hi: FP16-rounded middle-group scale bounds.
        band_lo / band_hi: per-sparse-band FP16-rounded magnitude scale
            bounds (length ``num_sparse_bands``).
    """

    dense_codes: np.ndarray
    records: List[COORecord]
    middle_lo: float
    middle_hi: float
    band_lo: List[float]
    band_hi: List[float]

    @property
    def num_outliers(self) -> int:
        return len(self.records)


def fp16_round(value: float) -> float:
    """Round one scalar to FP16 precision, as the hardware stores scales
    (a python float; fp16 values are exact in float32 and float64)."""
    return float(np.float16(value))


def scale_sigma(lo: float, hi: float, bits: int, eps: float = 1e-12) -> float:
    """The uniform-quantization scale factor of Eq. 2 for one group.

    Mirrors the fused kernel's guard (``_sigma`` in
    :mod:`repro.core.quantizer`, and the seed ``_rowwise_encode`` kept
    in :mod:`repro.core.reference`): a degenerate span (empty group or
    constant values) gets sigma 1.0 so codes collapse to zero.  Always
    float64, in both ComputeModes.
    """
    span = float(hi) - float(lo)
    if span > eps:
        return (2.0**bits - 1.0) / max(span, eps)
    return 1.0


# -- quantization engine stages (Figure 9a) ----------------------------


class Decomposer:
    """Threshold compare + group shift (module 1 in Figure 9a).

    Holds the offline thresholds in its control registers and, per
    element, performs the handful of compares that replace the online
    topK of prior work, then subtracts the band edge (group shift).

    The compare registers and the middle shift edges hold the
    thresholds at the stage-mode precision (the
    :class:`~repro.core.modes.ComputeMode` working dtype); the band
    shift edges are float64, and the band shift runs in float64 on the
    stage-mode value (the sparse path's precision in both modes).
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
        w = self.mode.compute_dtype.type
        self._outer_lo = tuple(w(v) for v in thresholds.outer_lo)
        self._outer_hi = tuple(w(v) for v in thresholds.outer_hi)
        self._inner_mag = tuple(w(v) for v in thresholds.inner_mag)
        mid_lo, mid_hi = thresholds.middle_shift_edges()
        self._mid_lo_edge = w(mid_lo)
        self._mid_hi_edge = w(mid_hi)
        self._band_edges = tuple(
            thresholds.band_shift_edges(b)
            for b in range(thresholds.num_sparse_bands)
        )

    def classify(self, value: float) -> int:
        """Group id of one element (scalar twin of ``assign_groups``)."""
        thr = self.thresholds
        # Outer bands, outermost first: the first band whose edges the
        # value exceeds claims it.
        for band in range(thr.num_outer_bands):
            if value > self._outer_hi[band] or value < self._outer_lo[band]:
                return band
        # Inner shells, innermost first, so nested shells claim from
        # the inside out.
        magnitude = abs(value)
        for j in range(thr.num_inner_bands - 1, -1, -1):
            if magnitude <= self._inner_mag[j]:
                return thr.num_outer_bands + j
        return MIDDLE_GROUP

    def route(self, position: int, value: float) -> RoutedElement:
        """Classify and group-shift one element."""
        group = self.classify(value)
        cfg = self.config
        if group == MIDDLE_GROUP:
            if cfg.group_shift:
                shifted = (
                    value - self._mid_hi_edge
                    if value > 0
                    else value - self._mid_lo_edge
                )
            else:
                shifted = value
            return RoutedElement(
                position=position, group=group, shifted=shifted,
                side=False, raw=value,
            )
        lo_edge, hi_edge = self._band_edges[group]
        wide = float(value)
        if cfg.group_shift:
            side = wide > 0
            shifted = wide - hi_edge if side else lo_edge - wide
        else:
            side = False
            shifted = wide
        return RoutedElement(
            position=position, group=group, shifted=shifted,
            side=bool(side), raw=value,
        )


class MinMaxFinder:
    """Running per-group min/max over one token (module 2 in Figure 9a).

    One register pair per quantization group; reset between tokens.
    """

    def __init__(self, num_sparse_bands: int):
        self.num_sparse_bands = num_sparse_bands
        self.reset()

    def reset(self) -> None:
        """Clear the range registers for a new token."""
        self._lo: Dict[int, float] = {}
        self._hi: Dict[int, float] = {}

    def update(self, element: RoutedElement) -> None:
        """Fold one routed element into its group's range."""
        group = element.group
        value = element.shifted
        if group not in self._lo or value < self._lo[group]:
            self._lo[group] = value
        if group not in self._hi or value > self._hi[group]:
            self._hi[group] = value

    def range_of(self, group: int) -> Tuple[float, float]:
        """(min, max) of a group; (0, 0) when the group saw no elements."""
        if group not in self._lo:
            return (0.0, 0.0)
        return (self._lo[group], self._hi[group])


@dataclass(frozen=True)
class GroupScale:
    """One group's quantization scale triple after FP16 rounding."""

    lo: float
    hi: float
    sigma: float
    bits: int

    def encode(self, shifted: float) -> int:
        """Quantize one group-shifted value to its integer code (Eq. 3)."""
        code = float(np.round((shifted - self.lo) * self.sigma))
        return int(np.clip(code, 0, 2**self.bits - 1))


class ScaleCalculator:
    """Per-group sigma computation (the σ-calculator in Figure 9a).

    Runs once per token per group, between the two streaming passes.
    Stores lo/hi at FP16 precision first — exactly what the hardware
    writes alongside the data — then derives sigma from the rounded
    bounds in float64.  The middle group's triple is held in the
    stage-mode dtype (sigma rounded to it); the sparse bands' stays
    float64.
    """

    def __init__(self, config: OakenConfig, mode: ComputeModeLike = None):
        self.config = config
        self.mode = resolve_compute_mode(mode, EXACT_F64)

    def group_bits(self, group: int) -> int:
        """Code width of a group (inlier vs outlier path)."""
        cfg = self.config
        if group == MIDDLE_GROUP:
            return cfg.inlier_bits
        if cfg.group_shift:
            return cfg.outlier_bits - 1
        return cfg.outlier_bits

    def scale(self, group: int, lo: float, hi: float) -> GroupScale:
        """Turn one group's raw range into its FP16 scale triple."""
        bits = self.group_bits(group)
        lo16 = fp16_round(lo)
        hi16 = fp16_round(hi)
        sigma = scale_sigma(lo16, hi16, bits)
        if group == MIDDLE_GROUP:
            w = self.mode.compute_dtype.type
            return GroupScale(
                lo=w(lo16), hi=w(hi16), sigma=w(sigma), bits=bits
            )
        return GroupScale(lo=lo16, hi=hi16, sigma=sigma, bits=bits)


class OutlierExtractor:
    """COO record assembly + zero-remove shifter (Figure 9a, module 3).

    Consumes quantized outliers in position order and emits the
    compacted sparse stream: the zero-remove shifter's job is exactly
    this compaction — inliers produce no sparse traffic, so record
    ``k`` sits at sparse offset ``k`` regardless of how far apart the
    outliers were in the dense row.
    """

    def __init__(self, config: OakenConfig):
        self.config = config
        self._records: List[COORecord] = []

    def reset(self) -> None:
        """Start a new token's sparse stream."""
        self._records = []

    def emit(self, element: RoutedElement, mag_code: int) -> COORecord:
        """Assemble and append the sparse record of one outlier."""
        cfg = self.config
        chunk = element.position // cfg.chunk_size
        index = element.position % cfg.chunk_size
        fused_nibble: Optional[int] = None
        fp16_value: Optional[float] = None
        if cfg.fused_encoding:
            if cfg.group_shift:
                mag_bits = cfg.outlier_bits - 1
                full_code = (int(element.side) << mag_bits) | mag_code
            else:
                full_code = mag_code
            fused_nibble = full_code & ((1 << cfg.inlier_bits) - 1)
        else:
            fp16_value = float(np.float16(element.raw))
        record = COORecord(
            position=element.position,
            chunk=chunk,
            index=index,
            band=element.group,
            side=element.side,
            mag_code=mag_code,
            fused_nibble=fused_nibble,
            fp16_value=fp16_value,
        )
        self._records.append(record)
        return record

    @property
    def records(self) -> List[COORecord]:
        return list(self._records)


class FusedConcatenator:
    """Dense-row assembly with embedded outlier nibbles (the OR gate).

    The inlier path writes middle-group codes; the outlier path writes
    the fused nibble into the (zeroed) slot of each outlier.  Because
    the two paths never write the same slot, a bitwise OR merges them —
    which is how the hardware joins the streams.
    """

    def __init__(self, dim: int, config: OakenConfig):
        self.config = config
        self._inlier_row = np.zeros(dim, dtype=np.uint8)
        self._outlier_row = np.zeros(dim, dtype=np.uint8)

    def reset(self) -> None:
        self._inlier_row[:] = 0
        self._outlier_row[:] = 0

    def write_inlier(self, position: int, code: int) -> None:
        self._inlier_row[position] = code

    def write_outlier(self, position: int, nibble: int) -> None:
        self._outlier_row[position] = nibble

    def merged(self) -> np.ndarray:
        """OR-merge of the two paths — the fused dense row."""
        return np.bitwise_or(self._inlier_row, self._outlier_row)


# -- the streaming quantization engine ---------------------------------


class StreamingQuantEngine:
    """Element-streaming quantization engine for one (layer, tensor) pair.

    Args:
        config: quantizer hyper-parameters.
        thresholds: offline-profiled thresholds held in the engine's
            control registers.
        timing: lane width and clock of the datapath.
        mode: the :class:`~repro.core.modes.ComputeMode` stage mode
            (``exact_f64`` by default; see the module's precision
            contract for ``deploy_f32``).
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
        self._decomposer = Decomposer(config, thresholds, self.mode)
        self._scale_calc = ScaleCalculator(config, self.mode)

    # ------------------------------------------------------------------
    # per-token functional path
    # ------------------------------------------------------------------

    def quantize_token(
        self, vector: Sequence[float], report: Optional[CycleReport] = None
    ) -> TokenQuantResult:
        """Stream one token vector through the engine.

        Args:
            vector: the token's key or value vector (length ``D``).
            report: optional cycle report to accumulate stage activity
                into (the engine-level cycle math lives in
                :meth:`quantize_matrix`).

        Returns:
            The fused dense row, COO stream, and per-group scales.
        """
        row = self.mode.cast(np.asarray(vector, dtype=np.float64))
        values = list(row)
        dim = len(values)
        cfg = self.config
        minmax = MinMaxFinder(cfg.num_sparse_bands)
        extractor = OutlierExtractor(cfg)
        concat = FusedConcatenator(dim, cfg)

        # Pass 1: decompose + per-group range discovery.
        routed = []
        for position, value in enumerate(values):
            element = self._decomposer.route(position, value)
            minmax.update(element)
            routed.append(element)

        # Between passes: the sigma calculator prices each group.
        scales = {}
        groups = [MIDDLE_GROUP] + list(range(cfg.num_sparse_bands))
        for group in groups:
            lo, hi = minmax.range_of(group)
            scales[group] = self._scale_calc.scale(group, lo, hi)

        # Pass 2: quantize, extract sparse records, assemble dense row.
        for element in routed:
            scale = scales[element.group]
            code = scale.encode(element.shifted)
            if element.is_outlier:
                record = extractor.emit(element, code)
                if cfg.fused_encoding:
                    concat.write_outlier(
                        element.position, record.fused_nibble
                    )
            else:
                concat.write_inlier(element.position, code)

        if report is not None:
            pass_cycles = self.timing.pass_cycles(dim)
            report.stage("decomposer").record(dim, pass_cycles)
            report.stage("minmax_finder").record(dim, pass_cycles)
            report.stage("scale_calculator").record(
                len(groups), self.timing.scale_latency_cycles
            )
            report.stage("quantizer").record(dim, pass_cycles)
            # The shifter compacts in-line with pass 2: it is busy in
            # every pass cycle whose lane group contains an outlier,
            # bounded by the pass itself.
            report.stage("zero_remove_shifter").record(
                len(extractor.records),
                min(pass_cycles, len(extractor.records)),
            )

        middle = scales[MIDDLE_GROUP]
        return TokenQuantResult(
            dense_codes=concat.merged(),
            records=extractor.records,
            middle_lo=middle.lo,
            middle_hi=middle.hi,
            band_lo=[scales[b].lo for b in range(cfg.num_sparse_bands)],
            band_hi=[scales[b].hi for b in range(cfg.num_sparse_bands)],
        )

    # ------------------------------------------------------------------
    # matrix-level drive + cycle math
    # ------------------------------------------------------------------

    def quantize_matrix(
        self, values: np.ndarray
    ) -> "tuple[EncodedKV, CycleReport]":
        """Stream a [T, D] matrix token by token.

        Returns:
            ``(encoded, cycles)`` where ``encoded`` is bit-identical to
            the fused kernel's output and ``cycles`` carries the
            double-buffered pipeline timing.
        """
        x = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError(f"expected a [T, D] matrix, got {x.shape}")
        tokens, dim = x.shape
        report = CycleReport(tokens=tokens, elements=tokens * dim)
        results = [
            self.quantize_token(x[t], report=report) for t in range(tokens)
        ]
        report.total_cycles = self._pipeline_cycles(tokens, dim)
        return self._assemble(x.shape, results), report

    def _pipeline_cycles(self, tokens: int, dim: int) -> int:
        """Token-level three-stage pipeline timing.

        Tokens are buffered three deep: while token *t* streams through
        the quantize/emit pass, token *t+1* sits in the σ-calculator
        and token *t+2* streams through decompose/min-max.  The
        steady-state initiation interval is therefore the slowest of
        the three stages, which for any realistic vector width is the
        element pass itself: ``lanes`` elements per cycle.
        """
        if tokens <= 0:
            return 0
        timing = self.timing
        pass_cycles = timing.pass_cycles(dim)
        scale_cycles = timing.scale_latency_cycles
        interval = max(pass_cycles, scale_cycles)
        fill = pass_cycles + scale_cycles + pass_cycles
        return fill + (tokens - 1) * interval

    def _assemble(
        self, shape: "tuple[int, int]", results: List[TokenQuantResult]
    ) -> EncodedKV:
        """Pack per-token results into the EncodedKV storage layout."""
        cfg = self.config
        tokens, dim = shape
        bands = cfg.num_sparse_bands
        dense = np.zeros((tokens, dim), dtype=np.uint8)
        middle_lo = np.zeros(tokens, dtype=np.float64)
        middle_hi = np.zeros(tokens, dtype=np.float64)
        band_lo = np.zeros((tokens, bands), dtype=np.float64)
        band_hi = np.zeros((tokens, bands), dtype=np.float64)
        sparse_token: List[int] = []
        sparse_pos: List[int] = []
        sparse_band: List[int] = []
        sparse_side: List[bool] = []
        sparse_mag: List[int] = []
        sparse_fp16: List[float] = []
        for t, result in enumerate(results):
            dense[t] = result.dense_codes
            middle_lo[t] = result.middle_lo
            middle_hi[t] = result.middle_hi
            band_lo[t] = result.band_lo
            band_hi[t] = result.band_hi
            for record in result.records:
                sparse_token.append(t)
                sparse_pos.append(record.position)
                sparse_band.append(record.band)
                sparse_side.append(record.side)
                sparse_mag.append(record.mag_code)
                if record.fp16_value is not None:
                    sparse_fp16.append(record.fp16_value)
        fp16 = None
        if not cfg.fused_encoding:
            fp16 = np.array(sparse_fp16, dtype=np.float16)
        return EncodedKV(
            config=cfg,
            thresholds=self.thresholds,
            shape=(tokens, dim),
            dense_codes=dense,
            middle_lo=middle_lo.astype(np.float32),
            middle_hi=middle_hi.astype(np.float32),
            band_lo=band_lo.astype(np.float32),
            band_hi=band_hi.astype(np.float32),
            sparse_token=np.array(sparse_token, dtype=np.int64),
            sparse_pos=np.array(sparse_pos, dtype=np.int64),
            sparse_band=np.array(sparse_band, dtype=np.int16),
            sparse_side=np.array(sparse_side, dtype=bool),
            sparse_mag_code=np.array(sparse_mag, dtype=np.uint8),
            sparse_fp16=fp16,
        )


# -- dequantization engine stages (Figure 9b) --------------------------


class OutlierIndexBuffer:
    """Per-token staging of sparse records, keyed by dense position.

    Models the "Outlier Index Buffer" in Figure 9b: sparse pages of the
    streaming token are fetched alongside the dense pages, and the
    records wait here until the dense stream reaches their position.
    """

    def __init__(self):
        self._by_position: Dict[int, COORecord] = {}

    def load(self, records: Iterable[COORecord]) -> None:
        """Stage one token's sparse records."""
        self._by_position = {r.position: r for r in records}

    def lookup(self, position: int) -> Optional[COORecord]:
        """Record owning ``position``, if any."""
        return self._by_position.get(position)

    def __len__(self) -> int:
        return len(self._by_position)


@dataclass(frozen=True)
class DequantScales:
    """One token's decode-side scale set.

    Attributes:
        middle_lo / middle_hi: FP16 middle-group bounds as read back
            from memory (float32 storage), in the stage-mode dtype.
        band_lo / band_hi: per-band magnitude bounds, float64.
    """

    middle_lo: float
    middle_hi: float
    band_lo: Tuple[float, ...]
    band_hi: Tuple[float, ...]


class InlierDequantizer:
    """Dense-path decode: Eq. 3 inverse plus the middle group un-shift.

    The un-shift edges live in stage registers at the
    :class:`~repro.core.modes.ComputeMode` working precision, and the
    divide/add arithmetic runs in that dtype (float32 under the
    deploy_f32 stage mode) with sigma computed in float64 and rounded
    to it.
    """

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

    def decode(self, code: int, scales: DequantScales) -> float:
        """Reconstruct one dense slot's value from its stored code.

        Matches the fused kernel: every slot decodes through the
        middle-group scale (outlier slots are later overwritten by the
        sparse path), and the un-shift direction follows the sign of the
        decoded shifted value.
        """
        w = self.mode.compute_dtype.type
        lo = scales.middle_lo
        hi = scales.middle_hi
        sigma = w(scale_sigma(lo, hi, self.config.inlier_bits))
        shifted = w(code) / sigma + lo
        if not self.config.group_shift:
            return shifted
        if shifted >= 0:
            return shifted + self._mid_hi_edge
        return shifted + self._mid_lo_edge


class OutlierDequantizer:
    """Sparse-path decode: magnitude un-scale plus band un-shift, in
    float64 in both stage modes (the caller's row store rounds the
    result to the output dtype once)."""

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        mode: ComputeModeLike = None,
    ):
        self.config = config
        self.thresholds = thresholds
        self.mode = resolve_compute_mode(mode, EXACT_F64)
        self._band_edges = tuple(
            thresholds.band_shift_edges(b)
            for b in range(thresholds.num_sparse_bands)
        )

    def decode(
        self,
        band: int,
        side: bool,
        mag_code: int,
        scales: DequantScales,
        fp16_value: Optional[float] = None,
    ) -> float:
        """Reconstruct one outlier's value.

        ``mag_code`` and ``side`` come from the zero-insert shifter's
        reassembly (fused nibble + record bits), so a decode through
        this path also proves the fused encoding lost nothing.
        """
        cfg = self.config
        w = self.mode.compute_dtype.type
        if fp16_value is not None:
            # Naive 23-bit layout: the record carries the exact value.
            return w(fp16_value)
        lo = scales.band_lo[band]
        hi = scales.band_hi[band]
        bits = cfg.outlier_bits - 1 if cfg.group_shift else cfg.outlier_bits
        sigma = scale_sigma(lo, hi, bits)
        magnitude = mag_code / sigma + lo
        if not cfg.group_shift:
            return magnitude
        lo_edge, hi_edge = self._band_edges[band]
        if side:
            return hi_edge + magnitude
        return lo_edge - magnitude


class ZeroInsertShifter:
    """Re-expansion of the compacted sparse stream (Figure 9b).

    Walks the dense row position by position; when the index buffer
    owns the position, the fused nibble in the dense slot plus the
    record's code bit(s) are reassembled into the full outlier code and
    routed to the outlier dequantizer — the structural inverse of the
    zero-remove shifter on the quantization side.
    """

    def __init__(self, config: OakenConfig):
        self.config = config

    def record_high_bits(self, record: COORecord) -> int:
        """The code bits that travel in the COO record, not the slot.

        With the paper's 4-bit slots and 5-bit codes this is exactly
        the one side bit; narrower slots would carry more.
        """
        cfg = self.config
        if cfg.group_shift:
            mag_bits = cfg.outlier_bits - 1
            full_code = (int(record.side) << mag_bits) | record.mag_code
        else:
            full_code = record.mag_code
        return full_code >> cfg.inlier_bits

    def reassemble_code(
        self, record: COORecord, dense_slot: int
    ) -> "tuple[int, bool]":
        """Rebuild the full outlier code from nibble + record bits.

        Returns ``(mag_code, side)``.  Raises ValueError when the fused
        nibble read back from the dense slot disagrees with the record —
        a corruption check the tests exercise.
        """
        cfg = self.config
        if not cfg.fused_encoding:
            return record.mag_code, record.side
        if record.fused_nibble is not None and (
            dense_slot != record.fused_nibble
        ):
            raise ValueError(
                f"fused nibble mismatch at position {record.position}: "
                f"dense slot holds {dense_slot}, record says "
                f"{record.fused_nibble}"
            )
        high = self.record_high_bits(record)
        full_code = (high << cfg.inlier_bits) | (
            dense_slot & ((1 << cfg.inlier_bits) - 1)
        )
        if cfg.group_shift:
            mag_bits = cfg.outlier_bits - 1
            return full_code & ((1 << mag_bits) - 1), bool(
                full_code >> mag_bits
            )
        return full_code & ((1 << cfg.outlier_bits) - 1), False


# -- the streaming dequantization engine -------------------------------


class StreamingDequantEngine:
    """Element-streaming dequantization engine for one (layer, tensor).

    Args:
        config: quantizer hyper-parameters (must match the encoder's).
        thresholds: offline thresholds (shift edges for reconstruction).
        timing: lane width and clock of the datapath.
        mode: the :class:`~repro.core.modes.ComputeMode` stage mode
            (``exact_f64`` golden default; ``deploy_f32`` runs the
            inlier un-scale/un-shift arithmetic in float32).
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
        self._index_buffer = OutlierIndexBuffer()
        self._shifter = ZeroInsertShifter(config)
        self._inlier = InlierDequantizer(config, thresholds, self.mode)
        self._outlier = OutlierDequantizer(config, thresholds, self.mode)

    # ------------------------------------------------------------------

    def _records_of_token(
        self, encoded: EncodedKV, token: int
    ) -> List[COORecord]:
        """Materialize the COO records of one token from the layout."""
        cfg = self.config
        indices = encoded.outliers_of_token(token)
        records = []
        for i in indices:
            pos = int(encoded.sparse_pos[i])
            side = bool(encoded.sparse_side[i])
            mag = int(encoded.sparse_mag_code[i])
            fused = None
            fp16 = None
            if cfg.fused_encoding:
                if cfg.group_shift:
                    mag_bits = cfg.outlier_bits - 1
                    full = (int(side) << mag_bits) | mag
                else:
                    full = mag
                fused = full & ((1 << cfg.inlier_bits) - 1)
            else:
                fp16 = float(encoded.sparse_fp16[i])
            records.append(
                COORecord(
                    position=pos,
                    chunk=pos // cfg.chunk_size,
                    index=pos % cfg.chunk_size,
                    band=int(encoded.sparse_band[i]),
                    side=side,
                    mag_code=mag,
                    fused_nibble=fused,
                    fp16_value=fp16,
                )
            )
        return records

    def dequantize_token(
        self,
        encoded: EncodedKV,
        token: int,
        report: Optional[CycleReport] = None,
    ) -> np.ndarray:
        """Reconstruct one token row through the streaming datapath."""
        cfg = self.config
        dim = encoded.dim
        w = self.mode.compute_dtype.type
        scales = DequantScales(
            middle_lo=w(encoded.middle_lo[token]),
            middle_hi=w(encoded.middle_hi[token]),
            band_lo=tuple(float(v) for v in encoded.band_lo[token]),
            band_hi=tuple(float(v) for v in encoded.band_hi[token]),
        )
        records = self._records_of_token(encoded, token)
        self._index_buffer.load(records)

        row = np.zeros(dim, dtype=self.mode.compute_dtype)
        for position in range(dim):
            slot = int(encoded.dense_codes[token, position])
            record = self._index_buffer.lookup(position)
            if record is None:
                row[position] = self._inlier.decode(slot, scales)
                continue
            # Zero-insert path: reassemble the full outlier code from
            # the fused nibble and the record's high bits, then decode.
            if cfg.fused_encoding:
                mag, side = self._shifter.reassemble_code(record, slot)
            else:
                mag, side = record.mag_code, record.side
            row[position] = self._outlier.decode(
                record.band, side, mag, scales,
                fp16_value=record.fp16_value,
            )

        if report is not None:
            pass_cycles = self.timing.pass_cycles(dim)
            report.stage("zero_insert_shifter").record(
                len(records), min(pass_cycles, len(records))
            )
            report.stage("inlier_dequantizer").record(dim, pass_cycles)
            report.stage("outlier_dequantizer").record(
                len(records), min(pass_cycles, len(records))
            )
        return row.astype(np.float32)

    def dequantize_matrix(
        self, encoded: EncodedKV
    ) -> "tuple[np.ndarray, CycleReport]":
        """Stream a whole encoded tensor back to float rows.

        Returns:
            ``(matrix, cycles)`` where ``matrix`` matches the fused
            dequantizer bit for bit and ``cycles`` is the one-pass
            pipeline timing.
        """
        tokens, dim = encoded.shape
        report = CycleReport(tokens=tokens, elements=tokens * dim)
        rows = [
            self.dequantize_token(encoded, t, report=report)
            for t in range(tokens)
        ]
        if tokens:
            pass_cycles = self.timing.pass_cycles(dim)
            report.total_cycles = (
                self.timing.fill_cycles + tokens * pass_cycles
            )
        out = np.stack(rows, axis=0) if rows else np.zeros(
            (0, dim), dtype=np.float32
        )
        return out, report
