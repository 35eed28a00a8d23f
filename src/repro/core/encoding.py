"""Fused dense-and-sparse encoding (paper Section 4.5).

Prior dense-and-sparse schemes store each outlier as a full-precision
sparse entry: 16 value bits + 6 index bits + 1 group bit = 23 bits.
Oaken's fused encoding observes that after an outlier is removed from
the dense matrix its 4-bit dense slot is zeroed and *unused*, so the low
4 bits of the quantized 5-bit outlier code are embedded there.  The
sparse COO record then only needs 6 index bits, group bit(s), and the
one remaining code bit ("sign" bit) — 8 bits, byte-aligned, which is
what lets the MMU manage sparse pages with fixed-width entries.

:class:`EncodedKV` is the in-memory equivalent of what the hardware
writes to device memory, and :func:`sparse_record_bits` /
:func:`EncodedKV.footprint` reproduce the paper's effective-bitwidth
accounting (Table 2 bottom rows and Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import OakenConfig
from repro.core.grouping import GroupThresholds
from repro.quant.metrics import StorageFootprint


def sparse_record_bits(config: OakenConfig) -> int:
    """Bits per sparse COO record, after alignment padding.

    Fused encoding: ``index_bits + group_id_bits + record_code_bits``
    rounded up to a multiple of 8, where ``record_code_bits`` is the
    part of the outlier code that does not fit in the 4-bit dense slot
    (1 bit for 5-bit outliers, 0 for 4-bit outliers).  This reproduces
    Table 3's accounting: the 3-group/5-bit default is 6+1+1 = 8 bits;
    4..5-group/5-bit configurations need 2 group bits, giving 9 bits
    padded to 16; 4-bit outliers drop back to 8.

    Naive (non-fused) encoding: a full 16-bit value plus index and group
    bits — the 23-bit records of prior work.

    Computed once per frozen config
    (:attr:`OakenConfig.sparse_record_bits`); this is the accounting's
    public spelling.
    """
    return config.sparse_record_bits


@dataclass
class EncodedKV:
    """A quantized [T, D] KV tensor in Oaken's storage layout.

    Token-major: row ``t`` is the KV vector of token ``t`` (the paper
    quantizes per token, over the newly generated key/value vector).

    Attributes:
        config: the quantizer configuration that produced this tensor.
        thresholds: the offline thresholds used for grouping/shifting
            (a tuple of them, one per equal row block, straight out of
            a row-stacked quantizer — see :func:`row_block_views`).
        shape: original (T, D).
        dense_codes: [T, D] uint8; middle-group codes, with outlier
            slots holding the fused low bits of their outlier code (or
            zero when fused encoding is off).
        middle_lo / middle_hi: [T] float32 per-token middle-group scale
            bounds (stored as FP16-rounded values, like the hardware).
        band_lo / band_hi: [T, num_sparse_bands] float32 per-token
            per-band magnitude scale bounds.
        sparse_token / sparse_pos / sparse_band: flat int arrays, one
            entry per outlier, in (token, position) stream order — the
            COO payload.
        sparse_extra: per-outlier record code bits (the "sign" bit for
            5-bit outliers; unused for 4-bit).
        sparse_side: per-outlier side flag (True = positive side of the
            band).  Physically this is carried by ``sparse_extra`` or
            the fused nibble; kept explicit here for clarity.
        sparse_mag_code: per-outlier magnitude code (the fused nibble's
            payload plus any record bits, already assembled).
        sparse_fp16: exact FP16 outlier values when fused encoding is
            disabled (the 23-bit naive layout); ``None`` otherwise.
    """

    config: OakenConfig
    thresholds: Union[GroupThresholds, Tuple[GroupThresholds, ...]]
    shape: tuple
    dense_codes: np.ndarray
    middle_lo: np.ndarray
    middle_hi: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    sparse_token: np.ndarray
    sparse_pos: np.ndarray
    sparse_band: np.ndarray
    sparse_side: np.ndarray
    sparse_mag_code: np.ndarray
    sparse_fp16: Optional[np.ndarray] = None
    _cached_footprint: Optional[StorageFootprint] = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_tokens(self) -> int:
        return self.shape[0]

    @property
    def dim(self) -> int:
        return self.shape[1]

    @property
    def num_outliers(self) -> int:
        return int(self.sparse_token.size)

    def outliers_of_token(self, token: int) -> np.ndarray:
        """Indices into the sparse arrays belonging to ``token``."""
        return np.nonzero(self.sparse_token == token)[0]

    def footprint(self) -> StorageFootprint:
        """Bit-exact storage accounting (the Table 2/3 metric).

        Dense bits cover every element at ``inlier_bits``; sparse bits
        cover one aligned record per outlier; metadata bits cover the
        per-token per-group FP16 scale bounds (2 scalars for the middle
        group plus 2 per sparse band).
        """
        if self._cached_footprint is not None:
            return self._cached_footprint
        elements = self.num_tokens * self.dim
        dense_bits = float(elements * self.config.inlier_bits)
        sparse_bits = float(
            self.num_outliers * sparse_record_bits(self.config)
        )
        metadata_bits = float(
            self.num_tokens * self.config.token_metadata_bits
        )
        footprint = StorageFootprint(
            element_count=elements,
            dense_bits=dense_bits,
            sparse_bits=sparse_bits,
            metadata_bits=metadata_bits,
            breakdown={
                "dense_codes": dense_bits,
                "sparse_records": sparse_bits,
                "scales": metadata_bits,
            },
        )
        self._cached_footprint = footprint
        return footprint

    def footprint_bits(self) -> Tuple[int, int]:
        """``(total_bits, element_count)`` as exact integers.

        Every term of :meth:`footprint` is an integer bit count, so
        the caches can keep running totals of these pairs that equal
        a recomputed sum exactly, in any order.
        """
        footprint = self.footprint()
        return int(footprint.total_bits), footprint.element_count

    def effective_bitwidth(self) -> float:
        """Bits per original element including scale metadata."""
        return self.footprint().effective_bitwidth

    def nbytes(self) -> float:
        """Total storage in bytes."""
        return self.footprint().total_bytes


def concat_encoded(chunks: Sequence[EncodedKV]) -> EncodedKV:
    """Stack encoded [T_i, D] tensors into one [sum T_i, D] layout.

    Every decode operation is row-local (per-token scales, per-record
    sparse reconstruction), so dequantizing the concatenated tensor is
    bit-identical to dequantizing each chunk separately — this is what
    lets the serving pool decode the pending chunks of many sequences
    in one fused pass.  :func:`split_encoded` is the inverse, used on
    the encode side of the same batching trick.

    All chunks must share the same quantizer configuration and
    thresholds (the pool guarantees this by sharing per-layer
    quantizers across sequences).

    Args:
        chunks: non-empty sequence of same-width encoded tensors.

    Returns:
        One :class:`EncodedKV` whose rows are the chunks' rows in
        order.
    """
    if not chunks:
        raise ValueError("cannot concatenate zero chunks")
    first = chunks[0]
    if len(chunks) == 1:
        return first
    offsets: List[int] = []
    total = 0
    for chunk in chunks:
        if chunk.config is not first.config and chunk.config != first.config:
            raise ValueError("chunks were encoded with different configs")
        if chunk.thresholds is not first.thresholds:
            raise ValueError(
                "chunks were encoded with different thresholds; batched "
                "decode requires sequences to share fitted quantizers"
            )
        if chunk.dim != first.dim:
            raise ValueError(
                f"width mismatch: {chunk.dim} vs {first.dim}"
            )
        offsets.append(total)
        total += chunk.num_tokens
    sparse_token = np.concatenate(
        [c.sparse_token + off for c, off in zip(chunks, offsets)]
    )
    sparse_fp16 = None
    if first.sparse_fp16 is not None:
        sparse_fp16 = np.concatenate([c.sparse_fp16 for c in chunks])
    return EncodedKV(
        config=first.config,
        thresholds=first.thresholds,
        shape=(total, first.dim),
        dense_codes=np.concatenate([c.dense_codes for c in chunks]),
        middle_lo=np.concatenate([c.middle_lo for c in chunks]),
        middle_hi=np.concatenate([c.middle_hi for c in chunks]),
        band_lo=np.concatenate([c.band_lo for c in chunks]),
        band_hi=np.concatenate([c.band_hi for c in chunks]),
        sparse_token=sparse_token,
        sparse_pos=np.concatenate([c.sparse_pos for c in chunks]),
        sparse_band=np.concatenate([c.sparse_band for c in chunks]),
        sparse_side=np.concatenate([c.sparse_side for c in chunks]),
        sparse_mag_code=np.concatenate(
            [c.sparse_mag_code for c in chunks]
        ),
        sparse_fp16=sparse_fp16,
    )


def encoded_rows_view(
    config: OakenConfig,
    thresholds: GroupThresholds,
    dense_codes: np.ndarray,
    middle_lo: np.ndarray,
    middle_hi: np.ndarray,
    band_lo: np.ndarray,
    band_hi: np.ndarray,
    record_counts: np.ndarray,
    sparse_pos: np.ndarray,
    sparse_band: np.ndarray,
    sparse_side: np.ndarray,
    sparse_mag_code: np.ndarray,
    sparse_fp16: Optional[np.ndarray] = None,
) -> EncodedKV:
    """Assemble an :class:`EncodedKV` view over gathered storage rows.

    The structure-of-arrays arena keeps the fields of many chunks in
    flat buffers and has no chunk objects on its hot path; when a
    consumer needs chunk identity — a fused decode, tiering/sharing
    diagnostics — it gathers the relevant rows and materializes a chunk
    view here, lazily.  The arrays are adopted as-is (row-parallel
    fields may alias arena buffers; decode never mutates its input), and
    ``sparse_token`` is rebuilt from per-row record counts, preserving
    the token-major COO stream order :func:`split_encoded` relies on.

    Args:
        record_counts: [T] outlier records per gathered row, in row
            order; the sparse arrays hold exactly these records,
            concatenated row by row.
    """
    num_rows = int(dense_codes.shape[0])
    sparse_token = np.repeat(
        np.arange(num_rows, dtype=np.int64), record_counts
    )
    return EncodedKV(
        config=config,
        thresholds=thresholds,
        shape=(num_rows, int(dense_codes.shape[1])),
        dense_codes=dense_codes,
        middle_lo=middle_lo,
        middle_hi=middle_hi,
        band_lo=band_lo,
        band_hi=band_hi,
        sparse_token=sparse_token,
        sparse_pos=sparse_pos,
        sparse_band=sparse_band,
        sparse_side=sparse_side,
        sparse_mag_code=sparse_mag_code,
        sparse_fp16=sparse_fp16,
    )


def _row_range(
    encoded: EncodedKV,
    thresholds: GroupThresholds,
    rows: slice,
    records: slice,
    own: Callable[[np.ndarray], np.ndarray],
) -> EncodedKV:
    """Rows ``rows`` of ``encoded`` with their COO records ``records``.

    ``own`` decides aliasing: ``np.ndarray.copy`` for a piece owning
    its arrays, :func:`_view` for one sliced out of ``encoded``.
    """
    sparse_fp16 = encoded.sparse_fp16
    return EncodedKV(
        config=encoded.config,
        thresholds=thresholds,
        shape=(rows.stop - rows.start, encoded.dim),
        dense_codes=own(encoded.dense_codes[rows]),
        middle_lo=own(encoded.middle_lo[rows]),
        middle_hi=own(encoded.middle_hi[rows]),
        band_lo=own(encoded.band_lo[rows]),
        band_hi=own(encoded.band_hi[rows]),
        sparse_token=encoded.sparse_token[records] - rows.start,
        sparse_pos=own(encoded.sparse_pos[records]),
        sparse_band=own(encoded.sparse_band[records]),
        sparse_side=own(encoded.sparse_side[records]),
        sparse_mag_code=own(encoded.sparse_mag_code[records]),
        sparse_fp16=None if sparse_fp16 is None else own(sparse_fp16[records]),
    )


def _view(array: np.ndarray) -> np.ndarray:
    return array


def row_block_views(encoded: EncodedKV) -> List[EncodedKV]:
    """The equal row blocks of a row-stacked encode, as views.

    A row-stacked quantizer (one built over a sequence of thresholds)
    encodes G equal row blocks in one kernel call and labels the result
    with all G thresholds.  Encode is row-local, so block ``g`` of that
    result *is* the encode of block ``g`` under ``thresholds[g]``; this
    hands the blocks back as per-tensor :class:`EncodedKV` s, each
    carrying its own thresholds.  Row-parallel and record arrays are
    slices of ``encoded``'s (nothing is copied; only the token indices
    are re-based), so the pieces alias one another's storage and are
    meant to share a lifetime — a layer's key and value chunk do.
    """
    thresholds = encoded.thresholds
    rows = encoded.num_tokens // len(thresholds)
    bounds = [g * rows for g in range(len(thresholds) + 1)]
    # The COO stream is token-major, hence sorted by token; each
    # block's records form one contiguous slice.
    starts = np.searchsorted(encoded.sparse_token, bounds).tolist()
    return [
        _row_range(
            encoded,
            thresholds[g],
            slice(bounds[g], bounds[g + 1]),
            slice(starts[g], starts[g + 1]),
            _view,
        )
        for g in range(len(thresholds))
    ]


def split_encoded(
    encoded: EncodedKV, row_counts: Sequence[int]
) -> List[EncodedKV]:
    """Split one encoded [T, D] tensor into per-segment chunks.

    The inverse of :func:`concat_encoded`: because the encode is
    row-local (per-token scales, per-token COO records in token order),
    quantizing the concatenation of several row blocks and splitting
    the result is bit-identical to quantizing each block separately.
    This is what lets the serving pool encode the freshly appended rows
    of many sequences in one fused pass and scatter the chunks back to
    their per-sequence caches.

    A row-stacked encode (see :func:`row_block_views`) splits the same
    way, each chunk carrying the thresholds of the row block it lies
    in; no chunk may straddle two blocks.

    Args:
        encoded: the tensor to split.
        row_counts: tokens per output chunk, in row order; must sum to
            ``encoded.num_tokens``.  Zero counts yield empty chunks.

    Returns:
        One :class:`EncodedKV` per entry of ``row_counts``, each owning
        its arrays (no aliasing of ``encoded``).
    """
    counts = [int(c) for c in row_counts]
    if any(c < 0 for c in counts):
        raise ValueError("row counts must be non-negative")
    if sum(counts) != encoded.num_tokens:
        raise ValueError(
            f"row counts sum to {sum(counts)}, tensor has "
            f"{encoded.num_tokens} tokens"
        )
    bounds = np.cumsum([0] + counts)
    # The COO stream is token-major, hence sorted by token; each
    # segment's records form one contiguous slice.
    starts = np.searchsorted(
        encoded.sparse_token, bounds, side="left"
    ).tolist()
    bounds = bounds.tolist()
    thresholds = encoded.thresholds
    stacked = not isinstance(thresholds, GroupThresholds)
    block_rows = encoded.num_tokens // len(thresholds) if stacked else 0
    pieces: List[EncodedKV] = []
    for i in range(len(counts)):
        rows = slice(bounds[i], bounds[i + 1])
        own_thresholds = thresholds
        if stacked:
            # (a trailing empty chunk starts where the last block ends)
            block = min(rows.start // max(block_rows, 1), len(thresholds) - 1)
            if rows.stop > (block + 1) * block_rows:
                raise ValueError(
                    f"rows {rows.start}..{rows.stop} straddle two row "
                    "blocks of a row-stacked encode"
                )
            own_thresholds = thresholds[block]
        pieces.append(
            _row_range(
                encoded,
                own_thresholds,
                rows,
                slice(starts[i], starts[i + 1]),
                np.ndarray.copy,
            )
        )
    return pieces
