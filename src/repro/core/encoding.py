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
from typing import List, Optional, Sequence, Tuple, Union

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


def bit_terms(
    config: OakenConfig, tokens: int, dim: int, records: int
) -> Tuple[int, int, int]:
    """``(dense, sparse, metadata)`` bits of ``tokens`` encoded rows of
    width ``dim`` holding ``records`` outliers, exact integers — the
    one spelling of the Table 2/3 accounting.

    Dense bits cover every element at ``inlier_bits``; sparse bits
    cover one aligned record per outlier; metadata bits cover the
    per-token per-group FP16 scale bounds (2 scalars for the middle
    group plus 2 per sparse band).  Every term is linear in the counts,
    so the bits of several tensors of one config and width are the
    bits of their summed counts.
    """
    return (
        tokens * dim * config.inlier_bits,
        records * sparse_record_bits(config),
        tokens * config.token_metadata_bits,
    )


@dataclass
class EncodedKV:
    """A quantized [T, D] KV tensor in Oaken's storage layout.

    Token-major: row ``t`` is the KV vector of token ``t`` (the paper
    quantizes per token, over the newly generated key/value vector).

    Attributes:
        config: the quantizer configuration that produced this tensor.
        thresholds: the offline thresholds used for grouping/shifting
            (a tuple of them, one per equal row block, straight out of
            a row-stacked quantizer — see :func:`split_encoded`).
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
        sparse_side: per-outlier side flag (True = positive side of the
            band).  Physically this is carried by the record's code bit
            (the "sign" bit of a 5-bit outlier) or the fused nibble;
            kept explicit here for clarity.
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
    #: ``(source, spans, index)`` when this tensor is piece ``index`` of
    #: ``split_encoded(source, counts)``, ``spans`` that split's row
    #: and record bounds (one object per split): its arrays are views
    #: of ``source``'s, and :func:`concat_encoded` hands ``source``
    #: back for all of that split's pieces in order.  Where the piece
    #: came from, not what it encodes: equality ignores it.
    _view_of: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
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

    def _bit_terms(self) -> Tuple[int, int, int]:
        """``(dense, sparse, metadata)`` bits (see :func:`bit_terms`)."""
        return bit_terms(self.config, *self.shape, self.num_outliers)

    def footprint(self) -> StorageFootprint:
        """Bit-exact storage accounting (the Table 2/3 metric)."""
        if self._cached_footprint is None:
            dense, sparse, metadata = map(float, self._bit_terms())
            self._cached_footprint = StorageFootprint(
                element_count=self.num_tokens * self.dim,
                dense_bits=dense,
                sparse_bits=sparse,
                metadata_bits=metadata,
                breakdown={
                    "dense_codes": dense,
                    "sparse_records": sparse,
                    "scales": metadata,
                },
            )
        return self._cached_footprint

    def footprint_bits(self) -> Tuple[int, int]:
        """``(total_bits, element_count)`` as exact integers.

        Every term of the accounting is an integer bit count, so the
        caches can keep running totals of these pairs that equal a
        recomputed sum exactly, in any order.
        """
        return sum(self._bit_terms()), self.num_tokens * self.dim

    def effective_bitwidth(self) -> float:
        """Bits per original element including scale metadata."""
        return self.footprint().effective_bitwidth

    def nbytes(self) -> float:
        """Total storage in bytes."""
        return self.footprint().total_bytes


def concat_encoded(*blocks: Sequence[EncodedKV]) -> EncodedKV:
    """Stack encoded [T_i, D] tensors into one [sum T_i, D] layout.

    Every decode operation is row-local (per-token scales, per-record
    sparse reconstruction), so dequantizing the concatenated tensor is
    bit-identical to dequantizing each chunk separately — this is what
    lets the chunk store decode the pending chunks of many sequences in
    one fused pass.  The inverse of :func:`split_encoded`, both ways:

    * ``concat_encoded(chunks)`` joins the chunks of one tensor; they
      must share config and thresholds (by identity — sequences share
      fitted quantizers);
    * ``concat_encoded(key_chunks, value_chunks)`` joins equal row
      blocks into a *row-stacked* encode, labelled with one thresholds
      object per block and each block's chunks validated against that
      block's thresholds — what a row-stacked quantizer (one built over
      a sequence of thresholds) decodes in one call.

    When the chunks are every piece of one ``split_encoded(source,
    counts)``, in split order and grouped into the source's row blocks,
    their concatenation is ``source`` row for row, so ``source`` itself
    is returned and nothing is built: what a steady decode step of the
    chunk store reads back.

    Args:
        blocks: non-empty sequences of same-width encoded tensors, each
            holding the same number of rows in total.

    Returns:
        One :class:`EncodedKV` whose rows are the blocks' chunks' rows
        in order.
    """
    if not blocks or not all(blocks):
        raise ValueError("cannot concatenate zero chunks")
    first = blocks[0][0]
    chunks = [chunk for block in blocks for chunk in block]
    if len(chunks) == 1:
        return first
    source = _split_source(blocks, chunks)
    if source is not None:
        return source
    offsets: List[int] = []
    block_rows = set()
    total = 0
    for block in blocks:
        block_start = total
        for chunk in block:
            if chunk.config is not first.config and chunk.config != first.config:
                raise ValueError("chunks were encoded with different configs")
            if chunk.thresholds is not block[0].thresholds:
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
        block_rows.add(total - block_start)
    if len(block_rows) > 1:
        raise ValueError(
            f"row blocks of a row-stacked encode must be equal, got "
            f"{sorted(block_rows)} rows"
        )
    sparse_token = np.concatenate(
        [c.sparse_token + off for c, off in zip(chunks, offsets)]
    )
    sparse_fp16 = None
    if first.sparse_fp16 is not None:
        sparse_fp16 = np.concatenate([c.sparse_fp16 for c in chunks])
    thresholds = tuple(block[0].thresholds for block in blocks)
    return EncodedKV(
        config=first.config,
        thresholds=thresholds if len(blocks) > 1 else thresholds[0],
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


def _split_source(
    blocks: Sequence[Sequence[EncodedKV]], chunks: List[EncodedKV]
) -> Optional[EncodedKV]:
    """The encode ``chunks`` are the view pieces of, all of them in
    split order with ``blocks`` its row blocks; else ``None``."""
    tag = chunks[0]._view_of
    if tag is None:
        return None
    source, spans, _ = tag
    per_block = (len(spans[0]) - 1) // len(blocks)
    if len(blocks) != len(_row_blocks(source)) or any(
        len(block) != per_block for block in blocks
    ):
        return None
    for index, chunk in enumerate(chunks):
        view = chunk._view_of
        if view is None or view[1] is not spans or view[2] != index:
            return None
    return source


def _row_blocks(encoded: EncodedKV) -> Tuple[GroupThresholds, ...]:
    """The thresholds of each row block of ``encoded``."""
    thresholds = encoded.thresholds
    if isinstance(thresholds, GroupThresholds):
        return (thresholds,)
    return thresholds


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


def split_encoded(
    encoded: EncodedKV, row_counts: Sequence[int]
) -> List[EncodedKV]:
    """Split one encoded [T, D] tensor into per-segment chunks.

    The inverse of :func:`concat_encoded`: because the encode is
    row-local (per-token scales, per-token COO records in token order),
    quantizing the concatenation of several row blocks and splitting
    the result is bit-identical to quantizing each block separately.
    This is what lets the chunk store encode the freshly appended rows
    of many sequences in one fused pass and scatter the chunks back to
    their per-sequence caches.

    Each chunk's arrays are row- or record-range views of
    ``encoded``'s (its token indices a range of one rebased array the
    split allocates), and each chunk is tagged with its source and
    position, so :func:`concat_encoded` of every chunk in order returns
    ``encoded`` itself.  The chunks keep all of ``encoded`` alive until
    the last of them goes, and a write through one is a write to
    ``encoded``: encodes and chunks are immutable once built.

    A row-stacked encode (G equal row blocks out of a row-stacked
    quantizer, labelled with G thresholds) splits every block the same
    way: ``row_counts`` partitions *one* block, and the chunks come
    back block-major — all of block 0's, then block 1's — each carrying
    the thresholds of the block it lies in.

    Args:
        encoded: the tensor to split.
        row_counts: tokens per output chunk, in row order; must sum to
            the rows of one block (``encoded.num_tokens`` unless
            row-stacked).  Zero counts yield empty chunks.

    Returns:
        One :class:`EncodedKV` per block per entry of ``row_counts``.
    """
    counts = [int(c) for c in row_counts]
    if any(c < 0 for c in counts):
        raise ValueError("row counts must be non-negative")
    thresholds = _row_blocks(encoded)
    if sum(counts) * len(thresholds) != encoded.num_tokens:
        raise ValueError(
            f"row counts sum to {sum(counts)}, tensor has "
            f"{encoded.num_tokens} tokens in {len(thresholds)} row block(s)"
        )
    bounds = np.cumsum([0] + counts * len(thresholds))
    # The COO stream is token-major, hence sorted by token; each
    # segment's records form one contiguous slice.
    starts = np.searchsorted(encoded.sparse_token, bounds, side="left")
    # Every record's token counted from its own segment's first row:
    # one array for the split, each piece viewing its range.
    sparse_token = encoded.sparse_token - np.repeat(
        bounds[:-1], np.diff(starts)
    )
    bounds = bounds.tolist()
    starts = starts.tolist()
    # What a piece keeps of its split, shared by all of them.
    spans = (bounds, starts)
    sparse_fp16 = encoded.sparse_fp16
    pieces: List[EncodedKV] = []
    for i in range(len(bounds) - 1):
        rows = slice(bounds[i], bounds[i + 1])
        records = slice(starts[i], starts[i + 1])
        piece = EncodedKV(
            config=encoded.config,
            thresholds=thresholds[i // len(counts)],
            shape=(rows.stop - rows.start, encoded.dim),
            dense_codes=encoded.dense_codes[rows],
            middle_lo=encoded.middle_lo[rows],
            middle_hi=encoded.middle_hi[rows],
            band_lo=encoded.band_lo[rows],
            band_hi=encoded.band_hi[rows],
            sparse_token=sparse_token[records],
            sparse_pos=encoded.sparse_pos[records],
            sparse_band=encoded.sparse_band[records],
            sparse_side=encoded.sparse_side[records],
            sparse_mag_code=encoded.sparse_mag_code[records],
            sparse_fp16=None if sparse_fp16 is None else sparse_fp16[records],
        )
        piece._view_of = (encoded, spans, i)
        pieces.append(piece)
    return pieces
