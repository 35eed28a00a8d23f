"""Paged quantized KV cache built on the Oaken quantizer.

This is the software twin of what the accelerator's MMU manages: per
layer, keys and values are appended token by token (or in prefill-sized
chunks), stored in Oaken's encoded layout, and read back (dequantized)
for attention.  The serving simulator uses the byte accounting; the
model substrate uses the reconstruction path.

The cache is append-only within a sequence, mirroring autoregressive
generation: ``append`` quantizes only newly generated vectors ("Oaken
performs per-token quantization ... focusing only on the key-value
vector newly generated in each attention layer").

The store has one write path and one read path, both over a *list* of
layer caches sharing a layer's quantizers, both on a one-layer
:class:`~repro.core.quantizer.LayerEncoder` (the arena's spans every
layer), so each is one kernel call over keys stacked on values:

* :func:`append_batch` encodes every cache's new rows in one fused pass
  (``encode``) and lists each cache's chunk pair as views of that
  encode (:func:`~repro.core.encoding.split_encoded`);
* :func:`decode_pending` gathers every cache's not-yet-memoized chunks
  as ``[all key chunks; all value chunks]``, decodes them in one pass
  (``decode``) and scatters the rows into each cache's decode
  memo.  Chunks are append-only and immutable, so each is decoded
  exactly once: a read costs O(new tokens), not O(T).  When the chunks
  are exactly one append's, in its order — a steady decode step reading
  back the sequences it stored — :func:`~repro.core.encoding.concat_encoded`
  hands back that append's encode itself, so the step decodes the
  object it encoded: no per-chunk copy, no re-concatenation.

The views cost memory, not time: a step's encode stays alive until the
last of its chunks is dropped, so a cache freed before the others of
its step keeps that step's rows resident through them, and a write
through a chunk's arrays writes the encode.  A fork's boundary split
(:meth:`LayerKVCache.split_chunk_boundary`) views the chunk it
replaces the same way, so no path copies an encoded array.

:meth:`LayerKVCache.append` / :meth:`LayerKVCache.read` are those two
functions with a batch of one; the multi-sequence serving pool
(:class:`repro.engine.KVCachePool`) calls them with many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import (
    EncodedKV,
    bit_terms,
    concat_encoded,
    split_encoded,
)
from repro.core.quantizer import LayerEncoder, OakenQuantizer


class _DecodedPrefix:
    """A growing ``[2, cap, D]`` float32 buffer (axis 0 is K|V)
    memoizing the decoded rows of immutable chunks."""

    def __init__(self) -> None:
        self.buffer: Optional[np.ndarray] = None
        self.rows = 0
        self.chunks_decoded = 0

    def reserve(self, rows: int, dim: int) -> np.ndarray:
        """The ``[2, rows, D]`` window past the memoized prefix, grown
        into if need be; :func:`decode_pending` fills and commits it."""
        need = self.rows + rows
        if self.buffer is None or need > self.buffer.shape[1]:
            held = 0 if self.buffer is None else 2 * self.buffer.shape[1]
            grown = np.empty((2, max(64, need, held), dim), dtype=np.float32)
            if self.buffer is not None:
                grown[:, : self.rows] = self.buffer[:, : self.rows]
            self.buffer = grown
        return self.buffer[:, self.rows : need]

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(keys, values)`` views of the memoized prefix."""
        view = self.buffer[:, : self.rows]
        view.flags.writeable = False
        return view[0], view[1]


@dataclass
class LayerKVCache:
    """Quantized keys and values of one decoder layer for one sequence.

    Attributes:
        key_quantizer: Oaken quantizer fitted for this layer's keys.
        value_quantizer: Oaken quantizer fitted for this layer's values.
    """

    key_quantizer: OakenQuantizer
    value_quantizer: OakenQuantizer
    _key_chunks: List[EncodedKV] = field(default_factory=list)
    _value_chunks: List[EncodedKV] = field(default_factory=list)
    _length: int = 0
    # Running encoded footprint of the chunk lists, as exact integers
    # (see :meth:`footprint_bits`).
    _bits: int = 0
    _elements: int = 0
    #: The one decode memo: rows of the first ``chunks_decoded`` chunk
    #: pairs, keys and values side by side.
    _decoded: _DecodedPrefix = field(
        default_factory=_DecodedPrefix, repr=False, compare=False
    )
    #: The layer's kernel calls, each way: one row-stacked call for
    #: keys and values (a pair that cannot stack is refused here).
    #: Built when not given; a pool's caches of one layer are handed
    #: one encoder (``FusedCacheBackend.twin``), so they share its
    #: stacked quantizer and its scratch of shape plans.
    encoder: Optional[LayerEncoder] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.encoder is None:
            self.encoder = LayerEncoder(
                [self.key_quantizer], [self.value_quantizer]
            )
        elif self.encoder.key_quantizers != (self.key_quantizer,) or (
            self.encoder.value_quantizers != (self.value_quantizer,)
        ):
            raise ValueError(
                "a layer cache's encoder must be over its own key and "
                "value quantizers"
            )

    @property
    def length(self) -> int:
        """Number of cached token positions."""
        return self._length

    def _charge(self, chunks: Iterable[EncodedKV]) -> None:
        """Add newly listed chunks to the running footprint."""
        for chunk in chunks:
            bits, elements = chunk.footprint_bits()
            self._bits += bits
            self._elements += elements

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Quantize and append newly generated KV rows
        (:func:`append_batch` with a batch of one).

        Args:
            keys: [t, D] new key vectors; ``t == 0`` stores nothing.
            values: [t, D] new value vectors, same shape as ``keys``.

        Raises:
            ValueError: the shapes differ, or the rows' width is not
                the width of the rows the layer holds (refused before
                the encode: every later read would fail).
        """
        keys = np.atleast_2d(keys)
        values = np.atleast_2d(values)
        if keys.shape != values.shape:
            raise ValueError(
                f"key/value shape mismatch: {keys.shape} vs {values.shape}"
            )
        if keys.shape[0]:
            if self._key_chunks and keys.shape[1] != self._key_chunks[0].dim:
                raise ValueError(
                    f"rows of width {keys.shape[1]}, but the layer holds "
                    f"rows of width {self._key_chunks[0].dim}"
                )
            append_batch([self], [keys], [values])

    def _list_pair(
        self, key_chunk: EncodedKV, value_chunk: EncodedKV, bits: int
    ) -> None:
        """List a chunk pair of equal rows whose footprint is ``bits``."""
        self._key_chunks.append(key_chunk)
        self._value_chunks.append(value_chunk)
        tokens, dim = key_chunk.shape
        self._length += tokens
        self._bits += bits
        self._elements += 2 * tokens * dim

    def read(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantize the full cached (keys, values) history
        (:func:`decode_pending` with a batch of one).

        Returns:
            ``(keys, values)`` float32 arrays of shape [length, D]:
            read-only views of the decode memo; copy before mutating.
        """
        if not self._key_chunks:
            raise RuntimeError("cache is empty")
        decode_pending([self])
        return self._decoded.view()

    def split_chunk_boundary(
        self, prefix_len: int
    ) -> Tuple[int, List[Tuple[EncodedKV, EncodedKV]]]:
        """Ensure a chunk boundary at row ``prefix_len``; in place.

        The prefix-sharing pool forks a sequence by aliasing the chunk
        objects covering its first ``prefix_len`` rows.  When the
        boundary falls inside a chunk, that chunk is split with
        :func:`~repro.core.encoding.split_encoded` and the two pieces,
        views of the chunk they replace (nothing is copied), replace it
        in this cache's lists — a bit-exact rewrite (both encode and
        decode are row-local) that leaves every read unchanged,
        including the decode memo, whose chunk counter is re-based when
        an already-memoized chunk splits.

        Returns:
            ``(count, replaced)`` — the number of chunks now covering
            exactly ``prefix_len`` rows, and the ``(key, value)`` chunk
            pairs this call replaced (at most one pair; the pool uses
            it to retire stale refcount entries).
        """
        if prefix_len < 0 or prefix_len > self._length:
            raise ValueError(
                f"prefix_len {prefix_len} outside cached length "
                f"{self._length}"
            )
        replaced: List[Tuple[EncodedKV, EncodedKV]] = []
        rows = 0
        index = 0
        while rows < prefix_len:
            key_chunk = self._key_chunks[index]
            if rows + key_chunk.num_tokens <= prefix_len:
                rows += key_chunk.num_tokens
                index += 1
                continue
            split_at = prefix_len - rows
            value_chunk = self._value_chunks[index]
            counts = [split_at, key_chunk.num_tokens - split_at]
            for chunks, whole in (
                (self._key_chunks, key_chunk),
                (self._value_chunks, value_chunk),
            ):
                pieces = split_encoded(whole, counts)
                # Row-local accounting: the pieces store exactly the
                # whole's bits, so the running footprint stands.
                assert (
                    sum(p.footprint_bits()[0] for p in pieces)
                    == whole.footprint_bits()[0]
                ), "chunk split changed the encoded footprint"
                chunks[index : index + 1] = pieces
            # A memoized chunk that splits is now *two* memoized
            # chunks; re-base the decode counter so decode_pending
            # keeps starting past the memoized prefix.
            if self._decoded.chunks_decoded > index:
                self._decoded.chunks_decoded += 1
            replaced.append((key_chunk, value_chunk))
            rows = prefix_len
            index += 1
        return index, replaced

    def adopt_prefix(
        self,
        key_chunks: List[EncodedKV],
        value_chunks: List[EncodedKV],
        length: int,
    ) -> None:
        """Install an aliased committed prefix into this empty cache.

        The chunks are shared *objects* (not copies) from the parent's
        lists; because chunks are immutable and appends only extend the
        lists, parent and child diverge naturally from the first
        post-fork append — copy-on-write with no copy.
        """
        if self._length or self._key_chunks:
            raise RuntimeError(
                "adopt_prefix requires an empty cache"
            )
        self._key_chunks = list(key_chunks)
        self._value_chunks = list(value_chunks)
        self._length = length
        self._charge(self._key_chunks)
        self._charge(self._value_chunks)

    def footprint_bits(self) -> Tuple[int, int]:
        """``(total_bits, element_count)`` of the cached chunks; O(1).

        Running totals maintained by :meth:`append` and
        :meth:`adopt_prefix` (a boundary split is footprint-neutral).
        Every chunk's bit count is an integer, so the totals equal a
        recomputed sum over the chunk lists exactly, whatever the order
        of operations — :meth:`check_invariants` is that recomputation.
        """
        return self._bits, self._elements

    def nbytes(self) -> float:
        """Total encoded storage of this layer's cache in bytes."""
        return self._bits / 8.0

    def effective_bitwidth(self) -> float:
        """Observed bits/element across all cached chunks."""
        if self._elements == 0:
            return 0.0
        return self._bits / self._elements

    def check_invariants(self) -> None:
        """Assert the running footprint equals a walk of the chunks."""
        bits = 0
        elements = 0
        rows = 0
        for chunk in self._key_chunks + self._value_chunks:
            chunk_bits, chunk_elements = chunk.footprint_bits()
            bits += chunk_bits
            elements += chunk_elements
            rows += chunk.num_tokens
        assert (self._bits, self._elements) == (bits, elements), (
            f"footprint accumulator ({self._bits}, {self._elements}) != "
            f"recomputed ({bits}, {elements})"
        )
        assert rows == 2 * self._length, (
            f"chunk rows {rows} != 2 x cached length {self._length}"
        )


def append_batch(
    layers: Sequence[LayerKVCache],
    key_blocks: Sequence[np.ndarray],
    value_blocks: Sequence[np.ndarray],
) -> int:
    """The chunk store's write path: one fused encode, one scatter.

    ``layers[i]`` receives the same-shape 2-D [t_i, D] blocks
    ``key_blocks[i]`` / ``value_blocks[i]`` (callers check) as one
    chunk pair; a cache listed twice keeps its items in order.  The
    caches must share their layer's fitted quantizers, hence any one of
    their encoders serves the batch.  Encode is row-local, so the
    scattered chunks are bit-for-bit what per-cache appends would have
    stored.  Each chunk's arrays are views of the one encode (fresh from
    the kernel, never scratch), which they keep alive until the last of
    them is dropped; chunks are immutable, so a fork may alias one for
    as long as it likes.  Each pair is charged from its rows and records
    (:func:`~repro.core.encoding.bit_terms`), the bits its chunks'
    ``footprint_bits`` sum to.  A block whose width differs from the
    others' is refused in the encode, before any cache is touched;
    blocks of one width unlike the rows a cache holds are the caller's
    to refuse (the pool's ``append_batch`` does).

    Returns the number of kernel calls made (1).
    """
    rows = [block.shape[0] for block in key_blocks]
    encoded = layers[0].encoder.encode((0,), [*key_blocks, *value_blocks])
    # Block-major: all key chunks, then all value chunks.
    chunks = split_encoded(encoded, rows)
    config, dim = encoded.config, encoded.dim
    for layer, key_chunk, value_chunk in zip(
        layers, chunks[: len(rows)], chunks[len(rows) :]
    ):
        # A pair's bits from its rows and records, charged as one
        # tensor of both (the accounting is linear in the counts).
        records = key_chunk.num_outliers + value_chunk.num_outliers
        layer._list_pair(
            key_chunk,
            value_chunk,
            sum(bit_terms(config, 2 * key_chunk.shape[0], dim, records)),
        )
    return 1


def decode_pending(layers: Sequence[LayerKVCache]) -> int:
    """The chunk store's read path: decode every listed cache's
    not-yet-memoized chunks in one pass.

    Gathers them as ``[all key chunks; all value chunks]``, decodes
    them with one ``dequantize`` of the row-stacked encode
    (:meth:`~repro.core.quantizer.LayerEncoder.decode`) and scatters the
    rows into each cache's decode memo.  The caches must share their
    layer's fitted quantizers
    (:func:`~repro.core.encoding.concat_encoded` checks every chunk's
    thresholds by identity); a cache may be listed more than once.
    Decode is row-local, so the memos end up bit-identical to
    per-cache, per-chunk decodes.

    Returns the number of kernel calls made — 0 when nothing was
    pending.
    """
    pending = list(
        {
            id(layer): layer
            for layer in layers
            if layer._decoded.chunks_decoded < len(layer._key_chunks)
        }.values()
    )
    if not pending:
        return 0
    blocks: Tuple[List[EncodedKV], List[EncodedKV]] = ([], [])
    for layer in pending:
        start = layer._decoded.chunks_decoded
        blocks[0].extend(layer._key_chunks[start:])
        blocks[1].extend(layer._value_chunks[start:])
    decoded = pending[0].encoder.decode(
        (0,), lambda quantizer: concat_encoded(*blocks)
    )
    dim = blocks[0][0].dim
    total = sum(layer._length - layer._decoded.rows for layer in pending)
    decoded = decoded.reshape(2, total, dim)
    offset = 0
    for layer in pending:
        memo = layer._decoded
        rows = layer._length - memo.rows
        memo.reserve(rows, dim)[:] = decoded[:, offset : offset + rows]
        memo.rows = layer._length
        memo.chunks_decoded = len(layer._key_chunks)
        offset += rows
    return 1


def check_layer(layer: int, num_layers: int, holder: str = "cache") -> None:
    """Refuse a layer index outside ``0 .. num_layers - 1``, before a
    negative one could count from the end."""
    if not 0 <= layer < num_layers:
        raise ValueError(
            f"layer {layer} outside the {holder}'s {num_layers} layers"
        )


class QuantizedKVCache:
    """Whole-model quantized KV cache: one :class:`LayerKVCache` per layer.

    Args:
        key_quantizers: per-layer key quantizers (index = layer).
        value_quantizers: per-layer value quantizers.
        encoders: per-layer :class:`LayerEncoder` over those quantizers,
            to share with other caches of the same quantizers; built
            per layer when omitted.
    """

    #: The pool store holding this cache as one of its sequences (the
    #: store's ``allocate`` sets it), else None.  A stored cache's
    #: appends keep the store's one row width.
    store = None

    def __init__(
        self,
        key_quantizers: List[OakenQuantizer],
        value_quantizers: List[OakenQuantizer],
        *,
        encoders: Optional[Sequence[LayerEncoder]] = None,
    ):
        if len(key_quantizers) != len(value_quantizers):
            raise ValueError("need one key and one value quantizer per layer")
        if encoders is None:
            encoders = [None] * len(key_quantizers)
        elif len(encoders) != len(key_quantizers):
            raise ValueError("need one encoder per layer")
        self.layers: List[LayerKVCache] = [
            LayerKVCache(key_quantizer=kq, value_quantizer=vq, encoder=enc)
            for kq, vq, enc in zip(key_quantizers, value_quantizers, encoders)
        ]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def length(self) -> int:
        """Cached sequence length (identical across layers)."""
        if not self.layers:
            return 0
        return self.layers[0].length

    def _layer(self, layer: int) -> LayerKVCache:
        check_layer(layer, len(self.layers))
        return self.layers[layer]

    def append(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Append new KV rows to ``layer``'s cache.

        Raises:
            ValueError: ``layer`` is outside the cache's layers, or the
                cache is a store's sequence and the rows' width is not
                the store's (refused before the encode).
        """
        store = self.store
        if store is None:
            self._layer(layer).append(keys, values)
            return
        keys = np.atleast_2d(keys)
        width = store.check_width(keys)
        self._layer(layer).append(keys, values)
        store.width = width

    def read(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantized (keys, values) history of ``layer``.

        Raises:
            ValueError: ``layer`` is outside the cache's layers.
        """
        return self._layer(layer).read()

    def footprint_bits(self) -> Tuple[int, int]:
        """``(total_bits, element_count)`` across all layers — one
        running-total read per layer (see
        :meth:`LayerKVCache.footprint_bits`), no chunk walk."""
        bits = 0
        elements = 0
        for layer in self.layers:
            bits += layer._bits
            elements += layer._elements
        return bits, elements

    def nbytes(self) -> float:
        """Total encoded bytes across all layers."""
        return self.footprint_bits()[0] / 8.0

    def effective_bitwidth(self) -> float:
        """Storage-weighted bits/element across all layers."""
        bits, elements = self.footprint_bits()
        if elements == 0:
            return 0.0
        return bits / elements

    def summary(self) -> Dict[str, float]:
        """Small reporting dict used by examples and benchmarks."""
        return {
            "layers": float(self.num_layers),
            "tokens": float(self.length),
            "bytes": self.nbytes(),
            "effective_bitwidth": self.effective_bitwidth(),
        }
