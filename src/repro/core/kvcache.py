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

Because chunks are append-only and immutable, their decoded form is
memoized: :meth:`LayerKVCache.read` dequantizes each chunk exactly once
into a growing float32 buffer and thereafter serves O(1) views of the
decoded prefix.  This turns the per-step cost of autoregressive
generation from O(T) re-decodes (O(T^2) per sequence, the seed
behaviour) into O(new tokens).  Construct with ``incremental=False`` to
restore the seed's re-decode-everything behaviour — the perf-regression
harness (:mod:`repro.bench`) uses that mode as its baseline.

The multi-sequence serving pool (:class:`repro.engine.KVCachePool`)
batches both directions across sequences through three hooks here:
:meth:`LayerKVCache.pending_chunks` /
:meth:`LayerKVCache.commit_decoded` let it decode many sequences'
not-yet-memoized chunks in one fused pass, and
:meth:`LayerKVCache.append_encoded` lets it scatter back chunks it
encoded in one fused pass (via
:func:`~repro.core.encoding.split_encoded`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import OakenConfig
from repro.core.encoding import EncodedKV, split_encoded
from repro.core.quantizer import LayerEncoder, OakenQuantizer


class _DecodedPrefix:
    """A growing float32 buffer memoizing decoded, immutable chunks."""

    def __init__(self) -> None:
        self.buffer: Optional[np.ndarray] = None
        self.rows = 0
        self.chunks_decoded = 0

    def append_rows(self, decoded: np.ndarray, chunks: int = 1) -> None:
        """Memoize ``decoded`` rows covering ``chunks`` encoded chunks.

        The rows may have been decoded externally (the serving pool
        dequantizes the pending chunks of many sequences in one fused
        pass); the prefix only records that those chunks are now
        represented in the buffer.
        """
        need = self.rows + decoded.shape[0]
        if self.buffer is None:
            capacity = max(64, need)
            self.buffer = np.empty(
                (capacity, decoded.shape[1]), dtype=np.float32
            )
        elif need > self.buffer.shape[0]:
            capacity = max(need, 2 * self.buffer.shape[0])
            grown = np.empty(
                (capacity, self.buffer.shape[1]), dtype=np.float32
            )
            grown[: self.rows] = self.buffer[: self.rows]
            self.buffer = grown
        self.buffer[self.rows : need] = decoded
        self.rows = need
        self.chunks_decoded += chunks

    def view(self) -> np.ndarray:
        """Read-only view of the memoized prefix."""
        if self.buffer is None:
            view = np.empty((0, 0), dtype=np.float32)
        else:
            view = self.buffer[: self.rows]
        view.flags.writeable = False
        return view

    def extend(self, chunks: List[EncodedKV], quantizer) -> np.ndarray:
        """Decode chunks not yet memoized, then view the full prefix."""
        for chunk in chunks[self.chunks_decoded :]:
            self.append_rows(quantizer.dequantize(chunk))
        return self.view()


@dataclass
class LayerKVCache:
    """Quantized keys and values of one decoder layer for one sequence.

    Attributes:
        key_quantizer: Oaken quantizer fitted for this layer's keys.
        value_quantizer: Oaken quantizer fitted for this layer's values.
        incremental: memoize decoded chunks so :meth:`read` is O(new
            tokens) instead of re-decoding the whole history (default).
    """

    key_quantizer: OakenQuantizer
    value_quantizer: OakenQuantizer
    incremental: bool = True
    _key_chunks: List[EncodedKV] = field(default_factory=list)
    _value_chunks: List[EncodedKV] = field(default_factory=list)
    _length: int = 0
    # Running encoded footprint of the chunk lists, as exact integers
    # (see :meth:`footprint_bits`).
    _bits: int = 0
    _elements: int = 0
    _key_decoded: _DecodedPrefix = field(
        default_factory=_DecodedPrefix, repr=False, compare=False
    )
    _value_decoded: _DecodedPrefix = field(
        default_factory=_DecodedPrefix, repr=False, compare=False
    )
    #: Encodes appended rows: one row-stacked kernel call for keys and
    #: values when the two quantizers allow it.
    encoder: LayerEncoder = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.encoder = LayerEncoder(self.key_quantizer, self.value_quantizer)

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
        """Quantize and append newly generated KV rows.

        Args:
            keys: [t, D] new key vectors (t >= 1).
            values: [t, D] new value vectors, same shape as ``keys``.
        """
        keys = np.atleast_2d(keys)
        values = np.atleast_2d(values)
        if keys.shape != values.shape:
            raise ValueError(
                f"key/value shape mismatch: {keys.shape} vs {values.shape}"
            )
        self.append_encoded(*self.encoder.encode([keys], [values]))

    def append_encoded(
        self, key_chunk: EncodedKV, value_chunk: EncodedKV
    ) -> None:
        """Append pre-encoded KV chunks produced by this layer's quantizers.

        The write-side counterpart of :meth:`pending_chunks`: the
        serving pool quantizes the freshly appended rows of many
        sequences in one fused encode, splits the result with
        :func:`~repro.core.encoding.split_encoded`, and hands each
        sequence its chunk here.  The chunks must have been encoded
        with this layer's fitted quantizers (same thresholds), which
        the pool guarantees by sharing quantizers across sequences.
        """
        if key_chunk.num_tokens != value_chunk.num_tokens:
            raise ValueError(
                "key/value token-count mismatch: "
                f"{key_chunk.num_tokens} vs {value_chunk.num_tokens}"
            )
        self._key_chunks.append(key_chunk)
        self._value_chunks.append(value_chunk)
        self._length += key_chunk.num_tokens
        self._charge((key_chunk, value_chunk))

    def read(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantize the full cached (keys, values) history.

        Returns:
            ``(keys, values)`` float32 arrays of shape [length, D].  In
            incremental mode these are read-only views of the memoized
            decode buffers; copy before mutating.
        """
        if not self._key_chunks:
            raise RuntimeError("cache is empty")
        if self.incremental:
            keys = self._key_decoded.extend(
                self._key_chunks, self.key_quantizer
            )
            values = self._value_decoded.extend(
                self._value_chunks, self.value_quantizer
            )
            return keys, values
        keys = np.concatenate(
            [self.key_quantizer.dequantize(c) for c in self._key_chunks]
        )
        values = np.concatenate(
            [self.value_quantizer.dequantize(c) for c in self._value_chunks]
        )
        return keys, values

    def split_chunk_boundary(
        self, prefix_len: int
    ) -> Tuple[int, List[Tuple[EncodedKV, EncodedKV]]]:
        """Ensure a chunk boundary at row ``prefix_len``; in place.

        The prefix-sharing pool forks a sequence by aliasing the chunk
        objects covering its first ``prefix_len`` rows.  When the
        boundary falls inside a chunk, that chunk is split with
        :func:`~repro.core.encoding.split_encoded` and the two pieces
        replace it in this cache's lists — a bit-exact rewrite (both
        encode and decode are row-local) that leaves every read
        unchanged, including the incremental decode memo, whose chunk
        counter is re-based when an already-memoized chunk splits.

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
            # chunks; re-base the decode counters so pending_chunks
            # keeps pointing past the memoized prefix.
            for memo in (self._key_decoded, self._value_decoded):
                if memo.chunks_decoded > index:
                    memo.chunks_decoded += 1
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

    def pending_chunks(self) -> Tuple[List[EncodedKV], List[EncodedKV]]:
        """Chunks appended since the last read (incremental mode only).

        The serving pool batches these across sequences into one fused
        decode; the results come back through :meth:`commit_decoded`.
        """
        if not self.incremental:
            raise RuntimeError(
                "pending_chunks requires an incremental cache"
            )
        return (
            self._key_chunks[self._key_decoded.chunks_decoded :],
            self._value_chunks[self._value_decoded.chunks_decoded :],
        )

    def commit_decoded(
        self,
        key_rows: np.ndarray,
        value_rows: np.ndarray,
        chunks: int,
    ) -> None:
        """Memoize externally decoded pending rows covering ``chunks``.

        ``key_rows`` / ``value_rows`` must be the exact decode of the
        corresponding :meth:`pending_chunks` slices, in order.
        """
        self._key_decoded.append_rows(key_rows, chunks)
        self._value_decoded.append_rows(value_rows, chunks)

    def footprint_bits(self) -> Tuple[int, int]:
        """``(total_bits, element_count)`` of the cached chunks; O(1).

        Running totals maintained by :meth:`append`,
        :meth:`append_encoded` and :meth:`adopt_prefix` (a boundary
        split is footprint-neutral).  Every chunk's bit count is an
        integer, so the totals equal a recomputed sum over the chunk
        lists exactly, whatever the order of operations —
        :meth:`check_invariants` is that recomputation.
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


class QuantizedKVCache:
    """Whole-model quantized KV cache: one :class:`LayerKVCache` per layer.

    Args:
        key_quantizers: per-layer key quantizers (index = layer).
        value_quantizers: per-layer value quantizers.
        incremental: memoize decoded chunks per layer (default); pass
            ``False`` for the seed's full re-decode on every read.
    """

    def __init__(
        self,
        key_quantizers: List[OakenQuantizer],
        value_quantizers: List[OakenQuantizer],
        incremental: bool = True,
    ):
        if len(key_quantizers) != len(value_quantizers):
            raise ValueError("need one key and one value quantizer per layer")
        self.layers: List[LayerKVCache] = [
            LayerKVCache(
                key_quantizer=kq,
                value_quantizer=vq,
                incremental=incremental,
            )
            for kq, vq in zip(key_quantizers, value_quantizers)
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

    def append(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Append new KV rows to ``layer``'s cache."""
        self.layers[layer].append(keys, values)

    def append_encoded(
        self, layer: int, key_chunk: EncodedKV, value_chunk: EncodedKV
    ) -> None:
        """Append pre-encoded chunks to ``layer`` (see
        :meth:`LayerKVCache.append_encoded`)."""
        self.layers[layer].append_encoded(key_chunk, value_chunk)

    def read(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantized (keys, values) history of ``layer``."""
        return self.layers[layer].read()

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
