"""Structure-of-arrays KV arena: the pool's fused resident set as flat
buffers.

The chunked fused cache (:class:`~repro.core.kvcache.LayerKVCache`)
stores one immutable :class:`~repro.core.encoding.EncodedKV` object per
append.  That object model is what makes prefix sharing structural and
tiering chunk-agnostic, but at serving batch sizes it is also the hot
loop's dominant cost: every batched append allocates one chunk (ten
small arrays plus a dataclass) per sequence per tensor, and every
batched read concatenates per-sequence chunk lists field by field.

:class:`KVArena` removes the object traffic.  Per decoder layer it
keeps one preallocated, capacity-doubling structure-of-arrays store per
tensor — dense codes ``[cap, D]``, per-token scale bounds ``[cap]`` /
``[cap, B]``, and an append-only packed payload log holding the sparse
COO records, addressed by per-row ``(pay_start, pay_len)`` — plus a row
table mapping ``seq_id -> (row_start, row_len, generation)``.  A
sequence's cache is a contiguous row-slice:

* ``append_batch`` is one fused encode (keys stacked over values)
  followed by a vectorized scatter of the encoded fields into the
  arena buffers — no per-sequence chunk allocation anywhere on the
  path.
* ``read_batch`` is one ragged gather of every requested sequence's
  undecoded rows into a single lazily materialized chunk view
  (:func:`~repro.core.encoding.encoded_rows_view`), one fused decode,
  and one scatter into the decoded-row mirror; reads then serve
  zero-copy row-slice views.
* ``free`` marks the sequence's rows dead; when dead rows exceed a
  deterministic watermark fraction of the arena the store compacts,
  rewriting live rows (and their payload records) front-to-back and
  bumping every sequence's ``generation``.

Bit-exactness is the design constraint, not a best-effort property:
the arena stores exactly the arrays :class:`EncodedKV` stores (float32
scale bounds, uint8 codes, the token-ordered COO stream), encode and
decode are row-local, and the fused kernels read scales through the
same float32 storage either way — so every read is bit-identical to
the chunked pool, looped or batched, tiered or untiered, including
after compaction and after ``fork`` (``tests/test_engine_arena.py``
pins this with a randomized differential harness).

Forks copy the parent's first ``prefix_len`` encoded rows (plus any
already-decoded mirror rows) into the child's slice: reads are
bit-identical to the chunk-aliasing COW fork, but no bytes are shared
— the same contract class as adapter-pool forks.  Chunk identity,
which sharing's refcounts need, simply does not exist in a flat arena.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import EncodedKV, encoded_rows_view, sparse_record_bits
from repro.core.quantizer import LayerEncoder

__all__ = ["KVArena", "ArenaCacheBackend"]

#: Smallest per-sequence row-slice capacity (doubles from here).
_MIN_ROWS = 8
#: Initial arena row-buffer capacity (doubles from here).
_MIN_ARENA_ROWS = 256
#: Initial payload-log capacity in records (doubles from here).
_MIN_LOG_RECORDS = 256


def _rows_bits(
    config, dim: int, rows: int, outliers: int
) -> Tuple[int, int]:
    """``(total_bits, element_count)`` of ``rows`` encoded rows holding
    ``outliers`` sparse records: :meth:`EncodedKV.footprint_bits` in
    closed form, so arena byte accounting is bit-identical to the
    chunked pool's."""
    elements = rows * dim
    bits = (
        elements * config.inlier_bits
        + outliers * sparse_record_bits(config)
        + rows * config.token_metadata_bits
    )
    return bits, elements


class _RowSlice:
    """One sequence's contiguous row range in a layer's arena."""

    __slots__ = (
        "start", "length", "cap", "decoded", "generation",
        "bits", "elements",
    )

    def __init__(self, start: int, cap: int) -> None:
        self.start = start
        self.length = 0
        self.cap = cap
        #: Rows [0, decoded) have current entries in the decoded mirror.
        self.decoded = 0
        #: Bumped every time the slice relocates (growth or compaction).
        self.generation = 0
        #: Running encoded footprint of rows [0, length), keys plus
        #: values, as exact integers: grown by appends and fork copies,
        #: untouched by relocation and compaction, gone with the slice.
        self.bits = 0
        self.elements = 0

    def charge(self, footprint: Tuple[int, int]) -> None:
        """Add newly written rows' ``(bits, elements)``."""
        self.bits += footprint[0]
        self.elements += footprint[1]


class _TensorArena:
    """SoA buffers for one tensor (keys or values) of one layer.

    Row-parallel arrays are indexed by arena row; the payload log is an
    append-only record store addressed through ``pay_start``/``pay_len``
    (records of one row are contiguous and token-ordered, records of
    different rows need not be adjacent — relocation moves row metadata,
    never payload; only compaction rewrites the log).
    """

    _ROW_FIELDS = (
        "dense",
        "middle_lo",
        "middle_hi",
        "band_lo",
        "band_hi",
        "pay_start",
        "pay_len",
        "decoded",
    )
    _LOG_FIELDS = ("log_pos", "log_band", "log_side", "log_mag", "log_fp16")

    def __init__(self, quantizer) -> None:
        self.quantizer = quantizer
        self.dense: Optional[np.ndarray] = None
        self.middle_lo: Optional[np.ndarray] = None
        self.middle_hi: Optional[np.ndarray] = None
        self.band_lo: Optional[np.ndarray] = None
        self.band_hi: Optional[np.ndarray] = None
        self.pay_start: Optional[np.ndarray] = None
        self.pay_len: Optional[np.ndarray] = None
        self.decoded: Optional[np.ndarray] = None
        self.log_pos: Optional[np.ndarray] = None
        self.log_band: Optional[np.ndarray] = None
        self.log_side: Optional[np.ndarray] = None
        self.log_mag: Optional[np.ndarray] = None
        self.log_fp16: Optional[np.ndarray] = None
        self.log_len = 0
        self._has_fp16 = False

    @property
    def row_capacity(self) -> int:
        return 0 if self.dense is None else self.dense.shape[0]

    def init_buffers(self, template: EncodedKV, rows: int) -> None:
        """Shape the buffers from the first encoded batch seen."""
        if self.dense is not None:
            return
        dim = template.dim
        bands = template.band_lo.shape[1]
        cap = max(_MIN_ARENA_ROWS, rows)
        self.dense = np.empty((cap, dim), dtype=template.dense_codes.dtype)
        self.middle_lo = np.empty(cap, dtype=template.middle_lo.dtype)
        self.middle_hi = np.empty(cap, dtype=template.middle_hi.dtype)
        self.band_lo = np.empty((cap, bands), dtype=template.band_lo.dtype)
        self.band_hi = np.empty((cap, bands), dtype=template.band_hi.dtype)
        self.pay_start = np.zeros(cap, dtype=np.int64)
        self.pay_len = np.zeros(cap, dtype=np.int64)
        self.decoded = np.empty((cap, dim), dtype=np.float32)
        log_cap = _MIN_LOG_RECORDS
        self.log_pos = np.empty(log_cap, dtype=template.sparse_pos.dtype)
        self.log_band = np.empty(log_cap, dtype=template.sparse_band.dtype)
        self.log_side = np.empty(log_cap, dtype=template.sparse_side.dtype)
        self.log_mag = np.empty(
            log_cap, dtype=template.sparse_mag_code.dtype
        )
        self._has_fp16 = template.sparse_fp16 is not None
        if self._has_fp16:
            self.log_fp16 = np.empty(
                log_cap, dtype=template.sparse_fp16.dtype
            )

    def grow_rows(self, need: int) -> None:
        """Double the row-parallel buffers until ``need`` rows fit."""
        cap = self.row_capacity
        if need <= cap:
            return
        new_cap = max(cap * 2, need, _MIN_ARENA_ROWS)
        for name in self._ROW_FIELDS:
            old = getattr(self, name)
            shape = (new_cap,) + old.shape[1:]
            grown = np.empty(shape, dtype=old.dtype)
            grown[:cap] = old[:cap]
            setattr(self, name, grown)

    def copy_rows(self, src_lo: int, src_hi: int, dst_lo: int) -> None:
        """Move a row range's metadata (relocation; payload stays put)."""
        count = src_hi - src_lo
        for name in self._ROW_FIELDS:
            buf = getattr(self, name)
            buf[dst_lo : dst_lo + count] = buf[src_lo:src_hi]

    def _grow_log(self, extra: int) -> None:
        cap = self.log_pos.shape[0]
        need = self.log_len + extra
        if need <= cap:
            return
        new_cap = max(cap * 2, need)
        fields: List[str] = list(self._LOG_FIELDS)
        if not self._has_fp16:
            fields.remove("log_fp16")
        for name in fields:
            old = getattr(self, name)
            grown = np.empty(new_cap, dtype=old.dtype)
            grown[: self.log_len] = old[: self.log_len]
            setattr(self, name, grown)

    def write(self, idx: np.ndarray, encoded: EncodedKV) -> None:
        """Scatter one encoded batch's rows into arena positions ``idx``.

        ``idx[i]`` receives encoded row ``i``; the batch's COO records
        are appended to the payload log in token order, so every row's
        records stay contiguous.
        """
        self.init_buffers(encoded, int(idx.max(initial=0)) + 1)
        self.grow_rows(int(idx.max(initial=0)) + 1)
        self.dense[idx] = encoded.dense_codes
        self.middle_lo[idx] = encoded.middle_lo
        self.middle_hi[idx] = encoded.middle_hi
        self.band_lo[idx] = encoded.band_lo
        self.band_hi[idx] = encoded.band_hi
        lens = np.bincount(
            encoded.sparse_token, minlength=encoded.num_tokens
        ).astype(np.int64)
        self.pay_len[idx] = lens
        self.pay_start[idx] = self.log_len + np.concatenate(
            ([0], np.cumsum(lens[:-1]))
        ) if lens.size else self.log_len
        nnz = encoded.num_outliers
        if nnz:
            self._grow_log(nnz)
            lo, hi = self.log_len, self.log_len + nnz
            self.log_pos[lo:hi] = encoded.sparse_pos
            self.log_band[lo:hi] = encoded.sparse_band
            self.log_side[lo:hi] = encoded.sparse_side
            self.log_mag[lo:hi] = encoded.sparse_mag_code
            if self._has_fp16:
                self.log_fp16[lo:hi] = encoded.sparse_fp16
            self.log_len = hi

    def gather(self, idx: np.ndarray) -> EncodedKV:
        """Materialize one lazy chunk view over arena rows ``idx``."""
        lens = self.pay_len[idx]
        total = int(lens.sum())
        if total:
            offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
            rec = np.repeat(self.pay_start[idx] - offsets, lens)
            rec += np.arange(total, dtype=np.int64)
            sparse = (
                self.log_pos[rec],
                self.log_band[rec],
                self.log_side[rec],
                self.log_mag[rec],
                self.log_fp16[rec] if self._has_fp16 else None,
            )
        else:
            sparse = (
                self.log_pos[:0],
                self.log_band[:0],
                self.log_side[:0],
                self.log_mag[:0],
                self.log_fp16[:0] if self._has_fp16 else None,
            )
        return encoded_rows_view(
            self.quantizer.config,
            self.quantizer.thresholds,
            self.dense[idx],
            self.middle_lo[idx],
            self.middle_hi[idx],
            self.band_lo[idx],
            self.band_hi[idx],
            lens,
            *sparse,
        )

    def compact(
        self, live_idx: np.ndarray, new_idx: np.ndarray, buffer_rows: int
    ) -> None:
        """Rewrite live rows (old positions ``live_idx``) to ``new_idx``.

        Row metadata moves through fresh buffers; the payload log is
        rebuilt record-by-record in the new row order, reclaiming dead
        records along with dead rows.
        """
        if self.dense is None:
            return
        # Gather the surviving payload first (it reads pay_start/pay_len
        # at their *old* positions).
        lens = self.pay_len[live_idx]
        total = int(lens.sum())
        if total:
            offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
            rec = np.repeat(self.pay_start[live_idx] - offsets, lens)
            rec += np.arange(total, dtype=np.int64)
        else:
            rec = np.empty(0, dtype=np.int64)
        log_fields: List[str] = list(self._LOG_FIELDS)
        if not self._has_fp16:
            log_fields.remove("log_fp16")
        for name in log_fields:
            old = getattr(self, name)
            rebuilt = np.empty(old.shape[0], dtype=old.dtype)
            rebuilt[:total] = old[rec]
            setattr(self, name, rebuilt)
        self.log_len = total
        # Row-parallel fields: old live positions -> new positions.
        cap = max(self.row_capacity, buffer_rows)
        for name in self._ROW_FIELDS:
            old = getattr(self, name)
            fresh = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            fresh[new_idx] = old[live_idx]
            setattr(self, name, fresh)
        # Payload addressing is rebuilt from scratch in new-row order.
        starts = (
            np.concatenate(([0], np.cumsum(lens)[:-1]))
            if lens.size
            else lens
        )
        self.pay_len[new_idx] = lens
        self.pay_start[new_idx] = starts

    def storage_nbytes(self) -> float:
        """Bytes of preallocated encoded-side buffers (slack included).

        The decoded mirror is a derived cache, not storage, and is
        excluded — this is the ``arena_capacity_bytes`` diagnostic."""
        if self.dense is None:
            return 0.0
        total = 0.0
        for name in self._ROW_FIELDS:
            if name == "decoded":
                continue
            total += getattr(self, name).nbytes
        fields: List[str] = list(self._LOG_FIELDS)
        if not self._has_fp16:
            fields.remove("log_fp16")
        for name in fields:
            total += getattr(self, name).nbytes
        return total


class _LayerArena:
    """Row geometry plus the two tensor stores of one decoder layer."""

    def __init__(self, key_quantizer, value_quantizer) -> None:
        self.keys = _TensorArena(key_quantizer)
        self.values = _TensorArena(value_quantizer)
        self.encoder = LayerEncoder(key_quantizer, value_quantizer)
        self.rows: Dict[Hashable, _RowSlice] = {}
        self.tail = 0
        self.dead_rows = 0
        self.compactions = 0

    # -- geometry ------------------------------------------------------

    def slice_of(self, seq_id: Hashable) -> _RowSlice:
        return self.rows[seq_id]

    def allocate(self, seq_id: Hashable) -> None:
        self.rows[seq_id] = _RowSlice(self.tail, 0)

    def _ensure_buffer_rows(self, need: int) -> None:
        if self.keys.dense is not None:
            self.keys.grow_rows(need)
        if self.values.dense is not None:
            self.values.grow_rows(need)

    def reserve(self, seq_id: Hashable, extra: int) -> None:
        """Guarantee room for ``extra`` more rows in the slice.

        A slice at the arena tail extends in place; anywhere else it
        relocates to the tail with doubled capacity, abandoning its old
        region as dead rows (reclaimed by the next compaction).
        """
        slc = self.rows[seq_id]
        need = slc.length + extra
        if need <= slc.cap:
            return
        new_cap = max(2 * slc.cap, need, _MIN_ROWS)
        if slc.start + slc.cap == self.tail:
            # Tail slice: grow in place.
            self.tail = slc.start + new_cap
            self._ensure_buffer_rows(self.tail)
            slc.cap = new_cap
            return
        new_start = self.tail
        self.tail = new_start + new_cap
        self._ensure_buffer_rows(self.tail)
        if slc.length:
            for store in (self.keys, self.values):
                if store.dense is not None:
                    store.copy_rows(
                        slc.start, slc.start + slc.length, new_start
                    )
        self.dead_rows += slc.cap
        slc.start = new_start
        slc.cap = new_cap
        slc.generation += 1

    def free(self, seq_id: Hashable) -> None:
        slc = self.rows.pop(seq_id)
        if slc.start + slc.cap == self.tail:
            # Tail slice: reclaim immediately.
            self.tail = slc.start
        else:
            self.dead_rows += slc.cap

    def should_compact(self, watermark: float) -> bool:
        return (
            self.dead_rows >= _MIN_ROWS
            and self.dead_rows > watermark * max(1, self.tail)
        )

    def compact(self) -> None:
        """Deterministically rewrite live rows front-to-back."""
        order = list(self.rows.items())
        live_parts: List[np.ndarray] = []
        new_parts: List[np.ndarray] = []
        cursor = 0
        for seq_id, slc in order:
            new_start = cursor
            new_cap = max(slc.length, _MIN_ROWS)
            if slc.length:
                live_parts.append(
                    np.arange(slc.start, slc.start + slc.length)
                )
                new_parts.append(
                    np.arange(new_start, new_start + slc.length)
                )
            slc.start = new_start
            slc.cap = new_cap
            slc.generation += 1
            cursor += new_cap
        live_idx = (
            np.concatenate(live_parts)
            if live_parts
            else np.empty(0, dtype=np.int64)
        )
        new_idx = (
            np.concatenate(new_parts)
            if new_parts
            else np.empty(0, dtype=np.int64)
        )
        for store in (self.keys, self.values):
            store.compact(live_idx, new_idx, cursor)
        self.tail = cursor
        self.dead_rows = 0
        self.compactions += 1

    # -- accounting ----------------------------------------------------

    def live_rows(self) -> int:
        return sum(slc.length for slc in self.rows.values())

    def seq_bits(self, seq_id: Hashable) -> Tuple[int, int]:
        """(total_bits, element_count) of one sequence in this layer —
        an O(1) read of the slice's running totals."""
        slc = self.rows[seq_id]
        return slc.bits, slc.elements

    def check_invariants(self) -> None:
        """Assert row geometry and the slices' running footprints.

        Each slice's ``(bits, elements)`` must equal
        :meth:`EncodedKV.footprint_bits` of a chunk view gathered over
        its live rows — the walk the accumulators replaced.
        """
        cursor = 0
        for seq_id, slc in sorted(
            self.rows.items(), key=lambda item: item[1].start
        ):
            assert 0 <= slc.decoded <= slc.length <= slc.cap, seq_id
            if slc.cap:
                # (A never-written slice owns no rows wherever it sits.)
                assert slc.start >= cursor, f"slice {seq_id!r} overlaps"
                cursor = slc.start + slc.cap
            bits = 0
            elements = 0
            if slc.length:
                idx = np.arange(slc.start, slc.start + slc.length)
                for store in (self.keys, self.values):
                    view_bits, view_elements = store.gather(
                        idx
                    ).footprint_bits()
                    bits += view_bits
                    elements += view_elements
            assert (slc.bits, slc.elements) == (bits, elements), (
                f"sequence {seq_id!r}: footprint accumulator "
                f"({slc.bits}, {slc.elements}) != recomputed "
                f"({bits}, {elements})"
            )
        assert cursor <= self.tail
        live_caps = sum(slc.cap for slc in self.rows.values())
        assert live_caps + self.dead_rows == self.tail, (
            live_caps, self.dead_rows, self.tail,
        )


class KVArena:
    """Per-layer structure-of-arrays store behind ``KVCachePool``.

    Built from the shared per-layer quantizers of a fused pool
    (harvested from one template backend, the same objects
    :func:`~repro.engine.backend.shared_backend_factory` shares), so
    every sequence's rows encode and decode through identical kernels
    and batched operations are always fusible.

    Args:
        key_quantizers / value_quantizers: per-layer fitted quantizers.
        compact_watermark: dead-row fraction of the arena extent that
            triggers deterministic compaction (checked after ``free``
            and after relocating appends).
    """

    def __init__(
        self,
        key_quantizers: Sequence,
        value_quantizers: Sequence,
        compact_watermark: float = 0.25,
    ) -> None:
        if len(key_quantizers) != len(value_quantizers):
            raise ValueError(
                "need one key and one value quantizer per layer"
            )
        self.layers = [
            _LayerArena(kq, vq)
            for kq, vq in zip(key_quantizers, value_quantizers)
        ]
        self.compact_watermark = float(compact_watermark)
        self._seqs: Dict[Hashable, "ArenaCacheBackend"] = {}

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # -- lifecycle -----------------------------------------------------

    def allocate(self, seq_id: Hashable) -> "ArenaCacheBackend":
        if seq_id in self._seqs:
            raise ValueError(f"sequence {seq_id!r} already in arena")
        for layer in self.layers:
            layer.allocate(seq_id)
        backend = ArenaCacheBackend(self, seq_id)
        self._seqs[seq_id] = backend
        return backend

    def fork(
        self, parent_id: Hashable, child_id: Hashable, prefix_len: int
    ) -> "ArenaCacheBackend":
        """Copy the parent's first ``prefix_len`` rows into a child.

        Row-exact: encoded fields, payload records and any
        already-decoded mirror rows are duplicated, so the child's
        reads are bit-identical to an unshared sequence that appended
        the same rows (the adapter-fork contract class — no bytes are
        aliased, hence no byte savings and no refcounting).
        """
        child = self.allocate(child_id)
        if prefix_len == 0:
            return child
        for layer in self.layers:
            parent = layer.slice_of(parent_id)
            layer.reserve(child_id, prefix_len)
            slc = layer.slice_of(child_id)
            src = np.arange(parent.start, parent.start + prefix_len)
            dst = np.arange(slc.start, slc.start + prefix_len)
            for store in (layer.keys, layer.values):
                if store.dense is None:
                    continue
                chunk = store.gather(src)
                store.write(dst, chunk)
                slc.charge(chunk.footprint_bits())
            decoded = min(prefix_len, parent.decoded)
            if decoded:
                for store in (layer.keys, layer.values):
                    store.decoded[slc.start : slc.start + decoded] = (
                        store.decoded[
                            parent.start : parent.start + decoded
                        ]
                    )
            slc.length = prefix_len
            slc.decoded = decoded
        return child

    def free(self, seq_id: Hashable) -> None:
        """Mark the sequence's rows dead; compact past the watermark."""
        self._seqs.pop(seq_id)
        for layer in self.layers:
            layer.free(seq_id)
            if layer.should_compact(self.compact_watermark):
                layer.compact()

    def __contains__(self, seq_id: Hashable) -> bool:
        return seq_id in self._seqs

    # -- streaming -----------------------------------------------------

    def append_batch(
        self,
        layer: int,
        items: Sequence[Tuple[Hashable, np.ndarray, np.ndarray]],
    ) -> int:
        """One fused encode of keys and values, one vectorized scatter.

        ``items`` are ``(seq_id, keys, values)`` with ``keys`` and
        ``values`` same-shape 2-D [t, D] row blocks — the pool and
        :class:`ArenaCacheBackend` normalize and check them — ragged
        across items is fine; encode is row-local, so scattering the
        merged encode is bit-identical to per-sequence appends in
        ``items`` order.

        Returns the number of kernel calls made (see
        :attr:`~repro.core.quantizer.LayerEncoder.kernel_calls`).
        """
        store = self.layers[layer]
        rows = [keys.shape[0] for _, keys, _ in items]
        if sum(rows) == 0:
            return 0
        # Encode before touching the row table: a block the kernel
        # refuses (wrong width) must leave every sequence untouched.
        key_encoded, value_encoded = store.encoder.encode(
            [keys for _, keys, _ in items],
            [values for _, _, values in items],
        )
        # Reserve every destination first (relocations may shuffle
        # starts), then resolve final target positions.
        spans: List[Tuple[_RowSlice, int, int]] = []
        for (seq_id, _, _), count in zip(items, rows):
            store.reserve(seq_id, count)
            slc = store.slice_of(seq_id)
            spans.append((slc, slc.length, count))
            slc.length += count
        idx_parts = [
            np.arange(slc.start + offset, slc.start + offset + count)
            for slc, offset, count in spans
            if count
        ]
        idx = (
            np.concatenate(idx_parts)
            if len(idx_parts) > 1
            else idx_parts[0]
        )
        store.keys.write(idx, key_encoded)
        store.values.write(idx, value_encoded)
        # Charge every slice its new rows (O(1) footprint reads): the
        # COO stream is token-major, so each item's records are one
        # contiguous run.
        bounds = np.cumsum([0] + rows)
        for encoded in (key_encoded, value_encoded):
            starts = np.searchsorted(
                encoded.sparse_token, bounds, side="left"
            ).tolist()
            for (slc, _, count), lo, hi in zip(
                spans, starts[:-1], starts[1:]
            ):
                slc.charge(
                    _rows_bits(encoded.config, encoded.dim, count, hi - lo)
                )
        return store.encoder.kernel_calls

    def decode_pending(
        self, layer: int, seq_ids: Sequence[Hashable]
    ) -> bool:
        """Decode every listed sequence's undecoded rows in one pass.

        Returns True when a merged decode actually ran (there were
        pending rows).
        """
        store = self.layers[layer]
        pending: List[Tuple[_RowSlice, int]] = []
        idx_parts: List[np.ndarray] = []
        for seq_id in seq_ids:
            slc = store.slice_of(seq_id)
            fresh = slc.length - slc.decoded
            if fresh <= 0:
                continue
            pending.append((slc, fresh))
            idx_parts.append(
                np.arange(
                    slc.start + slc.decoded, slc.start + slc.length
                )
            )
        if not pending:
            return False
        idx = (
            np.concatenate(idx_parts)
            if len(idx_parts) > 1
            else idx_parts[0]
        )
        for tensor in (store.keys, store.values):
            decoded = tensor.quantizer.dequantize(tensor.gather(idx))
            tensor.decoded[idx] = decoded
        for slc, _ in pending:
            slc.decoded = slc.length
        return True

    def read(
        self, seq_id: Hashable, layer: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy row-slice views of the decoded history.

        Like the chunked cache, the views are read-only and remain
        valid in content only until the next mutating operation
        (relocation or compaction may move the rows); copy before
        holding across appends or frees.
        """
        store = self.layers[layer]
        slc = store.slice_of(seq_id)
        if slc.length == 0:
            raise RuntimeError("cache is empty")
        if slc.decoded < slc.length:
            self.decode_pending(layer, [seq_id])
        out = []
        for tensor in (store.keys, store.values):
            view = tensor.decoded[slc.start : slc.start + slc.length]
            view.flags.writeable = False
            out.append(view)
        return out[0], out[1]

    # -- accounting ----------------------------------------------------

    def seq_length(self, seq_id: Hashable) -> int:
        return self.layers[0].slice_of(seq_id).length

    def seq_footprint(self, seq_id: Hashable) -> Tuple[int, int]:
        """(total_bits, element_count) across layers for one sequence:
        one O(1) read per layer, exact integers."""
        bits = 0
        elements = 0
        for layer in self.layers:
            layer_bits, layer_elements = layer.seq_bits(seq_id)
            bits += layer_bits
            elements += layer_elements
        return bits, elements

    def check_invariants(self) -> None:
        """Assert every layer's geometry and footprint accumulators."""
        for layer in self.layers:
            assert set(layer.rows) == set(self._seqs)
            layer.check_invariants()

    def summary(self) -> Dict[str, float]:
        """Occupancy counters merged into the pool's :meth:`summary`."""
        return {
            "arena_rows_live": float(
                sum(layer.live_rows() for layer in self.layers)
            ),
            "arena_rows_dead": float(
                sum(layer.dead_rows for layer in self.layers)
            ),
            "arena_compactions": float(
                sum(layer.compactions for layer in self.layers)
            ),
            "arena_capacity_bytes": float(
                sum(
                    layer.keys.storage_nbytes()
                    + layer.values.storage_nbytes()
                    for layer in self.layers
                )
            ),
        }


class ArenaCacheBackend:
    """One sequence's :class:`CacheBackend` view of a shared arena.

    Implements the protocol the pool and replay drive — ``append`` /
    ``read`` / ``nbytes`` / ``effective_bitwidth`` — as row-slice
    operations on the owning :class:`KVArena`.
    """

    kind = "arena"

    def __init__(self, arena: KVArena, seq_id: Hashable) -> None:
        self.arena = arena
        self.seq_id = seq_id

    @property
    def num_layers(self) -> int:
        return self.arena.num_layers

    @property
    def length(self) -> int:
        return self.arena.seq_length(self.seq_id)

    def append(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        keys = np.atleast_2d(keys)
        values = np.atleast_2d(values)
        if keys.shape != values.shape:
            raise ValueError(
                f"key/value shape mismatch: {keys.shape} vs "
                f"{values.shape}"
            )
        self.arena.append_batch(layer, [(self.seq_id, keys, values)])

    def read(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.arena.read(self.seq_id, layer)

    def footprint_bits(self) -> Tuple[int, int]:
        """``(total_bits, element_count)`` of the sequence; O(1)."""
        return self.arena.seq_footprint(self.seq_id)

    def nbytes(self) -> float:
        return self.footprint_bits()[0] / 8.0

    def effective_bitwidth(self) -> float:
        bits, elements = self.footprint_bits()
        if elements == 0:
            return 0.0
        return bits / elements
