"""Structure-of-arrays KV arena: the pool's fused resident set as flat
buffers.

The chunked fused cache (:class:`~repro.core.kvcache.LayerKVCache`)
stores one immutable :class:`~repro.core.encoding.EncodedKV` object per
append.  That object model is what makes prefix sharing structural and
tiering chunk-agnostic, but at serving batch sizes it is also the hot
loop's dominant cost: every batched append allocates one chunk (ten
small arrays plus a dataclass) per sequence per tensor, and every
batched read concatenates per-sequence chunk lists field by field.

:class:`KVArena` removes the object traffic, in two levels.  The
arena owns the one row table, ``seq_id -> (start, cap, generation,
bits, elements, per-layer length/decoded)``: a sequence's cache is the
same contiguous row-slice in every layer (the paper's MMU keeps a
layer's keys and values in one address space behind one table; so does
this).  Each decoder layer owns one preallocated
structure-of-arrays store whose row-parallel buffers carry a K|V axis
— dense codes ``[2, cap, D]``, per-token scale bounds ``[2, cap]`` /
``[2, cap, B]`` — over one append-only packed payload log holding the
sparse COO records of both tensors, addressed by per-row
``(pay_start, pay_len)``:

* ``append_batch`` is one fused encode (keys stacked over values)
  followed by one vectorized scatter of that ``[keys; values]`` stack,
  as it leaves the kernel, into the layer's buffers — no per-sequence
  chunk allocation and no split back into tensors anywhere on the
  path.
* ``read_batch`` is one ragged gather of every requested sequence's
  undecoded ``[K rows; V rows]`` into a single lazily materialized
  chunk view (:func:`~repro.core.encoding.encoded_rows_view`), one
  stacked decode, and one scatter into the decoded-row mirror; reads
  then serve zero-copy row-slice views.
* ``free`` puts the sequence's region on the free list of its size
  class, where the next reservation of that class finds it: a stored
  row is written once and moved O(1) times.  Only when free-listed
  rows exceed a deterministic watermark fraction of the arena's row
  capacity does the arena compact — every layer's slices slide
  front-to-back with the capacities they have, the payload log is
  rebuilt, the buffers are re-sized to what is left, and every
  sequence's ``generation`` is bumped.

Whether a layer's keys and values can share a kernel call is
:class:`~repro.core.quantizer.LayerEncoder`'s decision
(``encoder.parts``); a pair that cannot goes through the same store
methods one tensor at a time.

Bit-exactness is the design constraint, not a best-effort property:
the arena stores exactly the arrays :class:`EncodedKV` stores (float32
scale bounds, uint8 codes, the token-ordered COO stream), encode and
decode are row-local, and the fused kernels read scales through the
same float32 storage either way — so every read is bit-identical to
the chunked pool, looped or batched, tiered or untiered, including
after compaction and after ``fork`` (the pool's state machine,
``tests/test_pool_model.py``, checks every read against the one-shot
``roundtrip()`` of the rows).

Forks copy the parent's first ``prefix_len`` encoded rows (plus any
already-decoded mirror rows) into the child's slice: reads are
bit-identical to the chunk-aliasing COW fork, but no bytes are shared
— the same contract class as adapter-pool forks.  Chunk identity,
which sharing's refcounts need, simply does not exist in a flat arena.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.core.encoding import (
    EncodedKV,
    encoded_rows_view,
    sparse_record_bits,
)
from repro.core.quantizer import LayerEncoder

__all__ = ["KVArena", "ArenaCacheBackend"]

#: Smallest per-sequence row-slice capacity; the size classes are
#: this times the powers of two.
_MIN_ROWS = 8
#: Free-listed (dead) fraction of the arena's row capacity past which
#: ``free`` compacts.
_COMPACT_WATERMARK = 0.25
#: Smallest arena row-buffer capacity (a power of two, as every
#: larger one is).
_MIN_ARENA_ROWS = 256
#: Smallest payload-log capacity in records (doubles from here).
_MIN_LOG_RECORDS = 256

#: :class:`EncodedKV`'s row-parallel and per-record arrays; a layer
#: store keeps each under its own name.
_ROW_FIELDS = ("dense_codes", "middle_lo", "middle_hi", "band_lo", "band_hi")
_RECORD_FIELDS = (
    "sparse_pos", "sparse_band", "sparse_side", "sparse_mag_code",
    "sparse_fp16",
)


def as_rows(block) -> np.ndarray:
    """``block`` as a 2-D row block — itself when it already is one, as
    every block of the serving loop is: ``np.atleast_2d`` per block
    per sequence is a measurable share of a batched append."""
    if type(block) is np.ndarray and block.ndim == 2:
        return block
    return np.atleast_2d(block)


def _pow2(n: int) -> int:
    """The smallest power of two that is at least ``n``."""
    return 1 << max(0, n - 1).bit_length()


def _ranges(starts, lens) -> np.ndarray:
    """``arange(s, s + n)`` for every ``(s, n)`` pair, concatenated."""
    lens = np.asarray(lens, dtype=np.int64)
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    first = np.asarray(starts, dtype=np.int64) - (ends - lens)
    return np.repeat(first, lens) + np.arange(total)


def _flat(buf: np.ndarray) -> np.ndarray:
    """A ``[2, cap, ...]`` K|V buffer viewed as ``[2 * cap, ...]``:
    keys' rows, then values'.  One leading-axis index over this view
    is numpy's fast take/put path; ``buf[tensors, idx]`` is not."""
    return buf.reshape((-1,) + buf.shape[2:])


def _positions(tensors: slice, idx: np.ndarray, cap: int) -> np.ndarray:
    """Rows ``idx`` of each tensor in ``tensors``, as :func:`_flat`
    positions of ``cap``-row buffers (tensor-major: K rows, V rows)."""
    first = np.arange(tensors.start, tensors.stop)[:, None] * cap
    return (first + idx).ravel()


def _item_bits(
    encoded: EncodedKV, rows: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Per-item ``(bits, elements)`` of one batched encode.

    ``encoded`` is one or more equal row blocks (keys, values, or keys
    over values), each holding the items' ``rows`` in order.  This is
    :meth:`EncodedKV.footprint_bits` in closed form, so arena byte
    accounting is bit-identical to the chunked pool's: the COO stream
    is token-major, so an item's records are one contiguous run per
    block, counted for every item by one ``searchsorted``.
    """
    config = encoded.config
    ends = np.cumsum(rows)
    total = int(ends[-1])
    blocks = encoded.num_tokens // total
    # Where each item's run ends in each block; a run starts where the
    # previous one (the previous block's last) ended.
    edges = np.add.outer(np.arange(0, blocks * total, total), ends)
    runs = np.searchsorted(encoded.sparse_token, edges.ravel())
    runs[1:] -= runs[:-1]
    outliers = runs.reshape(edges.shape).sum(axis=0)
    tokens = blocks * np.asarray(rows)
    per_token = encoded.dim * config.inlier_bits + config.token_metadata_bits
    bits = tokens * per_token + outliers * sparse_record_bits(config)
    return bits.tolist(), (tokens * encoded.dim).tolist()


class _RowSlice:
    """One sequence's contiguous row range, the same in every layer."""

    __slots__ = (
        "start", "cap", "generation", "bits", "elements",
        "length", "decoded",
    )

    def __init__(self, start: int, num_layers: int) -> None:
        self.start = start
        self.cap = 0
        #: Bumped every time the slice relocates (growth or compaction).
        self.generation = 0
        #: Running encoded footprint of the written rows, keys plus
        #: values over all layers, as exact integers: grown by appends
        #: and fork copies, untouched by relocation and compaction,
        #: gone with the slice.
        self.bits = 0
        self.elements = 0
        #: Per layer: rows [0, length) are written, rows [0, decoded)
        #: have current entries in the decoded mirror.
        self.length = [0] * num_layers
        self.decoded = [0] * num_layers


class _LayerStore:
    """One layer's rows, keys and values side by side.

    Row-parallel buffers are ``[2, cap, ...]`` — axis 0 is K|V (0 keys,
    1 values), axis 1 the arena row — so the ``[keys; values]`` stack
    the kernel emits scatters in, and gathers back out, as it is.  The
    payload log is one append-only record store for both tensors,
    addressed through ``pay_start``/``pay_len`` (records of one row are
    contiguous and token-ordered, records of different rows need not be
    adjacent — relocation moves row metadata, never payload; only
    :meth:`rebuild_log` rewrites the log).  Where rows live, and how
    many rows the buffers hold, is the arena's business: the store is
    told positions and a capacity, it keeps no geometry.
    """

    def __init__(self, key_quantizer, value_quantizer) -> None:
        if key_quantizer.config != value_quantizer.config:
            raise ValueError(
                "a layer's key and value quantizers must share one "
                "config (their rows share one set of buffers)"
            )
        self.encoder = LayerEncoder(key_quantizer, value_quantizer)
        #: Row-parallel buffers: :data:`_ROW_FIELDS`, ``pay_start``,
        #: ``pay_len`` and the ``decoded`` float32 mirror.
        self.rows: Dict[str, np.ndarray] = {}
        #: Payload log: the :data:`_RECORD_FIELDS` the config emits.
        self.log: Dict[str, np.ndarray] = {}
        self.log_len = 0
        #: Records in ``log[:log_len]`` that belonged to freed rows.
        self.dead_records = 0
        #: Rows every buffer holds — set by the arena through
        #: :meth:`resize`, ahead of the buffers themselves: they are
        #: shaped by the first write.
        self.capacity = 0
        #: Read-only alias of the decoded mirror; reads slice this.
        self.readable = np.empty((2, 0, 0), dtype=np.float32)

    @property
    def decoded(self) -> np.ndarray:
        return self.rows["decoded"]

    def resize(self, capacity: int, moved=None) -> None:
        """Replace every row-parallel buffer by a fresh ``capacity``-row
        one.  Rows keep their positions (those that fit), or — given
        ``moved = (old_idx, new_idx)`` — exactly the rows ``old_idx``
        survive, at ``new_idx``."""
        if moved is not None:
            old_at = _positions(slice(0, 2), moved[0], self.capacity)
            new_at = _positions(slice(0, 2), moved[1], capacity)
        self.capacity = capacity
        if not self.rows:
            return
        for name, old in self.rows.items():
            fresh = np.empty((2, capacity) + old.shape[2:], dtype=old.dtype)
            if moved is None:
                keep = min(capacity, old.shape[1])
                fresh[:, :keep] = old[:, :keep]
            else:
                _flat(fresh)[new_at] = _flat(old)[old_at]
            self.rows[name] = fresh
        self.readable = self.decoded.view()
        self.readable.flags.writeable = False

    def move_rows(self, src: int, dst: int, count: int) -> None:
        """Move a row range's metadata (relocation; payload stays put)."""
        for buf in self.rows.values():
            buf[:, dst : dst + count] = buf[:, src : src + count]

    def write(
        self, tensors: slice, idx: np.ndarray, encoded: EncodedKV
    ) -> None:
        """Scatter an encode's row blocks into rows ``idx`` of ``tensors``.

        ``encoded`` holds one ``len(idx)``-row block per tensor of the
        K|V-axis slice ``tensors``; ``idx[i]`` receives row ``i`` of
        each.  The COO records are appended to the payload log in
        token order, so every row's records stay contiguous.
        """
        if not self.rows:
            # Shape the buffers from the first encoded batch seen, at
            # zero rows; ``resize`` gives them the arena's capacity.
            like = {name: getattr(encoded, name)[:0] for name in _ROW_FIELDS}
            like["pay_start"] = like["pay_len"] = np.empty(0, dtype=np.int64)
            like["decoded"] = np.empty((0, encoded.dim), dtype=np.float32)
            for name, rows in like.items():
                self.rows[name] = np.empty((2,) + rows.shape, rows.dtype)
            self.resize(self.capacity)
            for name in _RECORD_FIELDS:
                field = getattr(encoded, name)
                if field is not None:
                    self.log[name] = np.empty(
                        _MIN_LOG_RECORDS, dtype=field.dtype
                    )
        at = _positions(tensors, idx, self.capacity)
        for name in _ROW_FIELDS:
            _flat(self.rows[name])[at] = getattr(encoded, name)
        lens = np.bincount(encoded.sparse_token, minlength=at.size)
        _flat(self.rows["pay_len"])[at] = lens
        _flat(self.rows["pay_start"])[at] = (
            self.log_len + np.cumsum(lens) - lens
        )
        lo, hi = self.log_len, self.log_len + encoded.num_outliers
        if hi > lo:
            for name, old in self.log.items():
                if hi > old.shape[0]:
                    grown = np.empty(max(old.shape[0] * 2, hi), old.dtype)
                    grown[:lo] = old[:lo]
                    self.log[name] = old = grown
                old[lo:hi] = getattr(encoded, name)
            self.log_len = hi

    def gather(
        self, tensors: slice, idx: np.ndarray, quantizer
    ) -> EncodedKV:
        """One lazy chunk view over rows ``idx`` of ``tensors``: a
        ``len(idx)``-row block per tensor of the slice (``[K rows; V
        rows]`` when it spans both), labelled for ``quantizer``."""
        at = _positions(tensors, idx, self.capacity)
        lens = _flat(self.rows["pay_len"])[at]
        rec = _ranges(_flat(self.rows["pay_start"])[at], lens)
        return encoded_rows_view(
            quantizer.config,
            quantizer.thresholds,
            record_counts=lens,
            **{name: _flat(self.rows[name])[at] for name in _ROW_FIELDS},
            **{name: buf[rec] for name, buf in self.log.items()},
        )

    def records(self, start: int, count: int) -> int:
        """Payload records rows ``[start, start + count)`` hold, keys'
        plus values'."""
        if not count:
            return 0
        return int(self.rows["pay_len"][:, start : start + count].sum())

    def rebuild_log(self, live_idx: np.ndarray) -> None:
        """Rewrite the payload log to the records of rows ``live_idx``
        alone, in that order (keys' records, then values'), with as
        much headroom again.  Rows stay put; only their ``pay_start``
        is rewritten."""
        if not self.rows:
            return
        live = _positions(slice(0, 2), live_idx, self.capacity)
        lens = _flat(self.rows["pay_len"])[live]
        rec = _ranges(_flat(self.rows["pay_start"])[live], lens)
        for name, old in self.log.items():
            rebuilt = np.empty(
                max(_MIN_LOG_RECORDS, 2 * rec.size), dtype=old.dtype
            )
            rebuilt[: rec.size] = old[rec]
            self.log[name] = rebuilt
        _flat(self.rows["pay_start"])[live] = np.cumsum(lens) - lens
        self.log_len = rec.size
        self.dead_records = 0

    def storage_nbytes(self) -> float:
        """Bytes of preallocated encoded-side buffers (slack included).

        The decoded mirror is a derived cache, not storage, and is
        excluded — this is the ``arena_capacity_bytes`` diagnostic."""
        buffers = {**self.rows, **self.log}
        buffers.pop("decoded", None)
        return float(sum(buf.nbytes for buf in buffers.values()))


class KVArena:
    """One row table over per-layer structure-of-arrays stores, behind
    ``KVCachePool``.

    Built from the shared per-layer quantizers of a fused pool
    (harvested from one template backend, the same objects
    :func:`~repro.engine.backend.shared_backend_factory` shares), so
    every sequence's rows encode and decode through identical kernels
    and batched operations are always fusible.

    The arena owns all row geometry: one ``seq_id -> _RowSlice`` table,
    one ``tail``, one row ``capacity``, one free list per size class.
    A sequence occupies the same row range ``[start, start + cap)`` in
    every layer's store (how many of those rows a layer has written and
    decoded is per layer, so layers may be driven unevenly); growth,
    recycling and compaction are decided once and applied to every
    layer.  Live slices and free regions tile ``[0, tail)`` exactly.

    Both bounds on what is left dead are checked in ``free`` only —
    never on the append path, where a batch is half applied (its rows
    are reserved, not yet written): free-listed rows compact the arena
    when they reach :data:`_MIN_ROWS` and exceed
    :data:`_COMPACT_WATERMARK` of ``capacity``; dead payload records,
    which recycling alone would let pile up in the append-only log,
    get a layer's log rebuilt when they outnumber its live ones.

    Args:
        key_quantizers / value_quantizers: per-layer fitted quantizers.
    """

    def __init__(
        self, key_quantizers: Sequence, value_quantizers: Sequence
    ) -> None:
        if len(key_quantizers) != len(value_quantizers):
            raise ValueError(
                "need one key and one value quantizer per layer"
            )
        self.layers = [
            _LayerStore(kq, vq)
            for kq, vq in zip(key_quantizers, value_quantizers)
        ]
        self.rows: Dict[Hashable, _RowSlice] = {}
        self.tail = 0
        #: Per size class (a slice capacity), the starts of the free
        #: regions of that capacity; last freed, first reused.
        self.free_slices: Dict[int, List[int]] = {}
        #: Rows on the free lists.
        self.dead_rows = 0
        #: Rows every layer's buffers hold (``tail`` never exceeds it).
        self.capacity = 0
        self.compactions = 0

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # -- geometry ------------------------------------------------------

    def _release(self, start: int, cap: int) -> None:
        """Give a region back: the tail region shrinks the extent, any
        other joins its size class's free list."""
        if start + cap == self.tail:
            self.tail = start
        elif cap:
            self.free_slices.setdefault(cap, []).append(start)
            self.dead_rows += cap

    def _reserve(self, slc: _RowSlice, need: int) -> None:
        """Guarantee the slice holds ``need`` rows, in every layer.

        Capacities are size classes: :data:`_MIN_ROWS` times a power of
        two.  A slice at the arena tail extends in place; anywhere else
        it moves into the most recently freed region of its new class —
        or, when there is none, to the tail — and its old region joins
        the free list of the class it outgrew.
        """
        if need <= slc.cap:
            return
        new_cap = max(_MIN_ROWS, _pow2(need))
        at_tail = slc.cap and slc.start + slc.cap == self.tail
        recycled = self.free_slices.get(new_cap)
        if at_tail:
            start = slc.start
        elif recycled:
            start = recycled.pop()
            self.dead_rows -= new_cap
        else:
            start = self.tail
        if start + new_cap > self.tail:
            self.tail = start + new_cap
            if self.tail > self.capacity:
                self.capacity = max(_MIN_ARENA_ROWS, _pow2(self.tail))
                for store in self.layers:
                    store.resize(self.capacity)
        if slc.cap and not at_tail:
            for store, length in zip(self.layers, slc.length):
                if length:
                    store.move_rows(slc.start, start, length)
            self._release(slc.start, slc.cap)
            slc.generation += 1
        slc.start = start
        slc.cap = new_cap

    def should_compact(self) -> bool:
        return (
            self.dead_rows >= _MIN_ROWS
            and self.dead_rows > _COMPACT_WATERMARK * self.capacity
        )

    def _written(self, layer: int) -> np.ndarray:
        """Every written row of ``layer``, in row-table order."""
        slices = self.rows.values()
        return _ranges(
            [slc.start for slc in slices],
            [slc.length[layer] for slc in slices],
        )

    def compact(self) -> None:
        """Deterministically close the gaps: slide every slice, with
        the capacity it has, front-to-back in row-table order, into
        buffers (and payload logs) sized to what is left and at least
        as much headroom again — capacity follows use down as well as
        up."""
        old = [self._written(layer) for layer in range(self.num_layers)]
        self.tail = 0
        for slc in self.rows.values():
            slc.start = self.tail
            slc.generation += 1
            self.tail += slc.cap
        self.capacity = max(_MIN_ARENA_ROWS, _pow2(2 * self.tail))
        for layer, store in enumerate(self.layers):
            new = self._written(layer)
            store.resize(self.capacity, (old[layer], new))
            store.rebuild_log(new)
        self.free_slices.clear()
        self.dead_rows = 0
        self.compactions += 1

    # -- lifecycle -----------------------------------------------------

    def allocate(self, seq_id: Hashable) -> "ArenaCacheBackend":
        if seq_id in self.rows:
            raise ValueError(f"sequence {seq_id!r} already in arena")
        self.rows[seq_id] = _RowSlice(self.tail, self.num_layers)
        return ArenaCacheBackend(self, seq_id)

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
        parent = self.rows[parent_id]
        if prefix_len > min(parent.length):
            raise ValueError(
                f"prefix_len {prefix_len} outside the rows every layer "
                f"of {parent_id!r} holds ({parent.length})"
            )
        child = self.allocate(child_id)
        if prefix_len == 0:
            return child
        slc = self.rows[child_id]
        self._reserve(slc, prefix_len)
        src = np.arange(parent.start, parent.start + prefix_len)
        dst = np.arange(slc.start, slc.start + prefix_len)
        for layer, store in enumerate(self.layers):
            for tensors, quantizer in store.encoder.parts:
                chunk = store.gather(tensors, src, quantizer)
                store.write(tensors, dst, chunk)
                bits, elements = chunk.footprint_bits()
                slc.bits += bits
                slc.elements += elements
            decoded = min(prefix_len, parent.decoded[layer])
            store.decoded[:, slc.start : slc.start + decoded] = (
                store.decoded[:, parent.start : parent.start + decoded]
            )
            slc.length[layer] = prefix_len
            slc.decoded[layer] = decoded
        return child

    def free(self, seq_id: Hashable) -> None:
        """Recycle the sequence's region and bound what is left dead.

        The one quiescent point, so the only place either bound is
        checked: free-listed rows past the watermark compact the arena
        (rows and payload); otherwise a layer whose dead payload
        records outnumber its live ones has its log alone rebuilt.
        """
        slc = self.rows.pop(seq_id)
        for store, length in zip(self.layers, slc.length):
            store.dead_records += store.records(slc.start, length)
        self._release(slc.start, slc.cap)
        if self.should_compact():
            self.compact()
            return
        for layer, store in enumerate(self.layers):
            if 2 * store.dead_records > store.log_len:
                store.rebuild_log(self._written(layer))

    def __contains__(self, seq_id: Hashable) -> bool:
        return seq_id in self.rows

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

        Returns the number of kernel calls made (one per entry of
        :attr:`~repro.core.quantizer.LayerEncoder.parts`).
        """
        store = self.layers[layer]
        slices = [self.rows[seq_id] for seq_id, _, _ in items]
        rows = [keys.shape[0] for _, keys, _ in items]
        if sum(rows) == 0:
            return 0
        # Look every slice up and encode before touching the row table:
        # an unknown id, or blocks of mixed widths (the encode cannot
        # stack them), must leave every sequence untouched.  The encode
        # is per token, so a batch of one width unlike the layer's rows
        # passes it; the pool refuses that before calling here.
        parts = store.encoder.encode_parts(
            [keys for _, keys, _ in items],
            [values for _, _, values in items],
        )
        # Where each item's rows go within its slice (a sequence named
        # twice keeps its items in order), then one reservation per
        # slice for its final length.  Lengths advance after the write.
        lengths: Dict[_RowSlice, int] = {}
        offsets = []
        for slc, count in zip(slices, rows):
            offset = lengths.get(slc, slc.length[layer])
            offsets.append(offset)
            lengths[slc] = offset + count
        for slc, length in lengths.items():
            self._reserve(slc, length)
        idx = _ranges(
            [slc.start + offset for slc, offset in zip(slices, offsets)],
            rows,
        )
        for tensors, encoded in parts:
            store.write(tensors, idx, encoded)
            # Charge every slice its new rows (O(1) footprint reads).
            for slc, bits, elements in zip(
                slices, *_item_bits(encoded, rows)
            ):
                slc.bits += bits
                slc.elements += elements
        for slc, length in lengths.items():
            slc.length[layer] = length
        return len(parts)

    def decode_pending(
        self, layer: int, seq_ids: Sequence[Hashable]
    ) -> int:
        """Decode every listed sequence's undecoded rows in one pass:
        one gather of ``[K rows; V rows]``, one kernel call, one
        scatter into the decoded mirror (per tensor when the layer's
        quantizers do not stack).

        Returns the number of kernel calls made — 0 when no row was
        pending.
        """
        store = self.layers[layer]
        pending = [
            slc
            for slc in (self.rows[seq_id] for seq_id in seq_ids)
            if slc.decoded[layer] < slc.length[layer]
        ]
        if not pending:
            return 0
        idx = _ranges(
            [slc.start + slc.decoded[layer] for slc in pending],
            [slc.length[layer] - slc.decoded[layer] for slc in pending],
        )
        decodes = store.encoder.decode_parts(
            lambda tensors, quantizer: store.gather(tensors, idx, quantizer)
        )
        for tensors, block in decodes:
            store.decoded[tensors, idx] = block.reshape(
                -1, idx.size, block.shape[1]
            )
        for slc in pending:
            slc.decoded[layer] = slc.length[layer]
        return len(decodes)

    def read(
        self, seq_id: Hashable, layer: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy row-slice views of the decoded history.

        Like the chunked cache, the views are read-only and remain
        valid in content only until the next mutating operation
        (relocation or compaction may move the rows); copy before
        holding across appends or frees.
        """
        slc = self.rows[seq_id]
        length = slc.length[layer]
        if length == 0:
            raise RuntimeError("cache is empty")
        if slc.decoded[layer] < length:
            self.decode_pending(layer, [seq_id])
        view = self.layers[layer].readable[:, slc.start : slc.start + length]
        return view[0], view[1]

    # -- accounting ----------------------------------------------------

    def seq_length(self, seq_id: Hashable) -> int:
        return self.rows[seq_id].length[0]

    def seq_footprint(self, seq_id: Hashable) -> Tuple[int, int]:
        """(total_bits, element_count) across layers for one sequence:
        an O(1) read of the slice's running totals, exact integers."""
        slc = self.rows[seq_id]
        return slc.bits, slc.elements

    def check_invariants(self) -> None:
        """Assert the allocator's geometry and the running footprints.

        Every live capacity is 0 or a size class; live slices and free
        regions are pairwise disjoint and tile the extent exactly
        (``dead_rows`` is the rows on the free lists, live capacity
        plus dead rows is ``tail``); every layer's ``decoded <= length
        <= cap``; each layer's payload log is exactly its live records
        plus the counted dead ones, which never outnumber them (every
        ``free`` sees to it); and each slice's ``(bits,
        elements)`` equals :meth:`EncodedKV.footprint_bits` of chunk
        views gathered over its written rows in every layer — the walk
        the accumulators replaced.
        """
        regions = [
            (start, cap, "free")
            for cap, starts in self.free_slices.items()
            for start in starts
        ]
        assert self.dead_rows == sum(cap for _, cap, _ in regions)
        for seq_id, slc in self.rows.items():
            for decoded, length in zip(slc.decoded, slc.length):
                assert 0 <= decoded <= length <= slc.cap, seq_id
            if slc.cap:
                # (A never-written slice owns no rows wherever it sits.)
                regions.append((slc.start, slc.cap, seq_id))
            bits = 0
            elements = 0
            for store, length in zip(self.layers, slc.length):
                if not length:
                    continue
                idx = np.arange(slc.start, slc.start + length)
                for tensors, quantizer in store.encoder.parts:
                    view_bits, view_elements = store.gather(
                        tensors, idx, quantizer
                    ).footprint_bits()
                    bits += view_bits
                    elements += view_elements
            assert (slc.bits, slc.elements) == (bits, elements), (
                f"sequence {seq_id!r}: footprint accumulator "
                f"({slc.bits}, {slc.elements}) != recomputed "
                f"({bits}, {elements})"
            )
        cursor = 0
        for start, cap, owner in sorted(regions, key=lambda r: r[:2]):
            assert cap >= _MIN_ROWS and cap & (cap - 1) == 0, (owner, cap)
            assert start >= cursor, f"region of {owner!r} overlaps"
            cursor = start + cap
        assert cursor <= self.tail
        assert sum(cap for _, cap, _ in regions) == self.tail, (
            regions, self.tail,
        )
        for layer, store in enumerate(self.layers):
            assert store.capacity == self.capacity >= self.tail
            live_records = sum(
                store.records(slc.start, slc.length[layer])
                for slc in self.rows.values()
            )
            assert store.log_len == live_records + store.dead_records, (
                layer, store.log_len, live_records, store.dead_records,
            )
            assert store.dead_records <= live_records, layer

    def summary(self) -> Dict[str, float]:
        """Occupancy counters merged into the pool's :meth:`summary`.

        Rows and compactions keep their per-layer unit (every layer's
        store holds the slice and is rewritten by a pass), so the row
        counts and ``arena_compactions`` are summed over layers.
        """
        return {
            "arena_rows_live": float(
                sum(sum(slc.length) for slc in self.rows.values())
            ),
            "arena_rows_dead": float(self.dead_rows * self.num_layers),
            "arena_compactions": float(self.compactions * self.num_layers),
            "arena_capacity_bytes": sum(
                store.storage_nbytes() for store in self.layers
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
        keys = as_rows(keys)
        values = as_rows(values)
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
