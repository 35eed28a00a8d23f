"""Structure-of-arrays KV arena: the pool's fused resident set as flat
buffers.

The chunk store (:class:`~repro.core.kvcache.LayerKVCache`) keeps one
immutable :class:`~repro.core.encoding.EncodedKV` per append, so at
serving batch sizes every append allocates chunks and every read
concatenates them.  :class:`KVArena` removes the object traffic: one
row table, ``seq_id -> _RowSlice`` (a sequence is the same contiguous
row-slice in every layer), over one preallocated structure-of-arrays
store for the whole cache, as the paper's MMU keeps it in one address
space behind one dense and one sparse table — row-parallel buffers
with a (layer, K|V) axis (dense codes ``[L, 2, cap, D]``, scale bounds
``[L, 2, cap]`` / ``[L, 2, cap, B]``) over one append-only payload log
of every layer's COO records, addressed by per-row ``(pay_start,
pay_len)``:

* ``append_batch`` is a whole step's one fused encode — its 2L row
  blocks, (layer, K|V) after (layer, K|V) — and one vectorized scatter
  of that stack, as it leaves the kernel, into the store: no chunk
  allocation, no split back into layers or tensors.
* ``decode_pending`` is the mirror: one ragged gather of the step's
  undecoded rows into one lazy chunk view
  (:func:`~repro.core.encoding.encoded_rows_view`), one decode, one
  scatter into the decoded mirror; reads serve zero-copy views of it.
* ``free`` puts the sequence's region on the free list of its size
  class, where the next reservation of that class finds it: a stored
  row is written once and moved O(1) times.  Only when free-listed
  rows exceed a deterministic watermark fraction of the arena's row
  capacity does the arena compact — every slice slides front-to-back
  with the capacity it has, the payload log is rebuilt, and every
  sequence's ``generation`` is bumped.

Every geometry decision — a relocation, a growth, a compaction, a
fork's copy — is one operation on the one store, whatever the number
of layers, and so is a step's write and decode: one kernel call each
way over the step's blocks, through the
:class:`~repro.core.quantizer.LayerEncoder`.

Bit-exactness is the design constraint, not a best-effort property:
the arena stores exactly the arrays :class:`EncodedKV` stores (float32
scale bounds, uint8 codes, the token-ordered COO stream), encode and
decode are row-local, and the fused kernels read scales through the
same float32 storage either way — so every read is bit-identical to
the chunked pool, looped or batched, tiered or untiered, including
after compaction and after ``fork`` (the pool's state machine,
``tests/test_pool_model.py``, checks every read against the one-shot
``roundtrip()`` of the rows).  Forks copy the parent's prefix rows:
reads are bit-identical to the chunk store's aliasing fork, but no
bytes are shared.
"""

from __future__ import annotations

from typing import (
    Collection, Dict, Hashable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.encoding import EncodedKV, encoded_rows_view
from repro.core.kvcache import check_layer
from repro.core.quantizer import LayerEncoder
from repro.engine.store import PoolStore

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

#: :class:`EncodedKV`'s row-parallel and per-record arrays; the store
#: keeps each under its own name.
_ROW_FIELDS = ("dense_codes", "middle_lo", "middle_hi", "band_lo", "band_hi")
_RECORD_FIELDS = (
    "sparse_pos", "sparse_band", "sparse_side", "sparse_mag_code",
    "sparse_fp16",
)


def as_rows(block) -> np.ndarray:
    """``block`` as a 2-D row block — itself when it already is one, as
    every block of the serving loop is (``np.atleast_2d`` per block is
    a measurable share of a batched append)."""
    if type(block) is np.ndarray and block.ndim == 2:
        return block
    return np.atleast_2d(block)


def _pow2(n: int) -> int:
    """The smallest power of two that is at least ``n``."""
    return 1 << max(0, n - 1).bit_length()


def _ranges(starts, lens) -> np.ndarray:
    """``arange(s, s + n)`` for every ``(s, n)`` pair, concatenated
    (given lists of one-row ranges, a decode step's, the starts)."""
    if type(lens) is list and lens.count(1) == len(lens):
        return np.array(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    ends = lens.cumsum()
    total = int(ends[-1]) if ends.size else 0
    first = np.asarray(starts, dtype=np.int64) - (ends - lens)
    return np.repeat(first, lens) + np.arange(total)


class _RowSlice:
    """One sequence's contiguous row range, the same in every layer."""

    __slots__ = (
        "start", "cap", "generation", "bits", "layer_bits", "elements",
        "length", "decoded",
    )

    def __init__(self, start: int, num_layers: int) -> None:
        self.start = start
        self.cap = 0
        #: Bumped every time the slice relocates (growth or compaction).
        self.generation = 0
        #: Running encoded footprint of the written rows as exact
        #: integers — bits and elements over all layers, bits per layer
        #: — grown by appends and fork copies, kept by relocation.
        self.bits = 0
        self.layer_bits = [0] * num_layers
        self.elements = 0
        #: Per layer: rows [0, length) are written, rows [0, decoded)
        #: have current entries in the decoded mirror.
        self.length = [0] * num_layers
        self.decoded = [0] * num_layers


class _Store:
    """The whole cache's rows: every layer's keys and values.

    Row-parallel buffers are ``[L, 2, cap, ...]`` — layer, K|V (0 keys,
    1 values), arena row — each also viewed flat as ``[L * 2 * cap,
    ...]``, block ``2 * layer + tensor`` after block: the order of a
    step's stack as the kernel emits it.  The payload log is one
    append-only record store for every block, addressed through
    ``pay_start``/``pay_len`` (a row's records are contiguous and
    token-ordered; relocation moves row metadata, never payload; only
    :meth:`rebuild_log` rewrites the log).  The store is told positions
    and a capacity; it keeps no geometry.
    """

    def __init__(self, num_layers: int) -> None:
        self.num_layers = num_layers
        #: Row-parallel buffers: :data:`_ROW_FIELDS`, ``pay_start``,
        #: ``pay_len`` and the ``decoded`` float32 mirror.
        self.rows: Dict[str, np.ndarray] = {}
        #: The same buffers viewed flat: one leading-axis index is
        #: numpy's fast take/put path; ``buf[layer, tensors, idx]`` is not.
        self.flat: Dict[str, np.ndarray] = {}
        #: Payload log: the :data:`_RECORD_FIELDS` the config emits.
        self.log: Dict[str, np.ndarray] = {}
        self.log_len = 0
        #: Records in ``log[:log_len]`` that belonged to freed rows.
        self.dead_records = 0
        #: Rows every block holds — set by the arena through
        #: :meth:`resize`, ahead of the buffers themselves: they are
        #: shaped by the first write.
        self.capacity = 0
        #: Read-only alias of the decoded mirror; reads slice this.
        self.readable = np.empty((num_layers, 2, 0, 0), dtype=np.float32)

    def positions(self, layers: Sequence[int], idx) -> np.ndarray:
        """Rows ``idx`` of both blocks of each of ``layers``, as
        positions in the :attr:`flat` views, block by block: keys then
        values of the first layer, then of the next.  ``idx`` holds the
        same rows for every layer, or one row list per layer."""
        blocks = 2 * np.asarray(layers)[:, None] + (0, 1)
        idx = np.asarray(idx)
        if idx.ndim == 2:
            idx = idx[:, None]
        return (blocks[:, :, None] * self.capacity + idx).ravel()

    def resize(
        self, capacity: int, old_at: np.ndarray, new_at: np.ndarray
    ) -> None:
        """Replace every row-parallel buffer by a fresh one of
        ``capacity`` rows a block, holding exactly the rows at the flat
        positions ``old_at`` (at the old capacity), now at ``new_at``.
        Each buffer's kept rows are gathered, and it is dropped, before
        its successor is allocated: never two whole buffers at once."""
        self.capacity = capacity
        if not self.rows:
            return
        self.readable = None  # (it aliases the old mirror)
        for name in list(self.rows):
            shape = self.rows[name].shape
            kept = self.flat[name][old_at]
            self.rows[name] = self.flat[name] = None
            fresh = np.empty(shape[:2] + (capacity,) + shape[3:], kept.dtype)
            self.flat[name] = fresh.reshape((-1,) + shape[3:])
            self.flat[name][new_at] = kept
            self.rows[name] = fresh
        self.readable = self.rows["decoded"].view()
        self.readable.flags.writeable = False

    def move_rows(self, src: int, dst: int, count: int) -> None:
        """Move a row range's metadata in every block (relocation;
        payload stays put)."""
        for buf in self.rows.values():
            buf[:, :, dst : dst + count] = buf[:, :, src : src + count]

    def write(self, at: np.ndarray, encoded: EncodedKV) -> np.ndarray:
        """Scatter an encode's rows into the :attr:`flat` positions
        ``at`` (row ``i`` of ``encoded`` to ``at[i]``).

        The COO records are appended to the payload log in token order,
        so every row's records stay contiguous.  Returns the record
        count of every written row, in ``encoded``'s row order.
        """
        if not self.rows:
            # Shape the buffers from the first encoded batch seen, at
            # zero rows; ``resize`` gives them the arena's capacity.
            none = np.empty(0, dtype=np.int64)
            like = {name: getattr(encoded, name)[:0] for name in _ROW_FIELDS}
            like["pay_start"] = like["pay_len"] = none
            like["decoded"] = np.empty((0, encoded.dim), dtype=np.float32)
            blocks = (self.num_layers, 2)
            for name, rows in like.items():
                self.rows[name] = rows.reshape(blocks + rows.shape)
                self.flat[name] = rows
            self.resize(self.capacity, none, none)
            for name in _RECORD_FIELDS:
                field = getattr(encoded, name)
                if field is not None:
                    self.log[name] = np.empty(
                        _MIN_LOG_RECORDS, dtype=field.dtype
                    )
        flat = self.flat
        flat["dense_codes"][at] = encoded.dense_codes
        flat["middle_lo"][at] = encoded.middle_lo
        flat["middle_hi"][at] = encoded.middle_hi
        flat["band_lo"][at] = encoded.band_lo
        flat["band_hi"][at] = encoded.band_hi
        lens = np.bincount(encoded.sparse_token, minlength=at.size)
        ends = lens.cumsum()
        lo = self.log_len
        hi = lo + int(ends[-1])
        flat["pay_len"][at] = lens
        ends -= lens
        ends += lo
        flat["pay_start"][at] = ends
        if hi > lo:
            fields = vars(encoded)
            for name, old in self.log.items():
                if hi > old.shape[0]:
                    grown = np.empty(max(old.shape[0] * 2, hi), old.dtype)
                    grown[:lo] = old[:lo]
                    self.log[name] = old = grown
                old[lo:hi] = fields[name]
            self.log_len = hi
        return lens

    def gather(self, at: np.ndarray, quantizer) -> EncodedKV:
        """One lazy chunk view over the :attr:`flat` positions ``at``
        (``[K rows; V rows]`` when they span both tensors), labelled
        for ``quantizer``."""
        flat = self.flat
        lens = flat["pay_len"][at]
        rec = _ranges(flat["pay_start"][at], lens)
        return encoded_rows_view(
            quantizer.config,
            quantizer.thresholds,
            record_counts=lens,
            **{name: flat[name][at] for name in _ROW_FIELDS},
            **{name: buf[rec] for name, buf in self.log.items()},
        )

    def records(self, at: np.ndarray) -> int:
        """Payload records the rows at the flat positions ``at`` hold."""
        return int(self.flat["pay_len"][at].sum()) if at.size else 0

    def rebuild_log(self, live: np.ndarray) -> None:
        """Rewrite the payload log to the records of the rows at the
        flat positions ``live`` alone, in that order, with as much
        headroom again.  Rows stay put; only their ``pay_start`` is
        rewritten."""
        if not self.rows:
            return
        lens = self.flat["pay_len"][live]
        rec = _ranges(self.flat["pay_start"][live], lens)
        for name, old in self.log.items():
            rebuilt = np.empty(max(_MIN_LOG_RECORDS, 2 * rec.size), old.dtype)
            rebuilt[: rec.size] = old[rec]
            self.log[name] = rebuilt
        self.flat["pay_start"][live] = lens.cumsum() - lens
        self.log_len = rec.size
        self.dead_records = 0

    def storage_nbytes(self) -> float:
        """Bytes of preallocated encoded-side buffers (slack included).

        The decoded mirror is a derived cache, not storage, and is
        excluded — this is the ``arena_capacity_bytes`` diagnostic."""
        buffers = {**self.rows, **self.log}
        buffers.pop("decoded", None)
        return float(sum(buf.nbytes for buf in buffers.values()))


class KVArena(PoolStore):
    """One row table over one structure-of-arrays store, behind
    ``KVCachePool``.

    Built from the shared per-layer quantizers of a fused pool (one
    template backend's, as
    :func:`~repro.engine.backend.shared_backend_factory` shares them),
    so every sequence's rows go through the same kernels and any batch
    fuses.  They must stack (one type, config and mode: see
    :meth:`~repro.core.quantizer.OakenQuantizer.stack`), as all rows
    share the buffers and every transaction is one kernel call.

    The arena owns all row geometry: one ``seq_id -> _RowSlice`` table,
    one ``tail``, one row ``capacity``, one free list per size class.
    A sequence occupies the same rows ``[start, start + cap)`` in every
    block of the store (how many a layer has written and decoded is per
    layer, so layers may be driven unevenly); growth, recycling and
    compaction are decided and applied once.  Live slices and free
    regions tile ``[0, tail)`` exactly; what is left dead is bounded in
    :meth:`free` only, never mid-append.

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
        #: The one encoder of every transaction, over every layer.
        self.encoder = LayerEncoder(key_quantizers, value_quantizers)
        self.store = _Store(len(key_quantizers))
        self.rows: Dict[Hashable, _RowSlice] = {}
        self.tail = 0
        #: Per size class (a slice capacity), the starts of the free
        #: regions of that capacity; last freed, first reused.
        self.free_slices: Dict[int, List[int]] = {}
        #: Rows on the free lists.
        self.dead_rows = 0
        self.compactions = 0

    @property
    def num_layers(self) -> int:
        return self.store.num_layers

    @property
    def capacity(self) -> int:
        """Rows every block of the store holds (at least ``tail``)."""
        return self.store.capacity

    @property
    def width(self) -> Optional[int]:
        """Every layer's row width (``None`` before the first write)."""
        rows = self.store.rows
        return rows["decoded"].shape[3] if rows else None

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
                capacity = max(_MIN_ARENA_ROWS, _pow2(self.tail))
                slices = self.rows.values()
                self.store.resize(
                    capacity,
                    self._written(slices),
                    self._written(slices, capacity),
                )
        if slc.cap and not at_tail:
            self.store.move_rows(slc.start, start, max(slc.length))
            self._release(slc.start, slc.cap)
            slc.generation += 1
        slc.start = start
        slc.cap = new_cap

    def should_compact(self) -> bool:
        return (
            self.dead_rows >= _MIN_ROWS
            and self.dead_rows > _COMPACT_WATERMARK * self.capacity
        )

    def _written(
        self, slices: Collection[_RowSlice], capacity: int = 0
    ) -> np.ndarray:
        """Flat store positions, at ``capacity`` rows a block (the
        store's by default), of every written row of ``slices``: block
        by block, each block's rows in ``slices`` order."""
        starts = np.array([slc.start for slc in slices], dtype=np.int64)
        lengths = np.array([slc.length for slc in slices], dtype=np.int64)
        firsts = np.arange(2 * self.num_layers) * (capacity or self.capacity)
        return _ranges(
            (firsts[:, None] + starts).ravel(),
            lengths.reshape(-1, self.num_layers).T.repeat(2, axis=0).ravel(),
        )

    def compact(self) -> None:
        """Deterministically close the gaps: slide every slice, with
        the capacity it has, front-to-back in row-table order, into
        buffers (and a payload log) sized to what is left and at least
        as much headroom again — capacity follows use down as well as
        up."""
        old = self._written(self.rows.values())
        self.tail = 0
        for slc in self.rows.values():
            slc.start = self.tail
            slc.generation += 1
            self.tail += slc.cap
        capacity = max(_MIN_ARENA_ROWS, _pow2(2 * self.tail))
        new = self._written(self.rows.values(), capacity)
        self.store.resize(capacity, old, new)
        self.store.rebuild_log(new)
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

        Row-exact: encoded fields, payload records and decoded mirror
        rows are duplicated — one gather and one write of the prefix in
        every block, charged as appended — so the child reads as an
        unshared sequence that appended the same rows; nothing is
        aliased, so nothing is saved or reference-counted.
        """
        parent = self.rows[parent_id]
        if not 0 <= prefix_len <= min(parent.length):
            raise ValueError(
                f"prefix_len {prefix_len} outside the rows every layer "
                f"of {parent_id!r} holds ({parent.length})"
            )
        child = self.allocate(child_id)
        if prefix_len == 0:
            return child
        slc = self.rows[child_id]
        self._reserve(slc, prefix_len)
        store = self.store
        every = range(self.num_layers)
        src = store.positions(every, np.arange(prefix_len) + parent.start)
        dst = store.positions(every, np.arange(prefix_len) + slc.start)
        # Any quantizer labels the copy: all share the one config.
        chunk = store.gather(src, self.encoder.key_quantizers[0])
        self._charge(
            [slc], [prefix_len], every, chunk, store.write(dst, chunk)
        )
        store.flat["decoded"][dst] = store.flat["decoded"][src]
        slc.length = [prefix_len] * self.num_layers
        slc.decoded = [min(prefix_len, done) for done in parent.decoded]
        return child

    def free(self, seq_id: Hashable) -> None:
        """Recycle the sequence's region and bound what is left dead.

        The one quiescent point (an append's rows are reserved before
        they are written), so the only place either bound is checked:
        free-listed rows that reach :data:`_MIN_ROWS` and exceed
        :data:`_COMPACT_WATERMARK` of the capacity compact the arena
        (rows and payload); otherwise, when the append-only log's dead
        records outnumber its live ones, the log alone is rebuilt.
        """
        slc = self.rows.pop(seq_id)
        store = self.store
        store.dead_records += store.records(self._written([slc]))
        self._release(slc.start, slc.cap)
        if self.should_compact():
            self.compact()
        elif 2 * store.dead_records > store.log_len:
            store.rebuild_log(self._written(self.rows.values()))

    def __contains__(self, seq_id: Hashable) -> bool:
        return seq_id in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    # -- streaming -----------------------------------------------------

    def append_batch(
        self,
        layers: Sequence[int],
        items: Sequence[Tuple[Hashable, Sequence, Sequence]],
    ) -> int:
        """Store a transaction on ``layers``: one fused encode, one
        vectorized scatter.

        ``items`` are ``(seq_id, keys, values)``, ``keys`` and
        ``values`` one same-shape 2-D [t, D] row block per entry of
        ``layers`` (checked by the caller; ``t`` may vary across
        items) — or, for one layer index, one block each.  The encode
        is row-local, so scattering its (layer, K|V) blocks is
        bit-identical to per-layer, per-sequence appends in ``items``
        order.  Each layer's rows land after its own, so layers driven
        unevenly stay exact.

        Returns the number of kernel calls made (1, or 0 without rows).
        """
        if isinstance(layers, (int, np.integer)):
            layers = (layers,)
            items = [(seq_id, (k,), (v,)) for seq_id, k, v in items]
        slices = [self.rows[seq_id] for seq_id, _, _ in items]
        rows = [keys[0].shape[0] for _, keys, _ in items]
        if not any(rows):
            return 0
        # Look every slice up and encode before touching the row table:
        # an unknown id, or blocks of mixed widths, must leave every
        # sequence untouched (rows of one width unlike the store's pass
        # the encode; the pool refuses them).
        count = len(layers)
        encoded = self.encoder.encode(
            layers,
            [
                item[tensor][i]
                for i in range(count)
                for tensor in (1, 2)
                for item in items
            ],
        )
        # Each item's offset past its slice's rows (a sequence named
        # twice keeps its items in order), then one reservation per
        # slice; lengths advance after the write.
        added: Dict[_RowSlice, int] = {}
        within = [0] * len(slices)
        for item, (slc, rows_in) in enumerate(zip(slices, rows)):
            within[item] = offset = added[slc] if slc in added else 0
            added[slc] = offset + rows_in
        for slc, rows_in in added.items():
            for layer in layers:
                if slc.length[layer] + rows_in > slc.cap:
                    self._reserve(slc, rows_in + max(
                        [slc.length[layer] for layer in layers]
                    ))
                    break
        idx = _ranges([
            slc.start + offset + slc.length[layer]
            for layer in layers for slc, offset in zip(slices, within)
        ], rows * count).reshape(count, -1)
        store = self.store
        lens = store.write(store.positions(layers, idx), encoded)
        self._charge(slices, rows, layers, encoded, lens)
        for slc, rows_in in added.items():
            for layer in layers:
                slc.length[layer] += rows_in
        return 1

    @staticmethod
    def _charge(slices, rows, layers, encoded: EncodedKV, lens) -> None:
        """Charge every item its rows on each of ``layers`` from the
        record count of every row the write just took (``lens``, block
        by block, each block the items' ``rows`` in order): this is
        :meth:`EncodedKV.footprint_bits` item by item and layer by
        layer in closed form, so arena byte accounting is bit-identical
        to the chunked pool's."""
        config = encoded.config
        count = len(layers)
        # Records per layer per item: its key rows' plus its value rows'.
        records = lens.reshape(count, 2, -1).sum(axis=1)
        if rows.count(1) != len(rows):
            ends = np.zeros((count, records.shape[1] + 1), dtype=np.int64)
            np.cumsum(records, axis=1, out=ends[:, 1:])
            bounds = np.cumsum([0] + rows)
            records = ends[:, bounds[1:]] - ends[:, bounds[:-1]]
        grown = records * config.sparse_record_bits
        grown += np.multiply(rows, 2 * (
            encoded.dim * config.inlier_bits + config.token_metadata_bits))
        totals = grown.sum(axis=0).tolist()
        for layer, bits in zip(layers, grown.tolist()):
            for slc, item_bits in zip(slices, bits):
                slc.layer_bits[layer] += item_bits
        token_elements = 2 * count * encoded.dim
        for slc, rows_in, item_bits in zip(slices, rows, totals):
            slc.bits += item_bits
            slc.elements += rows_in * token_elements

    def decode_pending(
        self, layers: Sequence[int], seq_ids: Sequence[Hashable]
    ) -> int:
        """Decode every listed sequence's undecoded rows on ``layers``:
        per group of layers whose pending rows agree — every layer of a
        step's; layers driven unevenly split it — one gather of their
        blocks, one kernel call, one scatter into the decoded mirror.

        Returns the number of kernel calls made — 0 when no row was
        pending.
        """
        slices = [self.rows[seq_id] for seq_id in seq_ids]
        groups: Dict[tuple, List[int]] = {}
        for layer in layers:
            spans = tuple([
                (slc.decoded[layer], slc.length[layer])
                if slc.decoded[layer] < slc.length[layer] else None
                for slc in slices
            ])
            groups.setdefault(spans, []).append(layer)
        store = self.store
        calls = 0
        for spans, group in groups.items():
            pending = [
                (slc, span) for slc, span in zip(slices, spans) if span
            ]
            if not pending:
                continue
            idx = _ranges([slc.start + done for slc, (done, _) in pending],
                          [length - done for _, (done, length) in pending])
            at = store.positions(group, idx)
            store.flat["decoded"][at] = self.encoder.decode(
                group, lambda q: store.gather(at, q)
            )
            for slc, (_, length) in pending:
                for layer in group:
                    slc.decoded[layer] = length
            calls += 1
        return calls

    def read(
        self, seq_id: Hashable, layer: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy row-slice views of the decoded history.

        Like the chunk store's, the views are read-only and valid only
        until the next mutation (relocation or compaction may move the
        rows): copy before holding them across appends or frees.

        Raises:
            RuntimeError: the sequence holds no rows on ``layer``
                (``"cache is empty"``).
        """
        slc = self.rows[seq_id]
        if slc.decoded[layer] < slc.length[layer]:
            self.decode_pending((layer,), [seq_id])
        return self.read_batch(layer, [seq_id])[0]

    def read_batch(
        self, layer: int, seq_ids: Sequence[Hashable]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`read` of every listed sequence, in order, for a caller
        that has run :meth:`decode_pending` on them: this serves the
        decoded mirror as it stands and decodes nothing.

        Raises:
            RuntimeError: a listed sequence holds no rows on ``layer``
                (``"cache is empty"``).
        """
        slices = [self.rows[seq_id] for seq_id in seq_ids]
        for slc in slices:
            if slc.length[layer] == 0:
                raise RuntimeError("cache is empty")
        readable = self.store.readable[layer]
        views = [
            readable[:, slc.start : slc.start + slc.length[layer]]
            for slc in slices
        ]
        return [(view[0], view[1]) for view in views]

    # -- accounting ----------------------------------------------------

    def seq_length(self, seq_id: Hashable) -> int:
        return self.rows[seq_id].length[0]

    def seq_footprint(self, seq_id: Hashable) -> Tuple[int, int]:
        """(total_bits, element_count) across layers for one sequence:
        an O(1) read of the slice's running totals, exact integers."""
        slc = self.rows[seq_id]
        return slc.bits, slc.elements

    def layer_bits(self, seq_id: Hashable, layer: int) -> int:
        """Encoded bits of one sequence's rows on one layer; O(1)."""
        return self.rows[seq_id].layer_bits[layer]

    def row_bits(
        self, seq_id: Hashable, layer: int, rows: int
    ) -> List[int]:
        """Bits of each of the last ``rows`` rows on one layer, keys and
        values summed: the rows' ``pay_len`` in :meth:`_charge`'s
        closed form."""
        slc = self.rows[seq_id]
        end = slc.start + slc.length[layer]
        at = self.store.positions((layer,), np.arange(end - rows, end))
        records = self.store.flat["pay_len"][at].reshape(2, rows).sum(axis=0)
        config = self.encoder.key_quantizers[0].config
        return (records * config.sparse_record_bits + 2 * (
            self.width * config.inlier_bits + config.token_metadata_bits
        )).tolist()

    def check_invariants(self) -> None:
        """Assert the allocator's geometry and the running footprints.

        Every live capacity is 0 or a size class; live slices and free
        regions tile the extent exactly (``dead_rows`` is the rows on
        the free lists); every layer's ``decoded <= length <= cap``;
        the payload log is the live records plus the counted dead ones,
        never more dead than live; and each slice's bits on each layer
        are :meth:`EncodedKV.footprint_bits` of a chunk view of its
        written rows there — the walk the accumulators replaced.
        """
        store = self.store
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
            bits = [
                store.gather(
                    store.positions((layer,), slc.start + np.arange(length)),
                    self.encoder.key_quantizers[0],
                ).footprint_bits()[0] if length else 0
                for layer, length in enumerate(slc.length)
            ]
            elements = 2 * sum(slc.length) * (self.width or 0)
            held = (slc.layer_bits, slc.bits, slc.elements)
            assert held == (bits, sum(bits), elements), (
                f"sequence {seq_id!r}: footprint accumulators {held} != "
                f"recomputed {(bits, sum(bits), elements)}")
        cursor = 0
        for start, cap, owner in sorted(regions, key=lambda r: r[:2]):
            assert cap >= _MIN_ROWS and cap & (cap - 1) == 0, (owner, cap)
            assert start >= cursor, f"region of {owner!r} overlaps"
            cursor = start + cap
        assert cursor <= self.tail <= self.capacity
        assert sum(cap for _, cap, _ in regions) == self.tail, (
            regions, self.tail,
        )
        live_records = store.records(self._written(self.rows.values()))
        assert store.log_len == live_records + store.dead_records, (
            store.log_len, live_records, store.dead_records,
        )
        assert store.dead_records <= live_records

    def summary(self) -> Dict[str, float]:
        """Occupancy counters merged into the pool's :meth:`summary`;
        rows and compactions are summed over layers (every layer's
        blocks hold a slice, and a pass rewrites them all)."""
        return {
            "arena_rows_live": float(
                sum(sum(slc.length) for slc in self.rows.values())
            ),
            "arena_rows_dead": float(self.dead_rows * self.num_layers),
            "arena_compactions": float(self.compactions * self.num_layers),
            "arena_capacity_bytes": self.store.storage_nbytes(),
        }


class ArenaCacheBackend:
    """One sequence's :class:`CacheBackend` view of a shared arena:
    ``append`` / ``read`` / ``nbytes`` / ``effective_bitwidth`` as
    row-slice operations on the owning :class:`KVArena`."""

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
        check_layer(layer, self.arena.num_layers)
        keys = as_rows(keys)
        values = as_rows(values)
        if keys.shape != values.shape:
            raise ValueError(
                f"key/value shape mismatch: {keys.shape} vs "
                f"{values.shape}"
            )
        held = self.arena.width
        if keys.shape[0] and held is not None and keys.shape[1] != held:
            raise ValueError(
                f"rows of width {keys.shape[1]}, but the arena holds "
                f"rows of width {held}"
            )
        self.arena.append_batch(layer, [(self.seq_id, keys, values)])

    def read(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        check_layer(layer, self.arena.num_layers)
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
