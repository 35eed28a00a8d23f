"""Structure-of-arrays KV arena: the pool's fused resident set as flat
buffers.

The chunked fused cache (:class:`~repro.core.kvcache.LayerKVCache`)
stores one immutable :class:`~repro.core.encoding.EncodedKV` per
append: that makes prefix sharing structural, but at serving batch
sizes every batched append allocates one chunk per sequence per tensor
and every batched read concatenates chunk lists field by field.

:class:`KVArena` removes the object traffic.  It owns one row table,
``seq_id -> (start, cap, generation, bits, elements, per-layer
length/decoded)``: a sequence's cache is the same contiguous row-slice
in every layer.  Behind the table is one preallocated
structure-of-arrays store for the whole cache, as the paper's MMU keeps
it in one address space behind one dense and one sparse table: its
row-parallel buffers carry a (layer, K|V) axis — dense codes ``[L, 2,
cap, D]``, per-token scale bounds ``[L, 2, cap]`` / ``[L, 2, cap, B]``
— over one append-only payload log of every layer's COO records,
addressed by per-row ``(pay_start, pay_len)``:

* ``append_batch`` is one fused encode (keys stacked over values)
  followed by one vectorized scatter of that ``[keys; values]`` stack,
  as it leaves the kernel, into the layer's blocks of the store — no
  per-sequence chunk allocation and no split back into tensors
  anywhere on the path.
* ``read_batch`` is one ragged gather of every requested sequence's
  undecoded ``[K rows; V rows]`` into a single lazily materialized
  chunk view (:func:`~repro.core.encoding.encoded_rows_view`), one
  stacked decode, and one scatter into the decoded-row mirror; reads
  then serve zero-copy row-slice views.
* ``free`` puts the sequence's region on the free list of its size
  class, where the next reservation of that class finds it: a stored
  row is written once and moved O(1) times.  Only when free-listed
  rows exceed a deterministic watermark fraction of the arena's row
  capacity does the arena compact — every slice slides front-to-back
  with the capacity it has, the payload log is rebuilt, and every
  sequence's ``generation`` is bumped.

Every geometry decision — a relocation, a growth, a compaction, a
fork's copy — is one operation on the one store, whatever the number
of layers.  Whether a layer's keys and values share a kernel call is
its :class:`~repro.core.quantizer.LayerEncoder`'s decision; a pair
that cannot goes through the same store methods one tensor at a time.

Bit-exactness is the design constraint, not a best-effort property:
the arena stores exactly the arrays :class:`EncodedKV` stores (float32
scale bounds, uint8 codes, the token-ordered COO stream), encode and
decode are row-local, and the fused kernels read scales through the
same float32 storage either way — so every read is bit-identical to
the chunked pool, looped or batched, tiered or untiered, including
after compaction and after ``fork`` (the pool's state machine,
``tests/test_pool_model.py``, checks every read against the one-shot
``roundtrip()`` of the rows).

Forks copy the parent's prefix rows into the child's slice: reads are
bit-identical to the chunk-aliasing COW fork, but no bytes are shared
(chunk identity, which sharing's refcounts need, does not exist here).
"""

from __future__ import annotations

from typing import (
    Collection, Dict, Hashable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.encoding import EncodedKV, encoded_rows_view
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
    every block of the serving loop is: ``np.atleast_2d`` per block
    per sequence is a measurable share of a batched append."""
    if type(block) is np.ndarray and block.ndim == 2:
        return block
    return np.atleast_2d(block)


def _pow2(n: int) -> int:
    """The smallest power of two that is at least ``n``."""
    return 1 << max(0, n - 1).bit_length()


def _ranges(starts, lens) -> np.ndarray:
    """``arange(s, s + n)`` for every ``(s, n)`` pair, concatenated.

    Given lists, ranges of one row each — a decode step's — are the
    starts themselves."""
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


class _Store:
    """The whole cache's rows: every layer's keys and values.

    Row-parallel buffers are ``[L, 2, cap, ...]`` — layer, K|V (0 keys,
    1 values), arena row — each also viewed flat as ``[L * 2 * cap,
    ...]``, block ``2 * layer + tensor`` after block.  A layer's
    ``[keys; values]`` stack, as the kernel emits it, is two adjacent
    blocks, so it scatters in, and gathers back out, as it is.  The
    payload log is one append-only record store for every block,
    addressed through ``pay_start``/``pay_len`` (records of one row are
    contiguous and token-ordered, records of different rows need not
    be adjacent — relocation moves row metadata, never payload; only
    :meth:`rebuild_log` rewrites the log).  Where rows live, and how
    many a block holds, is the arena's business: the store is told
    positions and a capacity, it keeps no geometry.
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

    def positions(
        self, layer: int, tensors: slice, idx: np.ndarray
    ) -> np.ndarray:
        """Rows ``idx`` of blocks ``2 * layer + tensors`` (a slice of
        the K|V axis, or from layer 0 of every layer's), as positions
        in the :attr:`flat` views, block by block."""
        cap = self.capacity
        first = (2 * layer + tensors.start) * cap
        last = first + (tensors.stop - tensors.start) * cap
        return np.concatenate([idx + at for at in range(first, last, cap)])

    def resize(
        self, capacity: int, old_at: np.ndarray, new_at: np.ndarray
    ) -> None:
        """Replace every row-parallel buffer by a fresh one of
        ``capacity`` rows a block, holding exactly the rows at the flat
        positions ``old_at`` (at the old capacity), now at ``new_at``.

        Each buffer's kept rows are gathered, and the buffer dropped,
        before its successor is allocated: a re-size holds one
        buffer's kept rows twice, never two whole buffers."""
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

    Built from the shared per-layer quantizers of a fused pool
    (harvested from one template backend, the same objects
    :func:`~repro.engine.backend.shared_backend_factory` shares), so
    every sequence's rows encode and decode through identical kernels
    and batched operations are always fusible; all of them share one
    config, as every layer's rows share the store's buffers.

    The arena owns all row geometry: one ``seq_id -> _RowSlice`` table,
    one ``tail``, one row ``capacity``, one free list per size class.
    A sequence occupies the same rows ``[start, start + cap)`` in every
    block of the store (how many a layer has written and decoded is per
    layer, so layers may be driven unevenly); growth, recycling and
    compaction are decided and applied once.  Live slices and free
    regions tile ``[0, tail)`` exactly.

    Both bounds on what is left dead are checked in ``free`` only —
    never on the append path, where a batch is half applied (its rows
    are reserved, not yet written): free-listed rows compact the arena
    when they reach :data:`_MIN_ROWS` and exceed
    :data:`_COMPACT_WATERMARK` of ``capacity``; dead payload records,
    which recycling alone would let pile up in the append-only log,
    get the log rebuilt when they outnumber the live ones.

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
        configs = [q.config for q in (*key_quantizers, *value_quantizers)]
        if any(config != configs[0] for config in configs):
            raise ValueError(
                "every layer's key and value quantizers must share one "
                "config (their rows share one set of buffers)"
            )
        #: One encoder per layer; the kernels stay per layer.
        self.encoders = [
            LayerEncoder(kq, vq)
            for kq, vq in zip(key_quantizers, value_quantizers)
        ]
        self.store = _Store(len(self.encoders))
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
        return len(self.encoders)

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

        Row-exact: encoded fields, payload records and any
        already-decoded mirror rows are duplicated, so the child's
        reads are bit-identical to an unshared sequence that appended
        the same rows (the adapter-fork contract class — no bytes are
        aliased, hence no byte savings and no refcounting): one gather
        and one write of the prefix in every block, charged as appended.
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
        every = slice(0, 2 * self.num_layers)
        src = store.positions(0, every, np.arange(prefix_len) + parent.start)
        dst = store.positions(0, every, np.arange(prefix_len) + slc.start)
        # Any quantizer labels the copy: all share the one config.
        chunk = store.gather(src, self.encoders[0].key_quantizer)
        self._charge([slc], [prefix_len], chunk, store.write(dst, chunk))
        store.flat["decoded"][dst] = store.flat["decoded"][src]
        slc.length = [prefix_len] * self.num_layers
        slc.decoded = [min(prefix_len, done) for done in parent.decoded]
        return child

    def free(self, seq_id: Hashable) -> None:
        """Recycle the sequence's region and bound what is left dead.

        The one quiescent point, so the only place either bound is
        checked: free-listed rows past the watermark compact the arena
        (rows and payload); otherwise, when the log's dead records
        outnumber its live ones, the log alone is rebuilt.
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
        slices = [self.rows[seq_id] for seq_id, _, _ in items]
        rows = [keys.shape[0] for _, keys, _ in items]
        if not any(rows):
            return 0
        # Look every slice up and encode before touching the row table:
        # an unknown id, or blocks of mixed widths (the encode cannot
        # stack them), must leave every sequence untouched.  The encode
        # is per token, so a batch of one width unlike the store's rows
        # passes it; the pool refuses that before calling here.
        parts = self.encoders[layer].encode_parts(
            [keys for _, keys, _ in items],
            [values for _, _, values in items],
        )
        # Where each item's rows go within its slice (a sequence named
        # twice keeps its items in order), then one reservation per
        # slice for its final length.  Lengths advance after the write.
        lengths: Dict[_RowSlice, int] = {}
        offsets = [0] * len(slices)
        for item, (slc, count) in enumerate(zip(slices, rows)):
            offset = lengths[slc] if slc in lengths else slc.length[layer]
            offsets[item] = offset
            lengths[slc] = offset + count
        for slc, length in lengths.items():
            if length > slc.cap:
                self._reserve(slc, length)
        idx = _ranges(
            [slc.start + offset for slc, offset in zip(slices, offsets)],
            rows,
        )
        store = self.store
        for tensors, encoded in parts:
            at = store.positions(layer, tensors, idx)
            self._charge(slices, rows, encoded, store.write(at, encoded))
        for slc, length in lengths.items():
            slc.length[layer] = length
        return len(parts)

    @staticmethod
    def _charge(
        slices: List[_RowSlice],
        rows: List[int],
        encoded: EncodedKV,
        lens: np.ndarray,
    ) -> None:
        """Charge every item its rows of ``encoded`` — one or more
        equal row blocks, each holding the items' ``rows`` in order —
        from the record count of every row the write just took: this
        is :meth:`EncodedKV.footprint_bits` item by item in closed
        form, so arena byte accounting is bit-identical to the chunked
        pool's."""
        config = encoded.config
        total = sum(rows)
        blocks = lens.size // total
        # Records per item row, summed over the blocks, then per item.
        per_row = lens[:total]
        for block in range(1, blocks):
            per_row = per_row + lens[block * total : (block + 1) * total]
        if rows.count(1) == len(rows):
            outliers = per_row.tolist()
        else:
            ends = [0] + per_row.cumsum().tolist()
            outliers = []
            first = 0
            for count in rows:
                outliers.append(ends[first + count] - ends[first])
                first += count
        token_bits = blocks * (
            encoded.dim * config.inlier_bits + config.token_metadata_bits
        )
        record_bits = config.sparse_record_bits
        token_elements = blocks * encoded.dim
        for slc, count, records in zip(slices, rows, outliers):
            slc.bits += count * token_bits + records * record_bits
            slc.elements += count * token_elements

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
        store = self.store
        slices = [self.rows[seq_id] for seq_id in seq_ids]
        pending = [
            slc for slc in slices if slc.decoded[layer] < slc.length[layer]
        ]
        if not pending:
            return 0
        idx = _ranges(
            [slc.start + slc.decoded[layer] for slc in pending],
            [slc.length[layer] - slc.decoded[layer] for slc in pending],
        )
        gathered = []

        def gather(tensors: slice, quantizer) -> EncodedKV:
            gathered.append(store.positions(layer, tensors, idx))
            return store.gather(gathered[-1], quantizer)

        decodes = self.encoders[layer].decode_parts(gather)
        mirror = store.flat["decoded"]
        for at, (_, block) in zip(gathered, decodes):
            mirror[at] = block
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
        view = self.store.readable[layer, :, slc.start : slc.start + length]
        return view[0], view[1]

    def read_batch(
        self, layer: int, seq_ids: Sequence[Hashable]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`read` of every listed sequence, in order, for a caller
        that has run :meth:`decode_pending` on them: this serves the
        decoded mirror as it stands and decodes nothing."""
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

    def check_invariants(self) -> None:
        """Assert the allocator's geometry and the running footprints.

        Every live capacity is 0 or a size class; live slices and free
        regions tile the extent exactly (``dead_rows`` is the rows on
        the free lists); every layer's ``decoded <= length <= cap``;
        the payload log is the live records plus the counted dead ones,
        never more dead than live; and each slice's ``(bits,
        elements)`` is :meth:`EncodedKV.footprint_bits` of a chunk view
        of its written rows — the walk the accumulators replaced.
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
            written = self._written([slc])
            bits = elements = 0
            if written.size:
                view = store.gather(written, self.encoders[0].key_quantizer)
                bits, elements = view.footprint_bits()
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
        """Occupancy counters merged into the pool's :meth:`summary`.

        Rows and compactions keep their per-layer unit (every layer's
        blocks hold the slice, and a pass rewrites them all), so the
        row counts and ``arena_compactions`` are summed over layers.
        """
        return {
            "arena_rows_live": float(
                sum(sum(slc.length) for slc in self.rows.values())
            ),
            "arena_rows_dead": float(self.dead_rows * self.num_layers),
            "arena_compactions": float(self.compactions * self.num_layers),
            "arena_capacity_bytes": self.store.storage_nbytes(),
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
