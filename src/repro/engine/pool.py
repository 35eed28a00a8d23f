"""Multi-sequence cache arena with batched reads, batched appends and
footprint reporting.

A :class:`KVCachePool` owns one
:class:`~repro.engine.backend.CacheBackend` per live request id,
allocated from a factory (usually
:func:`~repro.engine.backend.shared_backend_factory`, so all sequences
share the offline-fitted per-layer quantizers, as a real serving
system would).  Both hot directions of the serving loop are batched
across the resident set:

``read_batch`` extends the memoized reads *across* sequences: at every
generation iteration each resident sequence has a handful of newly
appended, not-yet-decoded chunks; instead of decoding them with one
kernel call per sequence, the pool hands all requested sequences'
layer caches to the chunk store's one read path
(:func:`repro.core.kvcache.decode_pending`), which merges their pending
chunks — every sequence's key chunks over every sequence's value
chunks — and decodes the whole batch in a single fused pass (decode is
row-local, so this is bit-identical to the per-sequence loop — the
conformance tests assert it).  At single-token decode granularity this
turns ``B`` tiny [2, D] kernel launches per layer into one [2B, D]
launch.

``append_batch`` is the write-side mirror, through the chunk store's
one write path (:func:`repro.core.kvcache.append_batch`): the freshly
generated rows of all updated sequences are gathered into one matrix —
every sequence's key rows stacked over every sequence's value rows —
encoded with a single fused quantize pass, and the resulting chunks
are scattered back to each sequence's cache.  The encode is row-local
(per-token scales, token-ordered COO records), so the scattered chunks
are bit-for-bit what a per-sequence ``append`` loop would have stored.
Adapter pools store the exact rows on append; holding row-local
registry methods, they batch the quantize on the read side, through
one merged ``roundtrip_batch`` per tensor across the resident set.

``step`` is the serving loop's unit: one token's rows on every layer,
checked and priced against the byte budget once, then one
``append_batch`` / ``read_batch`` pair per layer — so a refused step
leaves every layer of every sequence as it was.

Pool-wide footprint (current and peak encoded bytes, measured
effective bitwidth) feeds the serving simulator's admission control in
cache-replay mode, replacing the analytic capacity estimate.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core import kvcache
from repro.core.kvcache import LayerKVCache, QuantizedKVCache
from repro.engine.arena import KVArena, as_rows
from repro.engine.backend import (
    BaselineCacheBackend,
    CacheBackend,
    _BaselineStream,
)
from repro.engine.errors import CacheCapacityError
from repro.engine.sharing import SharedChunkRegistry
from repro.engine.tiering import TieredKVStore

#: One sequence's new rows for :meth:`KVCachePool.append_batch`:
#: either a mapping ``{seq_id: (keys, values)}`` or an iterable of
#: ``(seq_id, keys, values)`` triples.
BatchUpdates = Union[
    Mapping[Hashable, Tuple[np.ndarray, np.ndarray]],
    Iterable[Tuple[Hashable, np.ndarray, np.ndarray]],
]

#: One step's rows for :meth:`KVCachePool.step`: ``(seq_id, keys,
#: values)`` triples, ``keys`` and ``values`` holding one [t, D] block
#: per layer.
StepUpdates = Iterable[Tuple[Hashable, Sequence, Sequence]]


class _StagedLayer(list):
    """One layer's ``(seq_id, cache, keys, values)`` entries of a
    transaction that :meth:`KVCachePool._stage` has checked and priced:
    what :meth:`KVCachePool.append_batch` stores without checking
    again."""


class KVCachePool:
    """Per-request cache arena with batched multi-sequence reads and
    appends.

    Args:
        backend_factory: zero-argument callable producing a fresh
            :class:`CacheBackend` per allocated sequence.
        capacity_bytes: optional encoded-byte budget: an append or a
            :meth:`step` whose tokens :meth:`would_fit` refuses raises
            :class:`~repro.engine.errors.CacheCapacityError`; ``None``
            means unbounded.  With ``tiering`` set it bounds the *total*
            (device + host) footprint; the device tier's own budget
            lives on the store.
        tiering: optional :class:`~repro.engine.tiering.TieredKVStore`
            modeling where each sequence's encoded pages reside.  The
            pool notifies it of every append (byte growth), read
            (recency touches, spilled-page promotion) and free; cold
            pages spill to host instead of the append being refused —
            the evict-and-spill alternative to the
            :class:`~repro.engine.errors.CacheCapacityError` reject
            path.  Placement never changes decoded values: reads are
            bit-identical with or without a store attached.
        arena: opt into the structure-of-arrays resident set
            (:class:`~repro.engine.arena.KVArena`).  Applies only to
            fused pools (the factory yields
            :class:`~repro.core.kvcache.QuantizedKVCache` backends):
            one template backend is built to harvest the shared
            per-layer quantizers, and every sequence then lives as a
            row-slice in flat per-layer buffers — no per-chunk objects
            on the hot path, reads bit-identical to the chunked pool.
            Arena forks copy prefix rows (the adapter-fork contract:
            bit-exact reads, no byte sharing), so the COW registry is
            bypassed.  For adapter (registry-baseline) pools the flag
            is a structural no-op: their flat ``_BaselineStream``
            buffers already are an arena.
    """

    def __init__(
        self,
        backend_factory: Callable[[], CacheBackend],
        capacity_bytes: Optional[float] = None,
        tiering: Optional[TieredKVStore] = None,
        arena: bool = False,
    ):
        self._factory = backend_factory
        self._caches: Dict[Hashable, CacheBackend] = {}
        self._arena: Optional[KVArena] = None
        if arena:
            template = backend_factory()
            if isinstance(template, QuantizedKVCache):
                self._arena = KVArena(
                    [lc.key_quantizer for lc in template.layers],
                    [lc.value_quantizer for lc in template.layers],
                )
        self.capacity_bytes = capacity_bytes
        self.tiering = tiering
        self._tier_seen: Dict[Hashable, float] = {}
        self._sharing = SharedChunkRegistry()
        self.forks = 0
        self._peak_bytes = 0.0
        self.batched_decodes = 0
        self.batched_encodes = 0
        self.batched_roundtrips = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    @property
    def arena_enabled(self) -> bool:
        """Whether the structure-of-arrays resident set is active."""
        return self._arena is not None

    def allocate(self, seq_id: Hashable) -> CacheBackend:
        """Create a fresh cache for ``seq_id``."""
        if seq_id in self._caches:
            raise ValueError(f"sequence {seq_id!r} already allocated")
        if self._arena is not None:
            backend: CacheBackend = self._arena.allocate(seq_id)
        else:
            backend = self._factory()
        self._caches[seq_id] = backend
        return backend

    def fork(
        self,
        parent_seq_id: Hashable,
        new_seq_id: Hashable,
        prefix_len: int,
    ) -> CacheBackend:
        """Fork ``new_seq_id`` from a committed prefix of the parent.

        The child shares the parent's first ``prefix_len`` rows by
        **aliasing the encoded chunk objects** covering them (splitting
        the boundary chunk in place first, a bit-exact rewrite) — no
        bytes are copied and, because the pool's accounting charges
        every shared chunk once, no new footprint is added.  Chunks are
        immutable and appends only extend the lists, so parent and
        child diverge copy-on-write at their first post-fork appends;
        shared chunks are freed only when the last holder is freed.

        Contract: the child's :meth:`read` is bit-identical to an
        unshared sequence that appended the same rows — for every
        registry method, with and without tiering, under looped and
        batched paths (the state machine in
        ``tests/test_pool_model.py`` checks every read against the
        one-shot ``roundtrip()`` of the rows to pin this).  One
        exception to "a fork adds zero bytes": a boundary inside a
        chunk that is already shared re-splits only the parent's list,
        so the other holders keep the old chunk and the fork adds that
        piece's bytes.

        Chunk aliasing requires a fused (:class:`QuantizedKVCache`)
        pool sharing fitted quantizers — a
        :func:`~repro.engine.backend.shared_backend_factory` pool.
        Adapter pools (registry baselines) fork by copying the exact
        prefix rows instead: reads are identically bit-exact, but no
        bytes are saved (their storage model has no shareable unit).

        Args:
            parent_seq_id: live sequence to fork from.
            new_seq_id: id for the child (must not be allocated).
            prefix_len: rows of committed history to share; must not
                exceed the rows every layer of the parent holds.

        Returns:
            The child's backend.

        Raises:
            KeyError: the parent is not allocated.
            ValueError: the child is already allocated, or
                ``prefix_len`` is out of range; the pool is untouched.
        """
        if parent_seq_id not in self._caches:
            raise KeyError(
                f"unknown sequence {parent_seq_id!r}; cannot fork "
                "from a sequence that is not allocated"
            )
        if new_seq_id in self._caches:
            raise ValueError(
                f"sequence {new_seq_id!r} already allocated"
            )
        parent = self._caches[parent_seq_id]
        prefix_len = int(prefix_len)
        # Layers stand uneven between one layer's append and the next;
        # a fork past the shortest would fail after splitting the others
        # (the arena checks its own layers).
        held = parent.length
        if isinstance(parent, QuantizedKVCache):
            held = min(layer.length for layer in parent.layers)
        elif isinstance(parent, BaselineCacheBackend):
            held = min(stream.length for stream in parent._keys)
        if prefix_len < 0 or prefix_len > held:
            raise ValueError(
                f"prefix_len {prefix_len} outside the rows every layer "
                f"of parent {parent_seq_id!r} holds ({held})"
            )
        aliased = False
        if self._arena is not None:
            # Arena forks copy the prefix rows (bit-exact reads, no
            # byte aliasing — the adapter contract class), so the COW
            # registry stays out of the loop entirely.
            child: CacheBackend = self._arena.fork(
                parent_seq_id, new_seq_id, prefix_len
            )
        else:
            child = self._factory()
            if isinstance(parent, QuantizedKVCache) and isinstance(
                child, QuantizedKVCache
            ):
                self._fork_fused(
                    parent_seq_id, parent, new_seq_id, child, prefix_len
                )
                aliased = True
            elif isinstance(parent, BaselineCacheBackend) and isinstance(
                child, BaselineCacheBackend
            ):
                self._fork_adapter(parent, child, prefix_len)
            else:
                raise TypeError(
                    "fork supports fused (QuantizedKVCache) and adapter "
                    "(BaselineCacheBackend) pools, got "
                    f"{type(parent).__name__}"
                )
        self._caches[new_seq_id] = child
        self.forks += 1
        if self.tiering is None:
            return child
        if aliased:
            # The shared prefix already resides in the owner's pages;
            # seed the child's watermark so only divergent growth is
            # charged, and touch the owner's pages so a fresh fork
            # finds its prefix hot.
            self._tier_seen[new_seq_id] = float(child.nbytes())
            for layer in range(parent.num_layers):
                if self._sharing.shared_owners(new_seq_id, layer):
                    self.tiering.record_read(parent_seq_id, layer)
        else:
            # A copied prefix is new storage no page accounts for yet:
            # charge it like the append it is (a fork covers every
            # layer at once; the bytes go to the child's first stream).
            self._tier_record_append(new_seq_id, 0)
        return child

    def _fork_fused(
        self,
        parent_seq_id: Hashable,
        parent: QuantizedKVCache,
        new_seq_id: Hashable,
        child: QuantizedKVCache,
        prefix_len: int,
    ) -> None:
        """Alias the committed prefix chunks into the child's layers."""
        for layer_index, (parent_layer, child_layer) in enumerate(
            zip(parent.layers, child.layers)
        ):
            if (
                child_layer.key_quantizer
                is not parent_layer.key_quantizer
                or child_layer.value_quantizer
                is not parent_layer.value_quantizer
            ):
                raise ValueError(
                    "fork requires sequences sharing fitted "
                    "quantizers; build the pool with "
                    "shared_backend_factory"
                )
            count, replaced = parent_layer.split_chunk_boundary(prefix_len)
            for old in (chunk for pair in replaced for chunk in pair):
                for transfer in self._sharing.on_replace(parent_seq_id, old):
                    self._tier_transfer(transfer)
            child_layer.adopt_prefix(
                parent_layer._key_chunks[:count],
                parent_layer._value_chunks[:count],
                prefix_len,
            )
            for key_chunk, value_chunk in zip(
                child_layer._key_chunks, child_layer._value_chunks
            ):
                self._sharing.share(
                    key_chunk, layer_index, parent_seq_id, new_seq_id
                )
                self._sharing.share(
                    value_chunk, layer_index, parent_seq_id, new_seq_id
                )

    @staticmethod
    def _fork_adapter(
        parent: BaselineCacheBackend,
        child: BaselineCacheBackend,
        prefix_len: int,
    ) -> None:
        """Copy the exact prefix rows into the child's streams.

        Adapter storage is the exact accumulated history (quantization
        happens at read time), so copying the first ``prefix_len``
        rows reproduces an unshared twin bit-for-bit — including
        history-global methods, whose reads depend only on the exact
        rows.
        """
        if prefix_len == 0:
            return
        for layer in range(parent.num_layers):
            parent_keys, parent_values = parent.layer_streams(layer)
            child_keys, child_values = child.layer_streams(layer)
            child_keys.append(parent_keys.matrix()[:prefix_len])
            child_values.append(parent_values.matrix()[:prefix_len])

    def _tier_transfer(self, transfer) -> None:
        """Re-home transferred shared bytes in the tiered store."""
        if self.tiering is None:
            return
        new_owner, layer, nbytes = transfer
        self.tiering.record_append(new_owner, layer, nbytes)

    def free(self, seq_id: Hashable) -> bool:
        """Retire ``seq_id`` and release its cache (and its pages).

        Shared chunks the sequence holds are dereferenced, not
        destroyed: their storage survives until the last holder is
        freed (and, under tiering, their pages are re-homed to a
        surviving holder when the freed sequence owned them).

        Returns:
            ``True`` when any storage bytes were actually released;
            ``False`` when everything the sequence held survives
            through forked holders (or the cache was empty).

        Raises:
            KeyError: ``seq_id`` is not allocated — including the
                double-free case, where it was already freed.
        """
        if seq_id not in self._caches:
            raise KeyError(
                f"cannot free sequence {seq_id!r}: not allocated "
                "(double free, or never allocated)"
            )
        cache = self._caches.pop(seq_id)
        # Read the footprint before the arena recycles the rows
        # (freeing may trigger deterministic compaction).
        held = cache.nbytes()
        if self._arena is not None:
            self._arena.free(seq_id)
        retained, transfers = self._sharing.release_seq(seq_id)
        if self.tiering is not None:
            # Drop the freed sequence's pages first, then re-home the
            # surviving shared bytes, so the migration never doubles
            # transient device pressure.
            self.tiering.release(seq_id)
            self._tier_seen.pop(seq_id, None)
        for transfer in transfers:
            self._tier_transfer(transfer)
        return held - retained > 0.0

    def get(self, seq_id: Hashable) -> CacheBackend:
        """The backend owning ``seq_id``'s cache."""
        return self._caches[seq_id]

    def __contains__(self, seq_id: Hashable) -> bool:
        return seq_id in self._caches

    def __len__(self) -> int:
        return len(self._caches)

    @property
    def seq_ids(self) -> List[Hashable]:
        """Live sequence ids, in allocation order."""
        return list(self._caches)

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------

    def _tier_record_append(self, seq_id: Hashable, layer: int) -> None:
        """Push a sequence's encoded-byte growth into the tiered store.

        The store models placement, not payloads, so growth is observed
        as the delta of the cache's footprint against the watermark
        ``_tier_seen`` — an O(1) read of the store's running totals
        (:meth:`CacheBackend.footprint_bits`), not a walk of the
        history.  Charged to the layer that grew; eviction pressure is
        pool-global either way.  Pages hold whole bytes, so the charge
        is the growth of the *floored* footprint: fractions carry over
        to the next append instead of being dropped.
        """
        if self.tiering is None:
            return
        nbytes = self._caches[seq_id].nbytes()
        delta = math.floor(nbytes) - math.floor(
            self._tier_seen.get(seq_id, 0.0)
        )
        if delta > 0:
            self.tiering.record_append(seq_id, layer, delta)
        self._tier_seen[seq_id] = nbytes

    def append(
        self,
        seq_id: Hashable,
        layer: int,
        keys: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append new KV rows to one sequence's layer cache:
        :meth:`append_batch` with a batch of one, through the same
        checks before anything is stored.

        Raises:
            CacheCapacityError, ValueError, KeyError: as
                :meth:`append_batch`; nothing is appended.
        """
        [entries] = self._stage([layer], [(seq_id, (keys,), (values,))])
        self._store(layer, entries)

    def _tier_record_read(self, seq_id: Hashable, layer: int) -> None:
        """Touch a read's pages — including shared-prefix pages.

        A forked sequence's prefix bytes live in the *owner's* pages,
        so reading through any holder must also touch the owner's
        stream: shared pages stay as hot as their hottest holder and
        are never evicted out from under a fork (and spilled shared
        pages promote back on any holder's read).
        """
        if self.tiering is None:
            return
        self.tiering.record_read(seq_id, layer)
        for owner in self._sharing.shared_owners(seq_id, layer):
            if owner in self._caches:
                self.tiering.record_read(owner, layer)

    def read(
        self, seq_id: Hashable, layer: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One sequence's dequantized (keys, values) history."""
        self._tier_record_read(seq_id, layer)
        return self._caches[seq_id].read(layer)

    def append_batch(self, layer: int, updates: BatchUpdates) -> None:
        """Append new KV rows to many sequences, one fused encode.

        The write-side counterpart of :meth:`read_batch` and the
        one-layer case of :meth:`step`: all updated sequences' new
        [t, D] rows are gathered into one matrix (key rows over value
        rows), quantized in a single fused pass (counted in
        :attr:`batched_encodes`), and the encoded chunks are scattered
        back to each sequence's layer cache — bit-for-bit identical to
        calling :meth:`append` once per sequence, in ``updates`` order.
        At single-token decode granularity this turns ``2 * B`` tiny
        [1, D] encodes per layer into one [2B, D] encode (keys stacked
        over values).

        One branch per store: the arena, the chunk store (caches
        sharing this layer's fitted quantizers, a
        :func:`~repro.engine.backend.shared_backend_factory` pool —
        one sequence or many, the same kernel call), and a
        per-sequence loop for everything else.  Only batches of two or
        more items count as batched encodes.  Sequences updating with
        zero rows are skipped entirely (no empty chunk is stored).
        Adapter caches store the exact rows; the quantize happens on
        the read side (:meth:`read_batch`).

        Args:
            layer: decoder layer index.
            updates: ``{seq_id: (keys, values)}`` mapping or iterable
                of ``(seq_id, keys, values)`` triples; ``keys`` and
                ``values`` are same-shape [t, D] row blocks, all of one
                width.  (:meth:`step` hands each of its layers back
                through here already checked and priced, so every store
                of a step runs under this method's name.)

        Raises:
            CacheCapacityError: the pool has a ``capacity_bytes``
                budget and the batch's projected footprint would
                exceed it.
            ValueError: a key/value shape mismatch, or rows whose
                width differs from the batch's or from the rows the
                sequence's store already holds.
            KeyError: an unknown sequence.

        Whatever the error, no sequence is mutated.
        """
        if not isinstance(updates, _StagedLayer):
            if isinstance(updates, Mapping):
                items = [(s, (k,), (v,)) for s, (k, v) in updates.items()]
            else:
                items = [(s, (k,), (v,)) for s, k, v in updates]
            [updates] = self._stage([layer], items)
        self._store(layer, updates)

    def step(self, updates: StepUpdates, read: bool = True) -> None:
        """Append one step's rows on every layer, as one transaction.

        Every generated token is written on every decoder layer, so the
        unit a KV budget admits or refuses is a token across all layers.
        The step checks every id, shape and width on every layer and
        projects its tokens against ``capacity_bytes`` once, before any
        layer changes.  Then each layer in turn stores its rows with one
        kernel call (through :meth:`append_batch`) and, with ``read``
        set, decodes the sequences it stored to (through
        :meth:`read_batch`), as attention reads a layer's history before
        the next layer's rows are written.  A refused step leaves every
        layer of every sequence as it was; an accepted one is
        bit-identical to the same per-layer ``append_batch`` /
        ``read_batch`` pairs.  Nothing is returned: a read is a view
        that a later layer's append may relocate, so the histories are
        for :meth:`read` / :meth:`read_batch` afterwards, served from
        the memo the step brought current.

        Args:
            updates: ``(seq_id, keys, values)`` triples; ``keys`` and
                ``values`` hold one [t, D] block per layer, layers
                ``0 .. L-1`` in order (a list of blocks or an
                [L, t, D] array).  ``t`` may differ between sequences
                but not between one sequence's layers: a token is
                stored on every layer the step covers.
            read: read each layer straight after storing it (a decode
                step); ``False`` only stores (a prompt admission).

        Raises:
            CacheCapacityError, ValueError, KeyError: as
                :meth:`append_batch`, on any layer; also ``ValueError``
                when one sequence's layers hold different row counts or
                the triples disagree on the number of layers.  Nothing
                is appended.
        """
        items = list(updates)
        layers = range(len(items[0][1]) if items else 0)
        staged = self._stage(layers, items)
        stored: List[Hashable] = []
        if read and staged:
            # A sequence stores rows on every layer or on none, so each
            # layer reads the same sequences back.
            stored = list(dict.fromkeys([seq for seq, *_ in staged[0]]))
        for layer, entries in zip(layers, staged):
            self.append_batch(layer, entries)
            if read:
                self.read_batch(layer, stored)

    def _stage(
        self,
        layers: Sequence[int],
        items: List[Tuple[Hashable, Sequence, Sequence]],
    ) -> List[_StagedLayer]:
        """The one check of :meth:`append`, :meth:`append_batch` and
        :meth:`step`, made before the first mutation: every id, shape
        and width on every layer, then one capacity projection for the
        whole transaction.  ``items`` give one key and one value block
        per entry of ``layers``.  Returns each layer's entries with
        zero-row blocks dropped.

        Capacity is priced in tokens: each item's rows count once, on
        however many layers the call covers, at the pool's measured
        bytes per (all-layer) token.  So a step of ``B`` one-row
        sequences projects ``B`` tokens, and so does one layer's
        ``append_batch`` of the same rows.
        """
        count = len(layers)
        # Per layer: the batch's width, set by its first non-empty
        # block, and — on the arena, whose one store holds every
        # layer's rows at one width — the width the store already holds.
        widths: List[Optional[int]] = [None] * count
        held = None
        if self._arena is not None:
            held = [self._arena.width] * count
        checked = []
        first_seq: Optional[Hashable] = None
        tokens = 0
        for seq_id, keys, values in items:
            cache = self._caches[seq_id]
            if len(keys) != count or len(values) != count:
                raise ValueError(
                    f"sequence {seq_id!r}: {len(keys)} key and "
                    f"{len(values)} value blocks for {count} layers"
                )
            rows = None
            for i, layer in enumerate(layers):
                layer_keys = keys[i]
                layer_values = values[i]
                if not (
                    type(layer_keys) is np.ndarray and layer_keys.ndim == 2
                    and type(layer_values) is np.ndarray
                    and layer_values.ndim == 2
                ):
                    keys = [as_rows(block) for block in keys]
                    values = [as_rows(block) for block in values]
                    layer_keys = keys[i]
                    layer_values = values[i]
                shape = layer_keys.shape
                if shape != layer_values.shape:
                    raise ValueError(
                        f"key/value shape mismatch for sequence "
                        f"{seq_id!r}: {shape} vs {layer_values.shape}"
                    )
                if rows is None:
                    rows = shape[0]
                elif shape[0] != rows:
                    raise ValueError(
                        f"sequence {seq_id!r}: {shape[0]} rows "
                        f"on layer {layer} but {rows} on layer {layers[0]}"
                        "; a step stores its tokens on every layer"
                    )
                if not rows:
                    continue
                width = widths[i]
                if width is None:
                    width = widths[i] = shape[1]
                elif shape[1] != width:
                    raise ValueError(
                        f"sequence {seq_id!r}: rows of width "
                        f"{shape[1]} in a batch of width {width}"
                    )
                have = (
                    held[i] if held is not None
                    else self._held_width(cache, layer)
                )
                if have is not None and have != width:
                    raise ValueError(
                        f"sequence {seq_id!r}: rows of width {width}, but "
                        f"its layer {layer} cache holds rows of width "
                        f"{have}"
                    )
            if rows:
                checked.append((seq_id, cache, keys, values))
                tokens += rows
                if first_seq is None:
                    first_seq = seq_id
        if held is not None and len(set(widths) - {None}) > 1:
            raise ValueError(
                f"layers of widths {widths}: the arena holds one width"
            )
        if tokens:
            overrun = self._overrun(tokens)
            if overrun is not None:
                raise CacheCapacityError(
                    first_seq, *overrun, self.capacity_bytes
                )
        return [
            _StagedLayer(
                [(seq, cache, keys[i], values[i])
                 for seq, cache, keys, values in checked]
            )
            for i in range(count)
        ]

    def _store(self, layer: int, entries: _StagedLayer) -> None:
        """Store one layer's checked entries: one kernel call per
        store, then the tiered store's notifications.  (:meth:`append`
        stores through here, not through :meth:`append_batch`, so a
        call to either counts once, under its own name, for anything
        wrapping the public methods.)"""
        kernel_calls = 0
        if not entries:
            pass
        elif self._arena is not None:
            kernel_calls = self._arena.append_batch(
                layer,
                [(seq, keys, values) for seq, _, keys, values in entries],
            )
        else:
            layers = self._fusible_layers(
                [cache for _, cache, _, _ in entries], layer
            )
            if layers is not None:
                kernel_calls = kvcache.append_batch(
                    layers,
                    [keys for _, _, keys, _ in entries],
                    [values for _, _, _, values in entries],
                )
            else:
                for _, cache, keys, values in entries:
                    cache.append(layer, keys, values)
        if len(entries) >= 2:
            self.batched_encodes += kernel_calls
        if self.tiering is not None:
            for seq_id in dict.fromkeys(seq for seq, _, _, _ in entries):
                self._tier_record_append(seq_id, layer)

    def read_batch(
        self, layer: int, seq_ids: List[Hashable]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Dequantized histories of many sequences, one fused decode.

        Returns ``[(keys, values), ...]`` in ``seq_ids`` order,
        bit-identical to calling :meth:`read` per sequence.  When the
        sequences are fused-kernel caches sharing per-layer quantizers
        (a :func:`~repro.engine.backend.shared_backend_factory` pool),
        all pending chunks decode in one merged kernel call — every
        sequence's key rows over every sequence's value rows; one call
        per tensor when the layer's quantizers do not stack
        (:attr:`batched_decodes` counts the calls made).  Adapter
        caches batch too, when the method permits:
        row-local registry methods (fp16/oaken/qserve/atom/tender)
        sharing fitted quantizers roundtrip every sequence's pending
        suffix in one merged [sum t_i, D] transform per tensor.
        History-global methods (kivi, kvquant) and mixed pools fall
        back to the per-sequence loop.
        """
        caches = [self._caches[s] for s in seq_ids]
        if self.tiering is not None:
            for seq_id in dict.fromkeys(seq_ids):
                self._tier_record_read(seq_id, layer)
        # Duplicate ids map to the same cache; decode each cache's
        # pending chunks exactly once (committing twice would corrupt
        # the memoized prefix), then serve reads in request order.
        unique = list(dict.fromkeys(caches))
        if self._arena is not None:
            kernel_calls = self._arena.decode_pending(
                layer, [cache.seq_id for cache in unique]
            )
            if len(unique) >= 2:
                self.batched_decodes += kernel_calls
            return self._arena.read_batch(layer, seq_ids)
        if len(unique) >= 2:
            fusible = self._fusible_layers(unique, layer)
            if fusible is not None:
                self.batched_decodes += kvcache.decode_pending(fusible)
            else:
                adapter = self._batchable_adapter_streams(unique, layer)
                for streams in adapter or ():
                    self._roundtrip_pending_batch(streams)
        return [cache.read(layer) for cache in caches]

    def _held_width(self, cache: CacheBackend, layer: int) -> Optional[int]:
        """Width of the rows ``cache``'s store already holds on
        ``layer`` (``None`` before the first): the encode is per token,
        so a batch of one consistent width passes it whatever that is."""
        if isinstance(cache, QuantizedKVCache):
            chunks = cache.layers[layer]._key_chunks
            return chunks[0].dim if chunks else None
        if isinstance(cache, BaselineCacheBackend):
            return cache.layer_streams(layer)[0].width
        return None

    def _batchable_adapter_streams(
        self, caches: List[CacheBackend], layer: int
    ) -> Optional[Tuple[List[_BaselineStream], List[_BaselineStream]]]:
        """Adapter streams eligible for one merged roundtrip per tensor.

        Mirrors :meth:`_fusible_layers` for
        :class:`~repro.engine.backend.BaselineCacheBackend` caches:
        batching is sound only for *row-local* methods (a row's
        roundtrip depends on that row alone, so concatenating many
        sequences' pending rows into one [sum t_i, D] transform is
        bit-identical to per-sequence calls) sharing one fitted
        quantizer per tensor (a shared-factory pool).  KIVI's sliding
        window and KVQuant's online topK are history-global and fall
        back to the per-sequence loop.
        """
        key_streams: List[_BaselineStream] = []
        value_streams: List[_BaselineStream] = []
        for cache in caches:
            if not isinstance(cache, BaselineCacheBackend):
                return None
            keys, values = cache.layer_streams(layer)
            key_streams.append(keys)
            value_streams.append(values)
        for streams in (key_streams, value_streams):
            first = streams[0].quantizer
            if not first.row_local:
                return None
            for stream in streams:
                if stream.quantizer is not first:
                    return None
        return key_streams, value_streams

    def _roundtrip_pending_batch(
        self, streams: List[_BaselineStream]
    ) -> None:
        """One tensor's pending suffixes through a single roundtrip
        (counted in :attr:`batched_roundtrips`)."""
        work = []
        for stream in streams:
            if not stream.needs_decode:
                continue
            stable, suffix = stream.pending()
            work.append((stream, stable, suffix))
        if len(work) < 2:
            return  # nothing to merge; lazy per-sequence reads suffice
        quantizer = work[0][0].quantizer
        chunks = quantizer.roundtrip_batch(
            [suffix for _, _, suffix in work]
        )
        self.batched_roundtrips += 1
        for (stream, stable, _), chunk in zip(work, chunks):
            chunk = np.asarray(chunk, dtype=np.float32)
            if stable == 0 and chunk.base is not None:
                # A bare slice would become the stream's decode memo as
                # a view, pinning the whole merged tensor per stream;
                # the stable > 0 path copies inside commit_decoded's
                # concatenate already.
                chunk = chunk.copy()
            stream.commit_decoded(chunk, stable)

    def _fusible_layers(
        self, caches: List[CacheBackend], layer: int
    ) -> Optional[List[LayerKVCache]]:
        """Per-sequence layer caches eligible for one merged kernel
        pass, either way: chunk-store caches sharing this layer's
        fitted quantizers."""
        layers: List[LayerKVCache] = []
        for cache in caches:
            if not isinstance(cache, QuantizedKVCache):
                return None
            layers.append(cache.layers[layer])
        first = layers[0]
        for other in layers[1:]:
            if (
                other.key_quantizer is not first.key_quantizer
                or other.value_quantizer is not first.value_quantizer
            ):
                return None
        return layers

    # ------------------------------------------------------------------
    # footprint / admission control
    # ------------------------------------------------------------------

    def measure(self) -> Tuple[float, float]:
        """One-pass ``(bytes, effective_bitwidth)`` over live sequences.

        The effective bitwidth is the *measured* counterpart of the
        serving simulator's analytic ``system.kv_bits`` estimate: it
        reflects the actual outlier rates of the data streaming
        through the caches (storage-weighted across sequences; 0.0
        while the pool is empty).  Also refreshes the peak-bytes
        high-water mark — the only place it moves.

        Cost: one :meth:`CacheBackend.footprint_bits` read per live
        sequence plus one registry total.  The fused stores maintain
        those as running exact integers on every mutation, so a poll
        is O(live sequences) whatever the cached history's length.
        """
        total = 0.0
        bits = 0.0
        elements = 0.0
        for cache in self._caches.values():
            cache_bits, cache_elements = cache.footprint_bits()
            nbytes = cache_bits / 8.0
            total += nbytes
            ebw = cache_bits / cache_elements if cache_elements else 0.0
            if ebw > 0.0:
                bits += nbytes * 8.0
                elements += nbytes * 8.0 / ebw
        # Chunks aliased across forked sequences were summed once per
        # holder above; subtract the overcount so shared bytes are
        # charged exactly once pool-wide (the admission-control number).
        total -= self._sharing.extra_bytes()
        if total > self._peak_bytes:
            self._peak_bytes = total
        return total, (bits / elements if elements else 0.0)

    def nbytes(self) -> float:
        """Current encoded bytes across all live sequences."""
        return self.measure()[0]

    @property
    def peak_bytes(self) -> float:
        """High-water encoded footprint observed by :meth:`measure`."""
        self.measure()
        return self._peak_bytes

    def check_invariants(self) -> None:
        """Assert the running accounting against a recomputation.

        Test support: walks every live sequence's chunks / arena rows
        and every registry entry — the O(history) scans the running
        totals replaced — and asserts the totals equal them exactly;
        that the registry tracks exactly the chunk objects two or more
        live caches list, each held by exactly those caches; for
        tiered pools, also that each sequence's tier watermark equals
        its footprint (every append was observed) and the store's own
        frame table
        (:meth:`~repro.engine.tiering.TieredKVStore.check_invariants`).
        Leaves the pool, including the peak, untouched.
        """
        if self._arena is not None:
            assert set(self._arena.rows) == set(self._caches)
            self._arena.check_invariants()
            assert len(self._sharing) == 0, "arena pools never alias"
        else:
            # id(chunk) -> [chunk, *the live caches listing it]
            listed: Dict[int, list] = {}
            for seq_id, cache in self._caches.items():
                if not isinstance(cache, QuantizedKVCache):
                    continue
                for layer in cache.layers:
                    layer.check_invariants()
                    for chunk in layer._key_chunks + layer._value_chunks:
                        listed.setdefault(id(chunk), [chunk]).append(seq_id)
            shared = [held for held in listed.values() if len(held) > 2]
            for chunk, *holders in shared:
                assert set(self._sharing.holders_of(chunk)) == set(holders), (
                    f"registry holders {self._sharing.holders_of(chunk)} "
                    f"!= the caches listing the chunk {holders}"
                )
            assert len(self._sharing) == len(shared), (
                f"{len(self._sharing)} registry entries for "
                f"{len(shared)} chunks listed by two or more caches"
            )
        self._sharing.check_invariants()
        if self.tiering is not None:
            for seq_id, cache in self._caches.items():
                seen = self._tier_seen.get(seq_id, 0.0)
                assert seen == cache.nbytes(), (
                    f"sequence {seq_id!r}: tier watermark {seen} != "
                    f"footprint {cache.nbytes()}"
                )
            assert set(self._tier_seen) <= set(self._caches)
            self.tiering.check_invariants()

    def total_tokens(self) -> int:
        """Cached token positions summed over live sequences."""
        return sum(c.length for c in self._caches.values())

    def effective_bitwidth(self) -> float:
        """Measured storage-weighted bits/element (see :meth:`measure`)."""
        return self.measure()[1]

    def bytes_per_token(self) -> float:
        """Measured encoded bytes per cached token (0 while empty)."""
        tokens = self.total_tokens()
        if tokens == 0:
            return 0.0
        return self.nbytes() / tokens

    def _overrun(self, tokens: int) -> Optional[Tuple[float, float]]:
        """The pool's one capacity projection.

        Prices ``tokens`` more cached positions at the measured
        bytes-per-token of the live pool and returns ``(requested,
        measured)`` bytes when they would exceed ``capacity_bytes``,
        ``None`` when they fit.  With no budget, or no measurement yet
        (nothing cached), everything fits.
        """
        if self.capacity_bytes is None:
            return None
        used, _ = self.measure()
        held = self.total_tokens()
        if held == 0 or used == 0.0:
            return None
        requested = tokens * (used / held)
        if used + requested <= self.capacity_bytes:
            return None
        return requested, used

    def would_fit(self, tokens: int) -> bool:
        """Whether ``tokens`` more cached positions fit the budget —
        the projection an append or a :meth:`step` is refused by."""
        return self._overrun(tokens) is None

    def summary(self) -> Dict[str, float]:
        """Pool-wide reporting dict.

        With a tiered store attached, its counters join the dict under
        a ``tier_`` prefix (``tier_hits``, ``tier_evictions``,
        ``tier_transfer_cycles``, ...).

        With the arena active, occupancy counters join too:
        ``arena_rows_live`` (written rows) / ``arena_rows_dead`` (rows
        of free-listed regions, waiting to be recycled), both summed
        over layers; ``arena_compactions`` (passes x layers); and
        ``arena_capacity_bytes`` — the encoded-side buffer bytes held
        *now*, slack included: it follows use down as well as up (a
        compaction pass re-sizes the buffers), so after a drain it is
        the floor, not the high-water mark.  ``bytes`` and
        ``peak_bytes`` stay *live-content* footprints (bit-identical
        to the chunked pool's accounting), which is what the
        measured-footprint admission gate budgets against; the slack
        the size classes and the buffer headroom hold beyond that is
        exactly ``arena_capacity_bytes`` minus the encoded share of
        ``bytes``.
        """
        total, ebw = self.measure()
        out = {
            "sequences": float(len(self._caches)),
            "tokens": float(self.total_tokens()),
            "bytes": total,
            "peak_bytes": self._peak_bytes,
            "effective_bitwidth": ebw,
            "batched_decodes": float(self.batched_decodes),
            "batched_encodes": float(self.batched_encodes),
            "batched_roundtrips": float(self.batched_roundtrips),
            "forks": float(self.forks),
        }
        out.update(self._sharing.summary())
        if self._arena is not None:
            out.update(self._arena.summary())
        if self.tiering is not None:
            for key, value in self.tiering.summary().items():
                out[f"tier_{key}"] = value
        return out
