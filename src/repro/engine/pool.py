"""Multi-sequence cache pool with batched reads, batched appends and
footprint reporting.

A :class:`KVCachePool` owns one
:class:`~repro.engine.backend.CacheBackend` per live request id, held
in **one store** picked once, from a template backend of its factory
(usually :func:`~repro.engine.backend.shared_backend_factory`, so all
sequences share the offline-fitted per-layer quantizers, as a real
serving system would): the structure-of-arrays
:class:`~repro.engine.arena.KVArena`, the copy-on-write
:class:`~repro.engine.sharing.ChunkStore`, or the registry baselines'
:class:`~repro.engine.backend.AdapterStore`.  Every store answers the
same verbs (:mod:`repro.engine.store`), so the pool never asks how KV
is stored; it keeps the work that does not depend on the format —
checking and pricing a transaction, tier notifications, the measured
footprint and the batch counters.

Both hot directions of the serving loop are batched across the
resident set.  ``append_batch`` gathers the freshly generated rows of
all updated sequences into one matrix — every sequence's key rows
stacked over every sequence's value rows — encodes it in a single
fused pass and scatters the result back to each sequence (the adapter
store keeps the exact rows instead).  ``read_batch`` is the mirror:
each sequence's not-yet-decoded rows, merged the same way, decode in a
single pass (the adapter store roundtrips row-local methods' pending
rows in one merged transform per tensor).  Encode and decode are
row-local, so both are bit-identical to per-sequence loops — the
conformance tests assert it — and at single-token decode granularity
they turn ``B`` tiny [2, D] kernel launches per layer into one [2B, D]
launch.

``step`` is the serving loop's unit: one token's rows on every layer,
checked and priced against the byte budget once, then stored with one
``append_batch`` and decoded with one ``read_batch`` across every
layer — one kernel call each way on the arena — so a refused step
leaves every layer of every sequence as it was.

Pool-wide footprint (current and peak encoded bytes, measured
effective bitwidth) feeds the serving simulator's admission control in
cache-replay mode, replacing the analytic capacity estimate.
"""

from __future__ import annotations

import math
import operator
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

from repro.engine.arena import KVArena, as_rows
from repro.engine.backend import CacheBackend
from repro.engine.errors import CacheCapacityError
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


class _Staged(list):
    """A transaction's ``(seq_id, keys, values)`` items, ``keys`` and
    ``values`` one block per entry of :attr:`layers`, that
    :meth:`KVCachePool._stage` has checked and priced: what
    :meth:`KVCachePool.append_batch` stores, and
    :meth:`KVCachePool.read_batch` decodes (:attr:`reads`), without
    checking again."""

    def __init__(self, items, layers: Sequence[int]) -> None:
        super().__init__(items)
        self.layers = layers
        #: Sequences the transaction reads back once stored (a decode
        #: step's; none for an append).
        self.reads: List[Hashable] = []


class KVCachePool:
    """Per-request cache pool with batched multi-sequence reads and
    appends.

    Args:
        backend_factory: zero-argument callable producing a
            :class:`CacheBackend` that also has ``pool_store(arena)``
            (a :class:`~repro.engine.backend.FusedCacheBackend` or
            :class:`~repro.engine.backend.BaselineCacheBackend`, e.g.
            from :func:`~repro.engine.backend.shared_backend_factory`).
            It is called once, here: that template picks the store, and
            every allocated sequence holds the template's fitted
            quantizers.
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
        arena: hold fused sequences in the structure-of-arrays
            :class:`~repro.engine.arena.KVArena` instead of the chunk
            store: every sequence lives as a row-slice of flat buffers
            — no per-chunk objects on the hot path, reads bit-identical
            to the chunk store.  Arena forks copy prefix rows (bit-exact
            reads, no byte sharing).  For adapter (registry-baseline)
            pools the flag is a structural no-op: their flat
            ``_BaselineStream`` buffers already are an arena.
    """

    def __init__(
        self,
        backend_factory: Callable[[], CacheBackend],
        capacity_bytes: Optional[float] = None,
        tiering: Optional[TieredKVStore] = None,
        arena: bool = False,
    ):
        template = backend_factory()
        if not hasattr(template, "pool_store"):
            raise TypeError(
                f"{type(template).__name__} has no pool_store(arena): "
                "a pool's factory builds a FusedCacheBackend or a "
                "BaselineCacheBackend"
            )
        #: The one store holding every sequence (see
        #: :mod:`repro.engine.store`).
        self.store = template.pool_store(arena)
        self._caches: Dict[Hashable, CacheBackend] = {}
        self.capacity_bytes = capacity_bytes
        self.tiering = tiering
        self._tier_seen: Dict[Hashable, float] = {}
        self.forks = 0
        self._peak_bytes = 0.0
        self.batched_decodes = 0
        self.batched_encodes = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    @property
    def arena_enabled(self) -> bool:
        """Whether the structure-of-arrays resident set is active."""
        return isinstance(self.store, KVArena)

    @property
    def batched_roundtrips(self) -> int:
        """Merged adapter roundtrips made by :meth:`read_batch`."""
        return self.store.roundtrips

    def allocate(self, seq_id: Hashable) -> CacheBackend:
        """Create a fresh cache for ``seq_id``."""
        if seq_id in self._caches:
            raise ValueError(f"sequence {seq_id!r} already allocated")
        backend = self.store.allocate(seq_id)
        self._caches[seq_id] = backend
        return backend

    def fork(
        self,
        parent_seq_id: Hashable,
        new_seq_id: Hashable,
        prefix_len: int,
    ) -> CacheBackend:
        """Fork ``new_seq_id`` from a committed prefix of the parent.

        The chunk store aliases the encoded chunks covering the first
        ``prefix_len`` rows (copy-on-write: no bytes are copied and,
        because the pool charges every shared chunk once, almost none
        are added — see :meth:`~repro.engine.sharing.ChunkStore.fork`);
        the arena and the adapter store copy the prefix rows, saving
        no bytes.

        Contract: the child's :meth:`read` is bit-identical to an
        unshared sequence that appended the same rows — for every
        registry method, on every store, with and without tiering,
        under looped and batched paths (the state machine in
        ``tests/test_pool_model.py`` checks every read against the
        one-shot ``roundtrip()`` of the rows to pin this).

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
            TypeError: ``prefix_len`` is not an integer (``1.5`` or
                ``np.float64(2.0)`` alike); the pool is untouched.
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
        store = self.store
        child = store.fork(
            parent_seq_id, new_seq_id, operator.index(prefix_len)
        )
        self._caches[new_seq_id] = child
        self.forks += 1
        transfers = store.take_transfers()
        if self.tiering is None:
            return child
        self._tier_rehome(transfers)
        # An aliased prefix already resides in the owner's pages: seed
        # the child's watermark with it so only the rest — a copied
        # prefix, new storage no page accounts for yet — is charged,
        # like the append it is (a fork covers every layer at once;
        # the bytes go to the child's first stream).
        self._tier_seen[new_seq_id] = store.retained_bytes(new_seq_id)
        self._tier_record_append(new_seq_id, 0, child.nbytes())
        # Touch the parent's pages so a fresh fork finds its shared
        # prefix hot.
        for layer in range(store.num_layers):
            if store.shared_owners(new_seq_id, layer):
                self.tiering.record_read(parent_seq_id, layer)
        return child

    def _tier_rehome(self, transfers) -> None:
        """Re-home transferred shared bytes in the tiered store."""
        for new_owner, layer, nbytes in transfers:
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
        # Read the footprint before the store lets go of the rows
        # (freeing may trigger the arena's compaction).
        released = cache.nbytes() - self.store.retained_bytes(seq_id)
        self.store.free(seq_id)
        transfers = self.store.take_transfers()
        if self.tiering is not None:
            # Drop the freed sequence's pages first, then re-home the
            # surviving shared bytes, so the migration never doubles
            # transient device pressure.
            self.tiering.release(seq_id)
            self._tier_seen.pop(seq_id, None)
            self._tier_rehome(transfers)
        return released > 0.0

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

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.store.num_layers:
            raise ValueError(
                f"layer {layer} outside the pool's "
                f"{self.store.num_layers} layers"
            )

    def _tier_record_append(
        self, seq_id: Hashable, layer: int, nbytes: float
    ) -> None:
        """Push a sequence's encoded-byte growth into the tiered store.

        The store models placement, not payloads, so growth is observed
        as the delta of the cache's footprint, ``nbytes`` once ``layer``
        has landed, against the watermark ``_tier_seen`` — running
        totals, not a walk of the history.  Charged to the layer that
        grew; eviction pressure is pool-global either way.  Pages hold
        whole bytes, so the charge is the growth of the *floored*
        footprint: fractions carry over to the next append instead of
        being dropped.
        """
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
        self._store(self._stage([layer], [(seq_id, (keys,), (values,))]))

    def _tier_record_read(self, seq_id: Hashable, layer: int) -> None:
        """Touch a read's pages — including shared-prefix pages.

        A forked sequence's prefix bytes live in the *owner's* pages,
        so reading through any holder must also touch the owner's
        stream: shared pages stay as hot as their hottest holder and
        are never evicted out from under a fork (and spilled shared
        pages promote back on any holder's read).
        """
        self.tiering.record_read(seq_id, layer)
        for owner in self.store.shared_owners(seq_id, layer):
            if owner in self._caches:
                self.tiering.record_read(owner, layer)

    def read(
        self, seq_id: Hashable, layer: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One sequence's dequantized (keys, values) history.

        Raises:
            ValueError: ``layer`` is outside the pool's layers.
            KeyError: an unknown sequence.
            RuntimeError: the sequence holds no rows on ``layer``
                (``"cache is empty"``).
        """
        self._check_layer(layer)
        cache = self._caches[seq_id]
        if self.tiering is not None:
            self._tier_record_read(seq_id, layer)
        return cache.read(layer)

    def append_batch(self, layer: int, updates: BatchUpdates) -> None:
        """Append new KV rows to many sequences, one fused encode.

        The write-side counterpart of :meth:`read_batch` and the
        one-layer case of :meth:`step`: all updated sequences' new
        [t, D] rows are gathered into one matrix (key rows over value
        rows), quantized in a single fused pass (counted in
        :attr:`batched_encodes` for batches of two or more items), and
        scattered back to each sequence's layer — bit-for-bit
        identical to calling :meth:`append` once per sequence, in
        ``updates`` order.  At single-token decode granularity this
        turns ``2 * B`` tiny [1, D] encodes per layer into one [2B, D]
        encode.  Sequences updating with zero rows are skipped
        entirely.  The adapter store keeps the exact rows; its quantize
        happens on the read side (:meth:`read_batch`).

        Args:
            layer: decoder layer index.
            updates: ``{seq_id: (keys, values)}`` mapping or iterable
                of ``(seq_id, keys, values)`` triples; ``keys`` and
                ``values`` are same-shape [t, D] row blocks, all of one
                width.  (:meth:`step` hands its whole transaction, its
                ``layers`` as ``layer``, through here already checked
                and priced, so a step's store runs under this method's
                name.)

        Raises:
            CacheCapacityError: the pool has a ``capacity_bytes``
                budget and the batch's projected footprint would
                exceed it.
            ValueError: ``layer`` outside the pool's layers, a
                key/value shape mismatch, or rows whose width differs
                from the batch's or from the rows the store holds.
            KeyError: an unknown sequence.

        Whatever the error, no sequence is mutated.
        """
        if not isinstance(updates, _Staged):
            if isinstance(updates, Mapping):
                items = [(s, (k,), (v,)) for s, (k, v) in updates.items()]
            else:
                items = [(s, (k,), (v,)) for s, k, v in updates]
            updates = self._stage([layer], items)
        self._store(updates)

    def step(self, updates: StepUpdates, read: bool = True) -> None:
        """Append one step's rows on every layer, as one transaction.

        Every generated token is written on every decoder layer, so the
        unit a KV budget admits or refuses is a token across all layers.
        The step checks every id, shape and width on every layer and
        projects its tokens against ``capacity_bytes`` once, before any
        layer changes.  Then every layer's rows are stored in one go
        (through :meth:`append_batch`: one kernel call on the arena, for
        the step's 2L row blocks) and, with ``read`` set, the sequences
        stored to are decoded on every layer (through
        :meth:`read_batch`: one more).  A refused step leaves every
        layer of every sequence as it was; an accepted one is
        bit-identical — stored bytes, decoded rows and every tier
        notification, in order — to the per-layer ``append_batch`` /
        ``read_batch`` pairs attention would make, each layer read
        before the next is written.  Nothing is returned: the histories
        are for :meth:`read` / :meth:`read_batch` afterwards, served
        from the memo the step brought current.

        Args:
            updates: ``(seq_id, keys, values)`` triples; ``keys`` and
                ``values`` hold one [t, D] block per layer of the pool,
                layers ``0 .. L-1`` in order (a list of blocks or an
                [L, t, D] array).  ``t`` may differ between sequences
                but not between one sequence's layers: a token is
                stored on every layer.
            read: read each layer straight after storing it (a decode
                step); ``False`` only stores (a prompt admission).

        Raises:
            CacheCapacityError, ValueError, KeyError: as
                :meth:`append_batch`, on any layer; also ``ValueError``
                when one sequence's layers hold different row counts or
                a triple holds other than one block per layer.  Nothing
                is appended.
        """
        items = list(updates)
        if not items:
            return
        layers = range(self.store.num_layers)
        staged = self._stage(layers, items)
        if read:
            # A sequence stores rows on every layer or on none, so each
            # layer reads the same sequences back.
            staged.reads = list(dict.fromkeys([seq for seq, _, _ in staged]))
        self.append_batch(layers, staged)
        if read:
            self.read_batch(layers, staged)

    def _stage(
        self,
        layers: Sequence[int],
        items: List[Tuple[Hashable, Sequence, Sequence]],
    ) -> _Staged:
        """The one check of :meth:`append`, :meth:`append_batch` and
        :meth:`step`, made before the first mutation: the layers, then
        every id, shape and width on every layer, then one capacity
        projection for the whole transaction.  ``items`` give one key
        and one value block per entry of ``layers``.  Returns the
        transaction's items, zero-row ones dropped.

        Capacity is priced in tokens: each item's rows count once, on
        however many layers the call covers, at the pool's measured
        bytes per (all-layer) token.  So a step of ``B`` one-row
        sequences projects ``B`` tokens, and so does one layer's
        ``append_batch`` of the same rows.
        """
        for layer in layers:
            self._check_layer(layer)
        count = len(layers)
        # Per layer, the batch's width, set by its first non-empty
        # block; every layer's rows must have the one width the store
        # holds.
        widths: List[Optional[int]] = [None] * count
        held = self.store.width
        checked = []
        first_seq: Optional[Hashable] = None
        tokens = 0
        for seq_id, keys, values in items:
            if seq_id not in self._caches:
                raise KeyError(seq_id)
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
                if held is not None and held != width:
                    raise ValueError(
                        f"sequence {seq_id!r}: rows of width {width}, but "
                        f"the store holds rows of width {held}"
                    )
            if rows:
                checked.append((seq_id, keys, values))
                tokens += rows
                if first_seq is None:
                    first_seq = seq_id
        if len(set(widths) - {None}) > 1:
            raise ValueError(
                f"layers of widths {widths}: the store holds one width"
            )
        if tokens:
            overrun = self._overrun(tokens)
            if overrun is not None:
                raise CacheCapacityError(
                    first_seq, *overrun, self.capacity_bytes
                )
        return _Staged(checked, layers)

    def _store(self, staged: _Staged) -> None:
        """Store a checked transaction with one store call, then tell the
        tiered store.  (:meth:`append` stores through here, not through
        :meth:`append_batch`, so a call to either counts once, under its
        own name, for anything wrapping the public methods.)

        The tiered store sees what per-layer calls would have told it:
        layer by layer, each stored sequence's growth, at the footprint
        it had once that layer landed (from the store's per-layer
        bits), then the transaction's :attr:`_Staged.reads` of that
        layer.
        """
        if not staged:
            return
        store = self.store
        layers = staged.layers
        if self.tiering is not None:
            seqs = list(dict.fromkeys(seq for seq, _, _ in staged))
            held = [
                [store.layer_bits(seq, layer) for seq in seqs]
                for layer in layers
            ]
            bits = [self._caches[seq].footprint_bits()[0] for seq in seqs]
        kernel_calls = store.append_batch(layers, staged)
        if len(staged) >= 2:
            self.batched_encodes += kernel_calls
        if self.tiering is None:
            return
        for layer, before in zip(layers, held):
            for i, seq_id in enumerate(seqs):
                bits[i] += store.layer_bits(seq_id, layer) - before[i]
                self._tier_record_append(seq_id, layer, bits[i] / 8.0)
            for seq_id in staged.reads:
                self._tier_record_read(seq_id, layer)

    def read_batch(
        self, layer: int, seq_ids: List[Hashable]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Dequantized histories of many sequences, one fused decode.

        Returns ``[(keys, values), ...]`` in ``seq_ids`` order,
        bit-identical to calling :meth:`read` per sequence.  Every
        requested sequence's pending rows decode in one merged kernel
        call — every sequence's key rows over every sequence's value
        rows; one call per tensor when the layer's quantizers do not
        stack (:attr:`batched_decodes` counts the calls made for two or
        more sequences).  The adapter store batches too, when the
        method permits: row-local registry methods
        (fp16/oaken/qserve/atom/tender) roundtrip every sequence's
        pending suffix in one merged [sum t_i, D] transform per tensor
        (:attr:`batched_roundtrips`); history-global methods (kivi,
        kvquant) quantize per sequence.

        (:meth:`step` hands its transaction, its ``layers`` as
        ``layer``, through here once stored: its reads decode on every
        layer at once, nothing is returned, and the tiered store was
        already told when the transaction was stored.)

        Raises:
            ValueError: ``layer`` is outside the pool's layers.
            KeyError: an unknown sequence.
            RuntimeError: a listed sequence holds no rows on ``layer``
                (``"cache is empty"``).
        """
        if isinstance(seq_ids, _Staged):
            self._decode(seq_ids.layers, seq_ids.reads)
            return []
        self._check_layer(layer)
        for seq_id in seq_ids:
            if seq_id not in self._caches:
                raise KeyError(seq_id)
        # Duplicate ids decode each sequence's pending rows exactly
        # once (committing twice would corrupt the memoized prefix);
        # reads are served in request order.
        unique = list(dict.fromkeys(seq_ids))
        if self.tiering is not None:
            for seq_id in unique:
                self._tier_record_read(seq_id, layer)
        self._decode([layer], unique)
        return self.store.read_batch(layer, seq_ids)

    def _decode(self, layers: Sequence[int], unique: List[Hashable]) -> None:
        kernel_calls = self.store.decode_pending(layers, unique)
        if len(unique) >= 2:
            self.batched_decodes += kernel_calls

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
        sequence plus the store's sharing overcount.  The fused stores
        maintain
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
        total -= self.store.extra_bytes()
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

        Test support: the store's own check (every running total
        against the O(history) walk it replaced: chunks and their
        sharing entries, or arena rows and geometry), after checking
        it holds exactly the live sequences; for tiered pools, also
        that each sequence's tier watermark equals its footprint (every
        append was observed) and the store's own frame table
        (:meth:`~repro.engine.tiering.TieredKVStore.check_invariants`).
        Leaves the pool, including the peak, untouched.
        """
        for seq_id in self._caches:
            assert seq_id in self.store, seq_id
        assert len(self.store) == len(self._caches), (
            f"the store holds {len(self.store)} sequences, the pool "
            f"{len(self._caches)}"
        )
        self.store.check_invariants()
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
        out.update(self.store.sharing_summary())
        out.update(self.store.summary())
        if self.tiering is not None:
            for key, value in self.tiering.summary().items():
                out[f"tier_{key}"] = value
        return out
