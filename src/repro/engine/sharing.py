"""The chunk store: fused sequences as chunk lists, forks copy-on-write.

Real chat/RAG traffic is dominated by shared system prompts and
multi-turn prefixes.  The fused cache
(:class:`~repro.core.kvcache.QuantizedKVCache`) stores a sequence's
history as a list of immutable, append-only
:class:`~repro.core.encoding.EncodedKV` chunks, which makes prefix
sharing structural rather than speculative: :meth:`ChunkStore.fork`
aliases the committed prefix *chunk objects* into the child's chunk
list, and because appends only ever add new chunks (no chunk is
mutated in place), the "copy" of copy-on-write happens automatically
at the first divergent append — the parent and child lists simply stop
aliasing from that point on.

:class:`ChunkStore`, one of the pool's stores
(:mod:`repro.engine.store`), batches a layer's appends and reads
through :func:`repro.core.kvcache.append_batch` /
:func:`~repro.core.kvcache.decode_pending` and reference-counts every
aliased chunk:

* **Charge once.**  The pool's :meth:`~repro.engine.KVCachePool.measure`
  sums per-sequence footprints, which would double-count a chunk held
  by N sequences; :meth:`ChunkStore.extra_bytes` is exactly the
  overcount ``(N - 1) * nbytes`` to subtract, so shared bytes are
  charged once pool-wide — the number the admission gate projects
  against.
* **Free on last drop.**  Freeing a sequence removes it from every
  entry it holds; a chunk's storage is only truly gone when its holder
  set empties.  :meth:`ChunkStore.retained_bytes` is how many bytes a
  sequence's cache keeps alive through other holders, which is how
  :meth:`KVCachePool.free` knows whether anything was actually freed.
* **Tier coherence.**  Each entry names an *owner* — the sequence whose
  tiered pages physically hold the bytes.  Reads through any holder
  touch the owner's pages (keeping a hot shared prefix from being
  evicted under a cold fork's name), and when the owner is freed while
  refs remain, ownership transfers to a surviving holder and
  :meth:`ChunkStore.take_transfers` tells the pool to re-home those
  bytes in the :class:`~repro.engine.tiering.TieredKVStore`.

Chunks are keyed by identity (``id``); the store keeps a strong
reference to every tracked chunk, so an id can never be recycled while
its entry lives.  All iteration orders are insertion orders (plain
dicts), keeping every downstream consumer — tier eviction order
included — bit-deterministic across reruns.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core import kvcache
from repro.core.encoding import EncodedKV
from repro.engine.store import BackendStore, Transfer

__all__ = ["ChunkStore"]


class _SharedChunk:
    """One tracked chunk: the object, its layer, holders, and owner."""

    __slots__ = ("chunk", "layer", "holders", "owner")

    def __init__(
        self, chunk: EncodedKV, layer: int, owner: Hashable
    ) -> None:
        self.chunk = chunk
        self.layer = layer
        # Insertion-ordered "set" of sequence ids referencing the chunk.
        self.holders: Dict[Hashable, None] = {owner: None}
        self.owner = owner


class ChunkStore(BackendStore):
    """Fused sequences as chunk lists, with reference counts over the
    chunk objects that forks alias.

    Every mutation of sharing state (fork aliasing, in-place boundary
    splits, sequence release) happens here, beside the chunk lists it
    counts, so the byte accounting and the tier ownership model cannot
    drift from them.
    """

    def __init__(self, template) -> None:
        super().__init__(template)
        self._entries: Dict[int, _SharedChunk] = {}
        # seq_id -> insertion-ordered ids of tracked chunks it holds.
        self._held: Dict[Hashable, Dict[int, None]] = {}
        self._transfers: List[Transfer] = []
        #: Cumulative bytes that forking aliased instead of copying —
        #: monotone, survives frees (the replay smoke asserts on it).
        self.saved_bytes = 0.0
        # Running totals behind extra_bytes() / sharing_summary(), in
        # integer bits: updated by share() and _drop_holder(), the only
        # two places an entry's holder set changes.
        self._extra_bits = 0
        self._shared_bits = 0

    # -- the pool's verbs ----------------------------------------------

    def append_layer(
        self, layer: int, items: Sequence[Tuple[Hashable, object, object]]
    ) -> int:
        """One fused encode of every item's rows on ``layer``, one chunk
        pair per item (see :func:`repro.core.kvcache.append_batch`)."""
        return kvcache.append_batch(
            [self.caches[seq_id].layers[layer] for seq_id, _, _ in items],
            [keys for _, keys, _ in items],
            [values for _, _, values in items],
        )

    def decode_layer(
        self, layer: int, seq_ids: Sequence[Hashable]
    ) -> int:
        """Every listed sequence's undecoded chunks on ``layer`` in one
        pass (see :func:`repro.core.kvcache.decode_pending`)."""
        return kvcache.decode_pending(
            [self.caches[seq_id].layers[layer] for seq_id in seq_ids]
        )

    def layer_bits(self, seq_id: Hashable, layer: int) -> int:
        """Encoded bits of one sequence's chunks on one layer; O(1)."""
        return self.caches[seq_id].layers[layer].footprint_bits()[0]

    def fork(
        self, parent_id: Hashable, child_id: Hashable, prefix_len: int
    ):
        """Alias the parent's committed prefix chunks into a new child.

        The boundary chunk is split in place first (a bit-exact
        rewrite), so the child lists exactly the chunks covering
        ``prefix_len`` rows; every one becomes shared, and parent and
        child diverge copy-on-write at their first appends.  Shared
        chunks are freed only when the last holder is.  One exception
        to "a fork adds zero bytes": a boundary inside a chunk that is
        already shared re-splits only the parent's list, so the other
        holders keep the old chunk and the fork adds that piece's bytes.
        """
        parent = self.caches[parent_id]
        # Layers stand uneven between one layer's append and the next;
        # a fork past the shortest would fail after splitting the others.
        held = min(layer.length for layer in parent.layers)
        if not 0 <= prefix_len <= held:
            raise ValueError(
                f"prefix_len {prefix_len} outside the rows every layer "
                f"of parent {parent_id!r} holds ({held})"
            )
        child = self.allocate(child_id)
        for layer_index, (parent_layer, child_layer) in enumerate(
            zip(parent.layers, child.layers)
        ):
            count, replaced = parent_layer.split_chunk_boundary(prefix_len)
            for old in (chunk for pair in replaced for chunk in pair):
                # The parent keeps equal bytes in the pieces, but no
                # longer references the original object.
                entry = self._entries.get(id(old))
                if entry is not None and parent_id in entry.holders:
                    self._drop_holder(entry, parent_id)
            child_layer.adopt_prefix(
                parent_layer._key_chunks[:count],
                parent_layer._value_chunks[:count],
                prefix_len,
            )
            for pair in zip(child_layer._key_chunks, child_layer._value_chunks):
                for chunk in pair:
                    self.share(chunk, layer_index, parent_id, child_id)
        return child

    def free(self, seq_id: Hashable) -> None:
        """Drop the sequence from every entry it holds: shared chunks
        survive through their other holders."""
        super().free(seq_id)
        for chunk_id in list(self._held.get(seq_id, ())):
            self._drop_holder(self._entries[chunk_id], seq_id)
        self._held.pop(seq_id, None)

    def take_transfers(self) -> List[Transfer]:
        transfers, self._transfers = self._transfers, []
        return transfers

    # -- queries -------------------------------------------------------

    def holders_of(self, chunk: EncodedKV) -> Tuple[Hashable, ...]:
        """Sequence ids currently referencing ``chunk`` (empty when
        untracked, i.e. exclusively owned)."""
        entry = self._entries.get(id(chunk))
        if entry is None:
            return ()
        return tuple(entry.holders)

    def extra_bytes(self) -> float:
        """Pool-wide footprint overcount: ``(refs - 1) * nbytes`` summed
        over tracked chunks.  Subtracting this from the per-sequence
        footprint sum charges every shared chunk exactly once.  An
        O(1) read of a running total (see :meth:`check_registry`)."""
        return self._extra_bits / 8.0

    def retained_bytes(self, seq_id: Hashable) -> float:
        """Bytes of ``seq_id``'s cache that other sequences also hold."""
        total = 0.0
        for chunk_id in self._held.get(seq_id, ()):
            total += self._entries[chunk_id].chunk.nbytes()
        return total

    def shared_owners(
        self, seq_id: Hashable, layer: int
    ) -> List[Hashable]:
        """Owners (other than ``seq_id``) of shared chunks ``seq_id``
        reads in ``layer`` — the sequences whose tiered pages a read
        through this holder must touch to keep the prefix hot."""
        owners: Dict[Hashable, None] = {}
        for chunk_id in self._held.get(seq_id, ()):
            entry = self._entries[chunk_id]
            if entry.layer == layer and entry.owner != seq_id:
                owners[entry.owner] = None
        return list(owners)

    # -- reference counts ----------------------------------------------

    def share(
        self,
        chunk: EncodedKV,
        layer: int,
        parent_seq: Hashable,
        child_seq: Hashable,
    ) -> None:
        """Record that a fork aliased ``chunk`` from parent to child."""
        entry = self._entries.get(id(chunk))
        bits = chunk.footprint_bits()[0]
        if entry is None:
            entry = _SharedChunk(chunk, layer, parent_seq)
            self._entries[id(chunk)] = entry
            self._held.setdefault(parent_seq, {})[id(chunk)] = None
            self._shared_bits += bits
        if child_seq not in entry.holders:
            entry.holders[child_seq] = None
            self._held.setdefault(child_seq, {})[id(chunk)] = None
            self.saved_bytes += chunk.nbytes()
            self._extra_bits += bits

    def _drop_holder(self, entry: _SharedChunk, seq_id: Hashable) -> None:
        """Remove one holder; prune, and transfer ownership (queued
        for :meth:`take_transfers`) as needed."""
        chunk_id = id(entry.chunk)
        bits = entry.chunk.footprint_bits()[0]
        del entry.holders[seq_id]
        held = self._held.get(seq_id)
        if held is not None:
            held.pop(chunk_id, None)
        if not entry.holders:
            # Last reference dropped: the storage is genuinely gone.
            del self._entries[chunk_id]
            self._shared_bits -= bits
            return
        # One fewer of the (refs - 1) overcounted copies.
        self._extra_bits -= bits
        if entry.owner == seq_id:
            new_owner = next(iter(entry.holders))
            entry.owner = new_owner
            self._transfers.append(
                (new_owner, entry.layer, entry.chunk.nbytes())
            )
        if len(entry.holders) == 1:
            # Exclusive again: stop tracking (a later fork re-registers).
            last = next(iter(entry.holders))
            last_held = self._held.get(last)
            if last_held is not None:
                last_held.pop(chunk_id, None)
            del self._entries[chunk_id]
            self._shared_bits -= bits

    # -- test support --------------------------------------------------

    def check_invariants(self) -> None:
        """Every cache's running footprint against its chunks; the
        entries against the chunk lists (exactly the chunk objects two
        or more caches list, each held by exactly those caches); then
        :meth:`check_registry`."""
        # id(chunk) -> [chunk, *the caches listing it]
        listed: Dict[int, list] = {}
        for seq_id, cache in self.caches.items():
            for layer in cache.layers:
                layer.check_invariants()
                for chunk in layer._key_chunks + layer._value_chunks:
                    listed.setdefault(id(chunk), [chunk]).append(seq_id)
        shared = [held for held in listed.values() if len(held) > 2]
        for chunk, *holders in shared:
            assert set(self.holders_of(chunk)) == set(holders), (
                f"registry holders {self.holders_of(chunk)} "
                f"!= the caches listing the chunk {holders}"
            )
        assert len(self._entries) == len(shared), (
            f"{len(self._entries)} registry entries for "
            f"{len(shared)} chunks listed by two or more caches"
        )
        self.check_registry()

    def check_registry(self) -> None:
        """Assert the running totals equal a walk of the entries, and
        that the two indexes (entry holders, per-sequence held ids)
        describe the same references."""
        extra = 0
        shared = 0
        for chunk_id, entry in self._entries.items():
            assert chunk_id == id(entry.chunk)
            # Exclusive chunks are untracked; the owner holds the chunk.
            assert len(entry.holders) >= 2, entry.holders
            assert entry.owner in entry.holders
            bits = entry.chunk.footprint_bits()[0]
            extra += (len(entry.holders) - 1) * bits
            shared += bits
            for holder in entry.holders:
                assert chunk_id in self._held[holder]
        for seq_id, held in self._held.items():
            for chunk_id in held:
                assert seq_id in self._entries[chunk_id].holders
        assert (self._extra_bits, self._shared_bits) == (extra, shared), (
            f"registry totals ({self._extra_bits}, {self._shared_bits}) "
            f"!= recomputed ({extra}, {shared})"
        )

    # -- reporting -----------------------------------------------------

    def sharing_summary(self) -> Dict[str, float]:
        return {
            "shared_chunks": float(len(self._entries)),
            # Bytes more than one sequence holds, each chunk once.
            "shared_bytes": self._shared_bits / 8.0,
            "shared_extra_bytes": self.extra_bytes(),
            "shared_bytes_saved": self.saved_bytes,
        }
