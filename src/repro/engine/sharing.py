"""Shared-prefix chunk accounting for the copy-on-write pool.

Real chat/RAG traffic is dominated by shared system prompts and
multi-turn prefixes.  The fused cache stores a sequence's history as a
list of immutable, append-only :class:`~repro.core.encoding.EncodedKV`
chunks, which makes prefix sharing structural rather than speculative:
forking a sequence aliases the committed prefix *chunk objects* into
the child's chunk list, and because appends only ever add new chunks
(no chunk is mutated in place), the "copy" of copy-on-write happens
automatically at the first divergent append — the parent and child
lists simply stop aliasing from that point on.

What is left to manage is accounting, and that is this module's job.
:class:`SharedChunkRegistry` reference-counts every aliased chunk:

* **Charge once.**  The pool's :meth:`~repro.engine.KVCachePool.measure`
  sums per-sequence footprints, which would double-count a chunk held
  by N sequences; :meth:`SharedChunkRegistry.extra_bytes` is exactly
  the overcount ``(N - 1) * nbytes`` to subtract, so shared bytes are
  charged once pool-wide — the number the admission gate projects
  against.
* **Free on last drop.**  Releasing a sequence removes it from every
  entry it holds; a chunk's storage is only truly gone when its holder
  set empties.  :meth:`release_seq` reports how many bytes the freed
  sequence's cache *retains* through surviving holders, which is how
  :meth:`KVCachePool.free` knows whether anything was actually freed.
* **Tier coherence.**  Each entry names an *owner* — the sequence whose
  tiered pages physically hold the bytes.  Reads through any holder
  touch the owner's pages (keeping a hot shared prefix from being
  evicted under a cold fork's name), and when the owner is freed while
  refs remain, ownership transfers to a surviving holder and the
  transfer list tells the pool to re-home those bytes in the
  :class:`~repro.engine.tiering.TieredKVStore`.

Chunks are keyed by identity (``id``); the registry keeps a strong
reference to every tracked chunk, so an id can never be recycled while
its entry lives.  All iteration orders are insertion orders (plain
dicts), keeping every downstream consumer — tier eviction order
included — bit-deterministic across reruns.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.core.encoding import EncodedKV

__all__ = ["SharedChunkRegistry"]


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


class SharedChunkRegistry:
    """Reference counts over aliased :class:`EncodedKV` chunk objects.

    Owned by one :class:`~repro.engine.KVCachePool`; every mutation of
    sharing state (fork aliasing, in-place boundary splits, sequence
    release) flows through here so the byte accounting and the tier
    ownership model cannot drift from the chunk lists themselves.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, _SharedChunk] = {}
        # seq_id -> insertion-ordered ids of tracked chunks it holds.
        self._held: Dict[Hashable, Dict[int, None]] = {}
        #: Cumulative bytes that forking aliased instead of copying —
        #: monotone, survives frees (the replay smoke asserts on it).
        self.saved_bytes = 0.0
        # Running totals behind extra_bytes() / shared_bytes(), in
        # integer bits: updated by share() and _drop_holder(), the only
        # two places an entry's holder set changes.
        self._extra_bits = 0
        self._shared_bits = 0

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

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
        O(1) read of a running total (see :meth:`check_invariants`)."""
        return self._extra_bits / 8.0

    def shared_bytes(self) -> float:
        """Bytes currently referenced by more than one sequence
        (each chunk counted once); an O(1) read like
        :meth:`extra_bytes`."""
        return self._shared_bits / 8.0

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

    # -- mutations -----------------------------------------------------

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

    def on_replace(
        self, seq_id: Hashable, chunk: EncodedKV
    ) -> List[Tuple[Hashable, int, float]]:
        """``seq_id`` replaced ``chunk`` in its list (boundary split).

        The sequence keeps equal bytes in the replacement pieces, but
        it no longer references the original object.  Returns tier
        re-homing transfers ``(new_owner, layer, nbytes)`` when the
        replaced chunk's bytes must move off ``seq_id``'s pages.
        """
        entry = self._entries.get(id(chunk))
        if entry is None or seq_id not in entry.holders:
            return []
        return self._drop_holder(entry, seq_id)

    def release_seq(
        self, seq_id: Hashable
    ) -> Tuple[float, List[Tuple[Hashable, int, float]]]:
        """Remove ``seq_id`` from every entry it holds.

        Returns ``(retained_bytes, transfers)``: the bytes of the freed
        cache that survive through other holders, and the tier
        ownership transfers those survivors require.
        """
        retained = 0.0
        transfers: List[Tuple[Hashable, int, float]] = []
        for chunk_id in list(self._held.get(seq_id, ())):
            entry = self._entries[chunk_id]
            transfers.extend(self._drop_holder(entry, seq_id))
            if entry.holders:
                # Survivors keep the storage alive past this free.
                retained += entry.chunk.nbytes()
        self._held.pop(seq_id, None)
        return retained, transfers

    def _drop_holder(
        self, entry: _SharedChunk, seq_id: Hashable
    ) -> List[Tuple[Hashable, int, float]]:
        """Remove one holder; prune and transfer ownership as needed."""
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
            return []
        # One fewer of the (refs - 1) overcounted copies.
        self._extra_bits -= bits
        transfers: List[Tuple[Hashable, int, float]] = []
        if entry.owner == seq_id:
            new_owner = next(iter(entry.holders))
            entry.owner = new_owner
            transfers.append(
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
        return transfers

    def check_invariants(self) -> None:
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

    def summary(self) -> Dict[str, float]:
        """Counters merged into the pool's :meth:`summary`."""
        return {
            "shared_chunks": float(len(self._entries)),
            "shared_bytes": self.shared_bytes(),
            "shared_extra_bytes": self.extra_bytes(),
            "shared_bytes_saved": self.saved_bytes,
        }
