"""The one interface behind :class:`~repro.engine.KVCachePool`.

A pool holds its sequences in one store, picked from a template
backend (its ``pool_store``): :class:`~repro.engine.arena.KVArena`,
:class:`~repro.engine.sharing.ChunkStore` or
:class:`~repro.engine.backend.AdapterStore`.  Each answers the same
verbs — ``allocate`` / ``fork`` / ``free``, ``append_batch(layers,
items)`` and ``decode_pending(layers, seq_ids)`` over a transaction's
layers (both return their kernel calls), ``read_batch(layer,
seq_ids)``, ``layer_bits``, ``row_bits``, ``width``, ``num_layers``,
``check_invariants``, ``summary``, and ``in`` / ``len`` over the
sequences it holds — so the pool never asks how KV is stored.  The
arena answers a transaction with one kernel call each way; the chunk
and adapter stores answer it a layer at a time.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

#: A tier re-homing: ``(new_owner, layer, nbytes)``.
Transfer = Tuple[Hashable, int, float]


class PoolStore:
    """Defaults for a store whose forks copy rows: no row is held by
    two sequences, so nothing is retained, owned elsewhere, overcounted
    or re-homed."""

    #: Merged adapter roundtrips (only the adapter store makes any).
    roundtrips = 0

    def row_bits(
        self, seq_id: Hashable, layer: int, rows: int
    ) -> List[float]:
        """Bits of each of the last ``rows`` rows ``seq_id`` holds on
        ``layer``, keys and values summed, oldest first: the growth of
        the store's ``layer_bits`` as each row landed, so a tiered pool
        can tell its store of a ``rows``-row step row by row."""
        raise NotImplementedError

    def shared_owners(self, seq_id: Hashable, layer: int) -> Sequence:
        """Sequences (other than ``seq_id``) whose tiered pages hold
        rows ``seq_id`` reads on ``layer``."""
        return ()

    def retained_bytes(self, seq_id: Hashable) -> float:
        """Bytes of ``seq_id``'s cache that other sequences also hold."""
        return 0.0

    def extra_bytes(self) -> float:
        """What summing every sequence's footprint overcounts."""
        return 0.0

    def take_transfers(self) -> List[Transfer]:
        """Tier re-homings the last ``fork`` / ``free`` made, once."""
        return []

    def sharing_summary(self) -> Dict[str, float]:
        """The sharing counters of the pool's :meth:`summary`."""
        return dict.fromkeys(
            ("shared_chunks", "shared_bytes", "shared_extra_bytes",
             "shared_bytes_saved"), 0.0,
        )

    def summary(self) -> Dict[str, float]:
        return {}

    def check_invariants(self) -> None:
        pass


class BackendStore(PoolStore):
    """Sequences as backends, each the template's ``twin()``: all hold
    the template's fitted quantizers, so any batch of them shares one
    layer's kernels.  A subclass moves their rows one layer at a time
    (``append_layer``, ``decode_layer``, ``layer_bits``) and lists the
    width of every block of rows it holds (``row_widths``)."""

    def __init__(self, template) -> None:
        self._template = template
        self.num_layers: int = template.num_layers
        #: Width of every row the store holds (``None`` before the
        #: first): a pool holds one model's KV.
        self.width = None
        self.caches: Dict[Hashable, object] = {}

    def __contains__(self, seq_id: Hashable) -> bool:
        return seq_id in self.caches

    def __len__(self) -> int:
        return len(self.caches)

    def allocate(self, seq_id: Hashable):
        backend = self.caches[seq_id] = self._template.twin()
        backend.store = self  # whose width the handle's appends keep
        return backend

    def check_width(self, keys) -> Optional[int]:
        """The store's width once a sequence's handle stores ``keys``
        (``[t, D]`` rows): a block whose width is not that of the rows
        the store holds is refused before anything is stored (a later
        read over both widths would fail)."""
        if not keys.shape[0]:
            return self.width
        if self.width is not None and keys.shape[1] != self.width:
            raise ValueError(
                f"rows of width {keys.shape[1]}, but the store holds "
                f"rows of width {self.width}"
            )
        return keys.shape[1]

    def check_invariants(self) -> None:
        """Every row the store holds has the store's one width."""
        widths = set(self.row_widths())
        assert widths <= {self.width}, (
            f"rows of widths {sorted(widths)} in a store of width "
            f"{self.width}"
        )

    def free(self, seq_id: Hashable) -> None:
        del self.caches[seq_id]

    def read_batch(self, layer: int, seq_ids: Sequence[Hashable]) -> List:
        """Each sequence's history as its backend reads it (after
        :meth:`decode_pending`, a memo hit)."""
        return [self.caches[seq_id].read(layer) for seq_id in seq_ids]

    def append_batch(
        self,
        layers: Sequence[int],
        items: Sequence[Tuple[Hashable, Sequence, Sequence]],
    ) -> int:
        """Store a transaction's items (``keys`` and ``values`` one
        block per entry of ``layers``) a layer at a time."""
        calls = 0
        for i, layer in enumerate(layers):
            calls += self.append_layer(
                layer, [(seq, keys[i], vals[i]) for seq, keys, vals in items]
            )
        self.width = items[0][1][0].shape[1]
        return calls

    def decode_pending(
        self, layers: Sequence[int], seq_ids: Sequence[Hashable]
    ) -> int:
        """Decode the listed sequences' pending rows a layer at a time."""
        return sum(
            self.decode_layer(layer, seq_ids) for layer in layers
        )
