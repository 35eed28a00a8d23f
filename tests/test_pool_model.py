"""One stateful model of the KV pool (ROADMAP item 1).

One ``hypothesis`` :class:`RuleBasedStateMachine` drives a
``KVCachePool`` whose configuration is a class attribute, one
derandomized ``TestCase`` per configuration:

* the fused paper method (``oaken``) on both stores, arena and chunked;
* each adapter method (``fp16``, ``kvquant``, ``kivi``, ``tender``,
  ``atom``, ``qserve``), built with ``arena=True`` to pin that the flag
  is a no-op for them;
* the engine-backed kernels on both stores: ``EngineBackedQuantizer``
  per tensor, which stack like the plain kernels into one row-stacked
  twin that prices every block in engine cycles.

Every configuration runs untiered and under ``lru`` and ``plru``
tiering (a device tier small enough to spill).

The rules: allocate; ragged ``append_batch`` (layers driven unevenly,
zero-row and repeated ids included); a ragged ``step`` over every layer,
reading or not; 1-D ``append``; ``read`` and
``read_batch``; ``fork`` of any live sequence at any row (mid-chunk,
fork of a fork, reads straight after); ``free``; on the arena,
free-then-allocate-in-the-same-size-class and a forced ``compact()``; on
tiered pools, an append burst larger than the device tier.  The failure
paths are rules too, each asserting that the pool's state did not move:
a refused batch (an unknown id, or a block of the wrong width after a
good item), a layer outside the pool's through any streaming call, a
one-row ``append`` wider than the rows the layer holds, a
``capacity_bytes`` refusal on layer 0 or on layer 1 after
layer 0 landed, a refused ``step`` (a block of the wrong width or row
count on any layer index, an unknown id, over capacity, or one block
more or fewer than the layers), a double
free, a fork from a freed parent, and a fork past the parent's rows or
onto a live id.

The oracle is only per-sequence lists of the input rows, tagged with
the id of the append that produced each row:

* reads equal each tensor quantizer's one-shot ``roundtrip()`` of the
  sequence's rows;
* each sequence's ``footprint_bits()`` equals the one-shot footprint of
  those rows;
* ``pool.nbytes()`` equals the per-sequence sum on the copying stores
  (arena, adapters); on the chunk store it lies between the bytes of
  the distinct rows (forks alias rows, and the tags say which) and that
  sum.

``pool.check_invariants()`` (allocator geometry, footprint
accumulators, chunk walks, the sharing registry against the chunk
lists, tier watermarks, the tiered store's frame table) runs after
every rule, and every live sequence is re-read at teardown.
Counter-examples the machine shrinks are kept below it as named
regression tests.  Scripted walks through the same rules, one per
configuration, make sure each rule fires on every configuration it
applies to, whatever the examples the machine draws.
"""

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine import (
    BASELINE_NAMES,
    CacheCapacityError,
    FusedCacheBackend,
    KVCachePool,
    TieredKVStore,
    shared_backend_factory,
)
from repro.engine.arena import _MIN_ROWS
from repro.engine.backend import BaselineCacheBackend
from repro.hardware.datapath import EngineBackedQuantizer

from conftest import arena_state, make_kv_matrix

LAYERS = 2
DIM = 8
MAX_LIVE = 6
#: Rows of the forced-eviction burst, by whether the pool is fused:
#: more than the device tier at the cheapest method's bytes per row
#: (fused oaken ~33 B a row at dim 8, tender ~8.6 B).
BURST = {True: 48, False: 160}

CALIBRATION = [
    (
        make_kv_matrix(
            tokens=48, dim=DIM, seed=70 + layer, outlier_channels=(1, 5)
        ),
        make_kv_matrix(
            tokens=48, dim=DIM, seed=80 + layer, outlier_channels=(1, 5)
        ),
    )
    for layer in range(LAYERS)
]

#: Kernel pairs other than the plain fused quantizers.
PAIRS = {"engine": EngineBackedQuantizer}


class Config(NamedTuple):
    method: str
    arena: bool
    policy: Optional[str] = None
    pair: Optional[str] = None

    @property
    def name(self):
        parts = [self.pair or self.method]
        if self.method == "oaken":
            parts.append("arena" if self.arena else "chunked")
        if self.policy:
            parts.append(self.policy)
        return "-".join(parts)


CONFIGS = (
    [
        Config("oaken", arena, policy)
        for arena in (True, False)
        for policy in (None, "lru", "plru")
    ]
    + [
        Config(method, True, policy)
        for method in BASELINE_NAMES
        if method != "oaken"
        for policy in (None, "lru", "plru")
    ]
    + [
        Config("oaken", arena, policy, pair)
        for pair in PAIRS
        for arena in (True, False)
        for policy in (None, "lru", "plru")
    ]
)


@lru_cache(maxsize=None)
def factory(method, pair=None):
    """One shared-quantizer factory per method (and kernel pair)."""
    shared = shared_backend_factory(method, calibration=CALIBRATION)
    if pair is None:
        return shared
    quantizers = [
        [
            PAIRS[pair](q.config, q.thresholds, mode=q.mode)
            for q in (layer.key_quantizer, layer.value_quantizer)
        ]
        for layer in shared().layers
    ]
    keys, values = zip(*quantizers)
    return lambda: FusedCacheBackend(list(keys), list(values))


def tensor_quantizers(backend):
    """``[(key_quantizer, value_quantizer)]`` per layer."""
    if isinstance(backend, BaselineCacheBackend):
        return [
            tuple(stream.quantizer for stream in backend.layer_streams(layer))
            for layer in range(LAYERS)
        ]
    return [(lc.key_quantizer, lc.value_quantizer) for lc in backend.layers]


picks = st.integers(0, 2**16)
layers = st.integers(0, LAYERS - 1)
#: Row counts of one batch item: mostly decode-sized, now and then a
#: prompt-sized block that jumps size classes; zero rows is legal.
counts = st.sampled_from([0, 1, 1, 1, 2, 3, 5, 9, 17, 40])
items = st.lists(st.tuples(picks, counts, picks), min_size=1, max_size=5)


class PoolModel(RuleBasedStateMachine):
    #: The configuration under test; set per subclass by ``_case``.
    CONFIG = Config("oaken", True)

    def __init__(self):
        super().__init__()
        config = self.CONFIG
        self.store = None
        if config.policy:
            # About a dozen rows' worth of device pages: runs spill.
            self.store = TieredKVStore(
                device_budget_bytes=1024.0, page_bytes=128,
                policy=config.policy,
            )
        make = factory(config.method, config.pair)
        self.pool = KVCachePool(make, tiering=self.store, arena=config.arena)
        self.adapter = config.method != "oaken"
        # The flag is a no-op for adapter pools.
        assert self.pool.arena_enabled == (config.arena and not self.adapter)
        self.arena = self.pool.store if self.pool.arena_enabled else None
        #: Whether forks alias rows (the chunk store) or copy them.
        self.aliases = not (self.adapter or config.arena)
        self.quantizers = tensor_quantizers(make())
        #: The oracle: history[seq][layer] -> [(keys, values, row ids)].
        self.history = {}
        self.freed = []
        self.next_id = 0
        self.next_row = 0
        self.footprints = {}
        self.floors = {}

    # -- the model -----------------------------------------------------

    def pick(self, pick, where=lambda seq: True):
        seqs = [seq for seq in self.history if where(seq)]
        return seqs[pick % len(seqs)]

    def length(self, seq, layer):
        return sum(block[0].shape[0] for block in self.history[seq][layer])

    def lengths(self, seq):
        return tuple(self.length(seq, layer) for layer in range(LAYERS))

    def shared_rows(self, seq):
        """Rows every layer of ``seq`` holds: what a fork may share."""
        return min(self.lengths(seq))

    def rows(self, seq, layer):
        """``(keys, values, row ids)`` of one sequence's layer."""
        return tuple(
            np.concatenate(part) for part in zip(*self.history[seq][layer])
        )

    def blocks(self, seed, count):
        rng = np.random.default_rng(seed)
        scale = rng.choice([0.1, 1.0, 30.0])
        return tuple(
            (scale * rng.standard_normal((count, DIM))).astype(np.float32)
            for _ in range(2)
        )

    def new_seq(self):
        seq = self.next_id
        self.next_id += 1
        self.history[seq] = [[] for _ in range(LAYERS)]
        return seq

    def record(self, seq, layer, keys, values):
        keys, values = np.atleast_2d(keys), np.atleast_2d(values)
        ids = np.arange(self.next_row, self.next_row + keys.shape[0])
        self.next_row += keys.shape[0]
        self.history[seq][layer].append((keys, values, ids))

    def batch(self, chosen):
        """A ragged batch from ``(pick, count, seed)`` triples."""
        return [
            (self.pick(pick), *self.blocks(seed, count))
            for pick, count, seed in chosen
        ]

    def land(self, layer, batch):
        """Record a batch the pool took."""
        for seq, keys, values in batch:
            if keys.shape[0]:
                self.record(seq, layer, keys, values)

    def footprint(self, seq):
        """The one-shot footprint of a sequence's rows, summed the way
        the backend sums it (memoized per length)."""
        key = (seq, self.lengths(seq))
        if key not in self.footprints:
            bits, elements = (0.0, 0) if self.adapter else (0, 0)
            for tensor in (0, 1):
                for layer in range(LAYERS):
                    if not self.length(seq, layer):
                        continue
                    rows = self.rows(seq, layer)[tensor]
                    quantizer = self.quantizers[layer][tensor]
                    if self.adapter:
                        fp = quantizer.footprint(rows)
                        bits += fp.total_bits
                        elements += fp.element_count
                    else:
                        got = quantizer.quantize(rows).footprint_bits()
                        bits += got[0]
                        elements += got[1]
            self.footprints[key] = (bits, elements)
        return self.footprints[key]

    def distinct_bytes(self):
        """Bytes of the distinct rows live sequences hold: the floor of
        a store that aliases forked rows (memoized per live lengths)."""
        key = tuple((seq, self.lengths(seq)) for seq in self.history)
        if key not in self.floors:
            self.floors[key] = self.distinct_bits() / 8.0
        return self.floors[key]

    def distinct_bits(self):
        bits = 0
        for layer in range(LAYERS):
            held = [
                self.rows(seq, layer)
                for seq in self.history
                if self.length(seq, layer)
            ]
            if not held:
                continue
            keys, values, ids = (np.concatenate(part) for part in zip(*held))
            _, first = np.unique(ids, return_index=True)
            for rows, quantizer in zip((keys, values), self.quantizers[layer]):
                bits += quantizer.quantize(rows[first]).footprint_bits()[0]
        return bits

    # -- the pool, seen from outside -----------------------------------

    def layer_lengths(self, seq):
        cache = self.pool.get(seq)
        if self.arena is not None:
            return list(self.arena.rows[seq].length)
        if self.adapter:
            return [
                cache.layer_streams(layer)[0].length
                for layer in range(LAYERS)
            ]
        return [lc.length for lc in cache.layers]

    def pool_state(self):
        """Everything a refused operation must leave alone, at the pool
        boundary (whatever the store)."""
        return (
            self.pool.summary(),
            {
                seq: (
                    self.pool.get(seq).footprint_bits(),
                    self.layer_lengths(seq),
                )
                for seq in self.pool.seq_ids
            },
            dict(self.pool._tier_seen),
            arena_state(self.arena),
        )

    def check_read(self, seq, layer, got):
        for tensor, have in enumerate(got):
            exact = self.rows(seq, layer)[tensor]
            want = self.quantizers[layer][tensor].roundtrip(exact)
            want = np.asarray(want, dtype=np.float32)
            assert have.tobytes() == want.tobytes(), (seq, layer, tensor)
            assert have.shape == want.shape
            assert not have.flags.writeable
            if self.adapter:
                continue
            assert have.flags.c_contiguous
            if self.arena is not None:
                mirror = self.arena.store.rows["decoded"][layer]
            else:
                mirror = self.pool.get(seq).layers[layer]._decoded.buffer
            assert np.shares_memory(have, mirror[tensor])

    def check_all_reads(self):
        for seq in self.history:
            for layer in range(LAYERS):
                if self.length(seq, layer):
                    self.check_read(seq, layer, self.pool.read(seq, layer))

    # -- rules ---------------------------------------------------------

    @precondition(lambda self: len(self.history) < MAX_LIVE)
    @rule()
    def allocate(self):
        self.pool.allocate(self.new_seq())

    @precondition(lambda self: self.history)
    @rule(layer=st.none() | layers, chosen=items)
    def append_batch(self, layer, chosen):
        """Ragged; one layer, or (``None``) every layer in turn as a
        serving step does; an id may repeat in a batch."""
        for layer in range(LAYERS) if layer is None else (layer,):
            batch = self.batch(
                [(pick, count, seed + layer) for pick, count, seed in chosen]
            )
            self.pool.append_batch(layer, batch)
            self.land(layer, batch)

    @precondition(lambda self: self.history)
    @rule(
        chosen=items,
        read=st.booleans(),
        refusal=st.sampled_from([None, None, "wide", "uneven", "unknown",
                                 "capacity", "more", "fewer"]),
        bad_layer=layers,
    )
    def step(self, chosen, read, refusal=None, bad_layer=0):
        """One ``pool.step`` over every layer: ragged rows (the same
        count on each of a sequence's layers), an id may repeat.  An
        accepted step reads back the one-shot roundtrip on every layer.
        A refused one leaves every layer as it was: after a good
        one-row item, a block one wider on layer ``bad_layer``, an item
        one row longer on that layer, an unknown id, a budget the
        step overruns, or an item with one block more or fewer than
        the pool has layers."""
        def layered(seed, count):
            """``[keys per layer], [values per layer]``."""
            blocks = [self.blocks(seed + at, count) for at in range(LAYERS)]
            return [list(tensor) for tensor in zip(*blocks)]

        updates = [
            (self.pick(pick), *layered(seed, count))
            for pick, count, seed in chosen
        ]
        if refusal is None:
            self.pool.step(updates, read=read)
            for seq, keys, values in updates:
                for layer in range(LAYERS):
                    if keys[layer].shape[0]:
                        self.record(seq, layer, keys[layer], values[layer])
            stepped = dict.fromkeys(
                seq for seq, keys, _ in updates if keys[0].shape[0]
            )
            for layer in range(LAYERS):
                for seq, got in zip(
                    stepped, self.pool.read_batch(layer, list(stepped))
                ):
                    self.check_read(seq, layer, got)
            return
        seq = updates[0][0]
        updates.append((seq, *layered(len(updates), 1)))
        bad = layered(len(updates), 1)
        error = ValueError
        if refusal == "wide":
            wide = np.zeros((1, DIM + 1), dtype=np.float32)
            bad[0][bad_layer] = bad[1][bad_layer] = wide
        elif refusal == "uneven":
            bad[0][bad_layer], bad[1][bad_layer] = self.blocks(bad_layer, 2)
        elif refusal == "unknown":
            seq, error = "nobody", KeyError
        elif refusal == "more":
            bad = [blocks + blocks[:1] for blocks in bad]
        elif refusal == "fewer":
            bad = [blocks[:-1] for blocks in bad]
        if refusal != "capacity":
            updates.append((seq, *bad))
        elif any(self.length(held, 0) for held in self.history):
            error = CacheCapacityError
            self.pool.capacity_bytes = self.pool.nbytes()
        else:
            return  # nothing measured yet: no budget can refuse
        before = self.pool_state()
        try:
            with pytest.raises(error):
                self.pool.step(updates, read=read)
        finally:
            self.pool.capacity_bytes = None
        assert self.pool_state() == before

    @precondition(lambda self: self.history)
    @rule(pick=picks, layer=layers, seed=picks, wide=st.booleans())
    def append_one_row(self, pick, layer, seed, wide=False):
        """A 1-D row through ``pool.append``: normalised at the boundary.
        ``wide`` makes it one element wider than the rows the layer
        holds: a ``ValueError`` naming the width held, and nothing
        moves."""
        seq = self.pick(pick)
        if wide and self.length(seq, layer):
            bad = np.zeros(DIM + 1, dtype=np.float32)
            before = self.pool_state()
            with pytest.raises(ValueError, match=f"holds rows of width {DIM}"):
                self.pool.append(seq, layer, bad, bad)
            assert self.pool_state() == before
            return
        keys, values = self.blocks(seed, 1)
        self.pool.append(seq, layer, keys[0], values[0])
        self.record(seq, layer, keys, values)

    @precondition(lambda self: self.history)
    @rule(pick=picks, layer=layers)
    def read(self, pick, layer):
        seq = self.pick(pick)
        if not self.length(seq, layer):
            with pytest.raises(RuntimeError):
                self.pool.read(seq, layer)
            return
        self.check_read(seq, layer, self.pool.read(seq, layer))

    @precondition(lambda self: self.history)
    @rule(layer=layers, chosen=st.lists(picks, min_size=1, max_size=5))
    def read_batch(self, layer, chosen):
        seqs = [
            seq for seq in (self.pick(pick) for pick in chosen)
            if self.length(seq, layer)
        ]
        for seq, got in zip(seqs, self.pool.read_batch(layer, seqs)):
            self.check_read(seq, layer, got)

    @precondition(
        lambda self: self.history and len(self.history) < MAX_LIVE
    )
    @rule(pick=picks, back=picks, then_read=st.booleans())
    def fork(self, pick, back, then_read):
        """Any live sequence — a fork's child included — at any row,
        ``back`` rows short of all it holds, from one that every layer
        holds rows of when there is one; ``then_read`` reads both sides
        straight away, before anything else can make the decode memos
        current."""
        held = [seq for seq in self.history if self.shared_rows(seq)]
        parent = held[pick % len(held)] if held else self.pick(pick)
        shared = self.shared_rows(parent)
        prefix_len = shared - back % (shared + 1)
        saved = self.pool.summary()["shared_bytes_saved"]
        child = self.new_seq()
        self.pool.fork(parent, child, prefix_len)
        if not prefix_len:
            return
        for layer in range(LAYERS):
            keys, values, ids = self.rows(parent, layer)
            self.history[child][layer].append(
                (keys[:prefix_len], values[:prefix_len], ids[:prefix_len])
            )
        now = self.pool.summary()["shared_bytes_saved"]
        # Only an aliasing fork saves bytes, and it always does.
        assert now > saved if self.aliases else now == saved == 0.0
        if then_read:
            for seq in (child, parent):
                for layer in range(LAYERS):
                    self.check_read(seq, layer, self.pool.read(seq, layer))

    @precondition(lambda self: self.store is not None and self.history)
    @rule(pick=picks, layer=layers, seed=picks, batched=st.booleans())
    def forced_eviction(self, pick, layer, seed, batched):
        """One append burst larger than the whole device tier: pages
        spill, reads miss, and every read still decodes the oracle's
        bytes."""
        seq = self.pick(pick)
        keys, values = self.blocks(seed, BURST[not self.adapter])
        footprint = self.pool.nbytes()
        evictions, misses = self.store.evictions, self.store.misses
        if batched:
            self.pool.append_batch(layer, [(seq, keys, values)])
        else:
            self.pool.append(seq, layer, keys, values)
        self.record(seq, layer, keys, values)
        burst = self.pool.nbytes() - footprint
        assert burst > self.store.device_capacity_bytes
        assert self.store.evictions > evictions
        self.check_all_reads()
        assert self.store.misses > misses

    def row_ids(self, seq):
        return {
            int(i) for blocks in self.history[seq] for *_, ids in blocks
            for i in ids
        }

    def free_seq(self, seq):
        held = self.pool.get(seq).nbytes()
        own = self.row_ids(seq)
        released = self.pool.free(seq)
        del self.history[seq]
        self.freed.append(seq)
        if not self.aliases:
            assert released == (held > 0.0)
            return
        # Rows no survivor holds are storage only this sequence had.
        survivors = set().union(*map(self.row_ids, self.history))
        assert released or own <= survivors

    @precondition(lambda self: self.history)
    @rule(pick=picks, again=st.booleans())
    def free(self, pick, again):
        """``again`` frees the id a second time: a ``KeyError`` naming
        it, and nothing moves."""
        seq = self.pick(pick)
        self.free_seq(seq)
        if again:
            before = self.pool_state()
            with pytest.raises(KeyError, match=f"sequence {seq!r}"):
                self.pool.free(seq)
            assert self.pool_state() == before

    @precondition(
        lambda self: self.arena is not None
        and any(slc.cap for slc in self.arena.rows.values())
    )
    @rule(pick=picks, seed=picks)
    def free_then_allocate_same_class(self, pick, seed):
        """The freed region is the next reservation of its class."""
        old = self.pick(pick, lambda seq: self.arena.rows[seq].cap)
        slc = self.arena.rows[old]
        start, cap, tail = slc.start, slc.cap, self.arena.tail
        at_tail = start + cap == tail
        passes = self.arena.compactions
        self.free_seq(old)
        seq = self.new_seq()
        self.pool.allocate(seq)
        keys, values = self.blocks(seed, cap)
        self.pool.append(seq, 0, keys, values)
        self.record(seq, 0, keys, values)
        reused = self.arena.rows[seq]
        assert reused.cap == cap and reused.generation == 0
        if self.arena.compactions == passes:
            assert self.arena.tail <= tail
            assert at_tail or reused.start == start

    @precondition(
        lambda self: self.arena is not None and self.arena.dead_rows
    )
    @rule()
    def compact(self):
        """A forced pass over free-listed rows: slices move, keep their
        capacity and their bytes; nothing is left dead."""
        before = {
            seq: (slc.cap, slc.generation, slc.bits, slc.elements)
            for seq, slc in self.arena.rows.items()
        }
        passes = self.arena.compactions
        self.arena.compact()
        assert self.arena.compactions == passes + 1
        assert self.arena.dead_rows == 0 and not self.arena.free_slices
        assert self.arena.store.dead_records == 0
        for seq, (cap, generation, bits, elements) in before.items():
            slc = self.arena.rows[seq]
            assert (slc.cap, slc.generation, slc.bits, slc.elements) == (
                cap, generation + 1, bits, elements,
            )
        self.check_all_reads()

    # -- failure rules: each leaves the pool's state where it was -------

    @precondition(lambda self: self.history)
    @rule(
        pick=picks,
        other=picks,
        seed=picks,
        wide=st.booleans(),
        outside=st.sampled_from([None, None, -1, LAYERS]),
    )
    def refused_batch(self, pick, other, seed, wide, outside=None):
        """An unknown id, or a block of the wrong width, after a good
        item; or a layer ``outside`` the pool's, through ``append``,
        ``append_batch``, ``read`` and ``read_batch``: nothing — row
        table, free lists, chunk lists, streams, accumulators, tier
        watermarks and streams — moves."""
        seq = self.pick(pick)
        keys, values = self.blocks(seed, 40)
        bad = np.zeros((1, DIM + 1), dtype=np.float32)
        before = self.pool_state()
        if outside is not None:
            for call in (
                lambda: self.pool.append(seq, outside, keys, values),
                lambda: self.pool.append_batch(outside, [(seq, keys, values)]),
                lambda: self.pool.read(seq, outside),
                lambda: self.pool.read_batch(outside, [seq]),
            ):
                with pytest.raises(ValueError, match="outside the pool"):
                    call()
                assert self.pool_state() == before
            return
        # (the arena takes the same batches below the pool, where an
        # unknown id is not caught by the pool's own lookup)
        for target in filter(None, (self.pool, self.arena)):
            if wide:
                with pytest.raises(ValueError):
                    target.append_batch(
                        0,
                        [(seq, keys, values), (self.pick(other), bad, bad)],
                    )
            else:
                with pytest.raises(KeyError):
                    target.append_batch(
                        0, [(seq, keys, values), ("nobody", keys, values)]
                    )
            assert self.pool_state() == before

    @precondition(
        lambda self: any(self.length(seq, 0) for seq in self.history)
    )
    @rule(layer=layers, chosen=items, batched=st.booleans())
    def capacity_refusal(self, layer, chosen, batched):
        """A ``capacity_bytes`` budget the next append overruns, on
        layer 0 or on layer 1 after the same step's layer 0 landed:
        ``CacheCapacityError``, and nothing moves."""
        batch = [
            (seq, keys, values)
            for seq, keys, values in self.batch(chosen)
            if keys.shape[0]
        ]
        if not batch:
            return
        if layer:
            self.pool.append_batch(0, batch)
            self.land(0, batch)
        seq, keys, values = batch[0]
        before = self.pool_state()
        self.pool.capacity_bytes = self.pool.nbytes()
        try:
            with pytest.raises(CacheCapacityError):
                if batched:
                    self.pool.append_batch(layer, batch)
                else:
                    self.pool.append(seq, layer, keys, values)
        finally:
            self.pool.capacity_bytes = None
        assert self.pool_state() == before

    @precondition(lambda self: self.history)
    @rule(
        pick=picks,
        other=picks,
        over=st.integers(1, 3),
        how=st.sampled_from(["past", "onto", "freed", "fractional"]),
    )
    def refused_fork(self, pick, other, over, how):
        """Past the rows every layer of the parent holds, or onto a
        live id: ``ValueError``; from a freed parent: ``KeyError``
        naming it; a prefix that is not an integer, in range or not:
        ``TypeError``.  Nothing moves."""
        parent = self.pick(pick)
        child, prefix_len, error = self.next_id, 0, ValueError
        if how == "onto":
            child = self.pick(other)
        elif how == "freed" and self.freed:
            parent, error = self.freed[other % len(self.freed)], KeyError
        elif how == "fractional":
            prefix_len = (0.5, 1.5, np.float64(2.7))[over - 1]
            error = TypeError
        else:
            prefix_len = self.shared_rows(parent) + over
        named = child if how == "onto" else parent
        match = "integer" if error is TypeError else repr(named)
        before = self.pool_state()
        with pytest.raises(error, match=match):
            self.pool.fork(parent, child, prefix_len)
        assert self.pool_state() == before

    # -- invariants ----------------------------------------------------

    @invariant()
    def pool_matches_the_model(self):
        self.pool.check_invariants()
        assert self.pool.seq_ids == list(self.history)
        per_seq = []
        for seq in self.history:
            assert self.layer_lengths(seq) == list(self.lengths(seq))
            cache = self.pool.get(seq)
            bits, elements = self.footprint(seq)
            assert cache.footprint_bits() == (bits, elements), seq
            assert cache.nbytes() == bits / 8.0
            assert cache.effective_bitwidth() == (
                bits / elements if elements else 0.0
            )
            per_seq.append(cache.nbytes())
        total = self.pool.nbytes()
        summary = self.pool.summary()
        # Charge once: shared bytes are subtracted exactly once.
        assert total == sum(per_seq) - summary["shared_extra_bytes"]
        if self.aliases:
            assert self.distinct_bytes() <= total <= sum(per_seq)
        else:
            assert total == sum(per_seq)
            assert summary["shared_chunks"] == 0.0
        if self.arena is not None:
            rows = sum(sum(self.lengths(seq)) for seq in self.history)
            assert summary["arena_rows_live"] == float(rows)
            assert summary["arena_rows_dead"] >= 0.0
            assert summary["arena_capacity_bytes"] > 0.0 or not rows
        if self.store is not None:
            assert self.store.device_bytes <= self.store.device_capacity_bytes

    def teardown(self):
        self.check_all_reads()
        for seq in list(self.history):
            self.free_seq(seq)
            self.pool.check_invariants()
        # Exactly zero: integer accumulators leave no float residue.
        assert self.pool.measure() == (0.0, 0.0)
        summary = self.pool.summary()
        assert summary["bytes"] == 0.0
        assert summary["shared_chunks"] == 0.0
        assert summary["shared_bytes"] == 0.0
        assert summary["shared_extra_bytes"] == 0.0
        assert not self.pool._tier_seen
        if self.arena is not None:
            assert summary["arena_rows_live"] == 0.0
            assert self.arena.tail == self.arena.dead_rows
        if self.store is not None:
            assert self.store.total_pages() == 0


def _marks(config):
    """``sharing`` on every configuration (each one forks), ``arena``
    on those built with ``arena=True``, ``tiering`` on the tiered."""
    marks = [pytest.mark.sharing]
    if config.arena:
        marks.append(pytest.mark.arena)
    if config.policy:
        marks.append(pytest.mark.tiering)
    return marks


MACHINES = {}


def _case(config, examples):
    name = "".join(part.title() for part in config.name.split("-"))
    machine = type(f"{name}Model", (PoolModel,), {"CONFIG": config})
    MACHINES[config.name] = machine
    case = machine.TestCase
    case.settings = settings(
        max_examples=examples,
        stateful_step_count=30,
        deadline=None,
        derandomize=True,
        database=None,
    )
    case.pytestmark = _marks(config)
    globals()[f"Test{name}"] = case


for _config in CONFIGS:
    # The paper method on its own kernels gets the most examples.
    _case(_config, 25 if _config.pair or _config.method != "oaken" else 40)


# -- named regressions -------------------------------------------------
# (Shrunk counter-examples of the machine above, replayed by hand.)


@pytest.mark.arena
def test_repeated_id_in_one_batch_keeps_item_order():
    """Two items for one sequence in one batch land back to back, in
    order, and cross a size class together (lengths advance after the
    write, so the second item's offset comes from the batch, not the
    row table)."""
    machine = MACHINES["oaken-arena"]()
    machine.allocate()
    machine.append_batch(0, [(0, 5, 1), (0, 9, 2), (0, 0, 3), (0, 1, 4)])
    machine.pool_matches_the_model()
    slc = machine.arena.rows[0]
    assert slc.length == [15, 0] and slc.cap == 2 * _MIN_ROWS
    machine.read(0, 0)
    machine.teardown()


@pytest.mark.sharing
@pytest.mark.parametrize("name", ["oaken-chunked", "oaken-chunked-lru"])
def test_fork_inside_a_memoized_chunk_rebases_the_memo(name):
    """A fork whose boundary falls inside a chunk the parent has already
    decoded splits that chunk in two; the parent's one decode memo must
    count both halves as decoded, or its next read decodes the tail
    half again.  Then the same one level down: a fork of the fork,
    inside the chunk the first fork aliased."""
    machine = MACHINES[name]()
    machine.allocate()
    machine.append_batch(0, [(0, 9, 1)])
    machine.append_batch(1, [(0, 9, 2)])
    machine.read(0, 0)  # layer 0 memoized, layer 1 still pending
    machine.fork(0, back=5, then_read=True)  # row 4 of a 9-row chunk
    machine.pool_matches_the_model()
    parent = machine.pool.get(0).layers
    assert [len(lc._key_chunks) for lc in parent] == [2, 2]
    assert [lc._decoded.chunks_decoded for lc in parent] == [2, 2]
    for seq in (0, 1):
        for layer in range(LAYERS):
            machine.append_one_row(seq, layer, 3 + seq)
            machine.read(seq, layer)
    machine.fork(1, back=3, then_read=False)  # row 2 of the fork's 5
    machine.pool_matches_the_model()
    machine.append_batch(0, [(0, 1, 5), (1, 2, 6), (2, 3, 7)])
    machine.read_batch(0, [0, 1, 2])
    machine.pool_matches_the_model()
    machine.teardown()


@pytest.mark.sharing
def test_fork_inside_an_already_shared_chunk_adds_the_old_piece():
    """A known quirk, kept on purpose: a mid-chunk fork inside a chunk
    that is already shared re-splits only the parent's list.  The other
    holder keeps the old object, so the fork adds exactly that piece's
    bytes — rows 0-3 stored a second time."""
    machine = MACHINES["oaken-chunked"]()
    machine.allocate()
    for layer in range(LAYERS):
        machine.append_batch(layer, [(0, 9, 10 + layer)])
    machine.fork(0, back=5, then_read=False)  # row 4 of the 9-row chunk
    before = machine.pool.nbytes()
    machine.fork(0, back=7, then_read=False)  # row 2: the shared piece
    machine.pool_matches_the_model()
    piece = sum(
        quantizer.quantize(rows[:4]).footprint_bits()[0]
        for layer in range(LAYERS)
        for rows, quantizer in zip(
            machine.rows(0, layer), machine.quantizers[layer]
        )
    )
    assert machine.pool.nbytes() - before == piece / 8.0 > 0.0
    machine.teardown()


@pytest.mark.sharing
@pytest.mark.parametrize("name", ["atom", "kivi", "fp16"])
def test_a_wide_item_leaves_an_adapter_batch_unapplied(name):
    """A one-row item nine wide after a good three-row item: the adapter
    pool refuses before its first append.  It used to store the good
    item's rows and then raise (on atom, 80 bytes became 160); the
    fused stores, whose one encode refuses first, never did."""
    machine = MACHINES[name]()
    machine.allocate()
    machine.allocate()
    machine.append_batch(0, [(0, 3, 1), (1, 1, 2)])
    good, _ = machine.blocks(3, 3)
    wide = np.zeros((1, DIM + 1), dtype=np.float32)
    before = machine.pool_state()
    with pytest.raises(ValueError, match="width"):
        machine.pool.append_batch(0, [(0, good, good), (1, wide, wide)])
    assert machine.pool_state() == before
    machine.refused_batch(0, 1, 4, wide=True)  # the rule that found it
    machine.pool_matches_the_model()
    machine.teardown()


@pytest.mark.sharing
@pytest.mark.parametrize("name", ["oaken-chunked", "atom", "oaken-arena"])
def test_a_fork_past_the_shortest_layer_changes_nothing(name):
    """Layer 0 holds rows layer 1 does not: a fork reaching into them is
    refused before anything moves.  The chunk store used to split and
    alias layer 0 under the child's id before layer 1 refused, leaving
    a registry holder no cache backs (the parent's free then released
    nothing); adapter pools raised ``RuntimeError`` or forked a child
    whose layers were uneven."""
    machine = MACHINES[name]()
    machine.allocate()
    machine.append_batch(0, [(0, 2, 1)])
    machine.refused_fork(0, 0, over=1, how="past")
    machine.append_batch(1, [(0, 1, 2)])
    machine.refused_fork(0, 0, over=1, how="past")
    machine.pool_matches_the_model()
    machine.teardown()


# -- scripted walks, one per configuration -----------------------------
# (The machine's rules in a fixed order, so each one provably fires on
# every configuration it applies to.)


def _params(configs):
    return [
        pytest.param(config.name, marks=_marks(config), id=config.name)
        for config in configs
    ]


def walk(name, script):
    """Run ``(rule, kwargs)`` steps on a fresh machine of configuration
    ``name``, checking the model after each; returns the machine for
    the caller's own checks and teardown."""
    machine = MACHINES[name]()
    machine.pool_matches_the_model()
    for rule_name, kwargs in script:
        getattr(machine, rule_name)(**kwargs)
        machine.pool_matches_the_model()
    return machine


@pytest.mark.parametrize("name", _params(CONFIGS))
def test_a_serving_walk_reads_the_oracle(name):
    """Ragged prompts, decode steps over every layer, looped and batched
    reads (a repeated id included), a layer driven ahead of the other
    across a size class, then a free and a newcomer: every read is the
    one-shot roundtrip, and the drained pool holds exactly 0 bytes."""
    decode = [
        ("append_batch", dict(
            layer=None, chosen=[(0, 1, 10 + s), (1, 1, 20 + s), (2, 1, 30 + s)]
        ))
        for s in range(4)
    ]
    machine = walk(name, [
        ("allocate", {}),
        ("allocate", {}),
        ("allocate", {}),
        ("append_batch", dict(
            layer=None, chosen=[(0, 17, 1), (1, 9, 2), (2, 5, 3), (2, 0, 4)]
        )),
        *decode,
        ("read_batch", dict(layer=0, chosen=[0, 1, 2])),
        ("read", dict(pick=1, layer=1)),
        ("append_one_row", dict(pick=2, layer=0, seed=5)),
        ("read_batch", dict(layer=1, chosen=[2, 0, 2])),
        ("append_batch", dict(layer=1, chosen=[(0, 40, 6), (0, 2, 7)])),
        ("read", dict(pick=0, layer=1)),
        ("free", dict(pick=1, again=False)),
        ("allocate", {}),
        ("append_batch", dict(layer=None, chosen=[(2, 3, 8), (0, 1, 9)])),
        ("read_batch", dict(layer=0, chosen=[0, 1, 2])),
        ("step", dict(chosen=[(0, 1, 10), (1, 1, 11), (2, 1, 12)], read=True)),
        ("step", dict(
            chosen=[(1, 9, 13), (2, 0, 14), (1, 2, 15)], read=False
        )),
        ("step", dict(chosen=[(0, 1, 16), (1, 1, 17), (2, 1, 18)], read=True)),
    ])
    if not machine.adapter:
        # Multi-sequence batches took the one-kernel paths both ways.
        assert machine.pool.batched_encodes > 0
        assert machine.pool.batched_decodes > 0
    machine.teardown()


@pytest.mark.parametrize("name", _params(CONFIGS))
def test_a_fork_walk_charges_shared_rows_once(name):
    """A mid-chunk fork of a memoized parent, both sides growing past
    it, a fork of the fork, a full-length and a zero-length fork, then
    the root freed under its children: the fork rule checks the bytes a
    fork saves (only an aliasing store saves any), the model checks the
    charge-once totals after every step."""
    machine = walk(name, [
        ("allocate", {}),
        ("append_batch", dict(layer=None, chosen=[(0, 9, 1)])),
        ("read", dict(pick=0, layer=0)),
        ("fork", dict(pick=0, back=5, then_read=True)),
        ("append_batch", dict(layer=None, chosen=[(0, 1, 2), (1, 1, 3)])),
        ("fork", dict(pick=1, back=3, then_read=True)),
        ("fork", dict(pick=0, back=0, then_read=False)),
        ("fork", dict(pick=0, back=10, then_read=False)),
        ("free", dict(pick=0, again=False)),
        ("read_batch", dict(layer=0, chosen=[0, 1, 2, 3])),
        ("append_batch", dict(
            layer=None, chosen=[(0, 2, 4), (1, 1, 5), (3, 3, 6)]
        )),
        ("read_batch", dict(layer=1, chosen=[0, 1, 2, 3])),
    ])
    assert machine.pool.forks == 4
    assert machine.lengths(4) == (3, 3)  # the zero-length fork's own rows
    machine.teardown()


@pytest.mark.parametrize("name", _params(CONFIGS))
def test_every_failure_path_changes_nothing(name):
    """With layer 0 a row ahead of layer 1: a refused batch (a wide item,
    an unknown id), a wide one-row ``append`` on either layer, a
    capacity refusal on layer 0 and on layer 1 after
    layer 0 landed (batched and looped), a refused step (a wide or an
    uneven block on either layer, an unknown id, over capacity, a block
    more or fewer than the layers), a layer outside the pool's, a fork
    past the parent's rows or onto a live id, a double free, and a fork
    from the freed parent — each rule asserts the pool's state did not
    move."""
    machine = walk(name, [
        ("allocate", {}),
        ("allocate", {}),
        ("append_batch", dict(layer=None, chosen=[(0, 9, 1), (1, 3, 2)])),
        ("append_batch", dict(layer=0, chosen=[(0, 1, 3)])),
        ("refused_batch", dict(pick=0, other=1, seed=4, wide=True)),
        ("refused_batch", dict(pick=1, other=0, seed=5, wide=False)),
        ("append_one_row", dict(pick=0, layer=0, seed=12, wide=True)),
        ("append_one_row", dict(pick=1, layer=1, seed=13, wide=True)),
        ("capacity_refusal", dict(
            layer=0, chosen=[(0, 1, 6), (1, 2, 7)], batched=True
        )),
        ("capacity_refusal", dict(layer=0, chosen=[(1, 1, 8)], batched=False)),
        ("capacity_refusal", dict(
            layer=1, chosen=[(0, 1, 9), (1, 1, 10)], batched=True
        )),
        ("capacity_refusal", dict(
            layer=1, chosen=[(1, 3, 11)], batched=False
        )),
        *[
            ("step", dict(
                chosen=[(0, 1, 12), (1, 2, 13)], read=True,
                refusal=refusal, bad_layer=bad_layer,
            ))
            for refusal in ("wide", "uneven", "unknown", "capacity")
            for bad_layer in range(LAYERS)
        ],
        *[
            ("step", dict(
                chosen=[(0, 1, 12), (1, 2, 13)], read=True, refusal=refusal,
            ))
            for refusal in ("more", "fewer")
        ],
        ("refused_batch", dict(pick=0, other=1, seed=4, wide=False,
                               outside=-1)),
        ("refused_batch", dict(pick=1, other=0, seed=5, wide=False,
                               outside=LAYERS)),
        ("refused_fork", dict(pick=0, other=0, over=1, how="past")),
        ("refused_fork", dict(pick=0, other=1, over=2, how="onto")),
        ("refused_fork", dict(pick=0, other=0, over=2, how="fractional")),
        ("free", dict(pick=0, again=True)),
        ("refused_fork", dict(pick=0, other=0, over=1, how="freed")),
    ])
    assert machine.freed == [0]
    # A batch wide throughout: it agrees with itself, not with the rows
    # the sequence already holds.
    wide = np.zeros((2, DIM + 1), dtype=np.float32)
    before = machine.pool_state()
    with pytest.raises(ValueError):
        machine.pool.append_batch(0, [(1, wide, wide)])
    assert machine.pool_state() == before
    machine.teardown()


@pytest.mark.parametrize(
    "name", _params([config for config in CONFIGS if config.policy])
)
def test_forced_eviction_spills_and_reads_back(name):
    """Bursts larger than the device tier, batched and looped, on both
    layers and on a fork's child: each one evicts, later reads miss, and
    every read still decodes the oracle's bytes."""
    machine = walk(name, [
        ("allocate", {}),
        ("allocate", {}),
        ("append_batch", dict(layer=None, chosen=[(0, 5, 1), (1, 3, 2)])),
        ("forced_eviction", dict(pick=0, layer=0, seed=3, batched=True)),
        ("forced_eviction", dict(pick=1, layer=1, seed=4, batched=False)),
        ("fork", dict(pick=1, back=1, then_read=True)),
        ("forced_eviction", dict(pick=2, layer=0, seed=5, batched=True)),
        ("free", dict(pick=0, again=False)),
        ("read_batch", dict(layer=0, chosen=[0, 1])),
    ])
    assert machine.store.evictions > 0 and machine.store.misses > 0
    machine.teardown()


@pytest.mark.parametrize(
    "name",
    _params([
        config for config in CONFIGS
        if config.arena and config.method == "oaken"
    ]),
)
def test_the_arena_recycles_then_compacts(name):
    """A freed slice is the next reservation of its class; a forced
    compaction clears the dead rows a plain free leaves and keeps every
    slice's capacity and bytes; recycling works again afterwards."""
    machine = walk(name, [
        ("allocate", {}),
        ("allocate", {}),
        ("allocate", {}),
        ("append_batch", dict(
            layer=None, chosen=[(0, 17, 1), (1, 5, 2), (2, 40, 3)]
        )),
        ("free_then_allocate_same_class", dict(pick=1, seed=4)),
        ("free", dict(pick=0, again=False)),
    ])
    assert machine.arena.dead_rows > 0
    machine.compact()
    machine.pool_matches_the_model()
    for rule_name, kwargs in [
        ("free_then_allocate_same_class", dict(pick=0, seed=5)),
        ("append_batch", dict(
            layer=None, chosen=[(0, 9, 6), (1, 1, 7), (2, 1, 8)]
        )),
        ("read_batch", dict(layer=0, chosen=[0, 1, 2])),
    ]:
        getattr(machine, rule_name)(**kwargs)
        machine.pool_matches_the_model()
    assert machine.arena.compactions >= 1
    machine.teardown()
