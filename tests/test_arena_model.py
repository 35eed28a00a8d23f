"""A stateful model of the fused KV stores (ROADMAP item 1a's store
and tiering axes).

One ``hypothesis`` :class:`RuleBasedStateMachine` drives a
``KVCachePool`` — the store is an input: ``arena`` in {True, False} x
{untiered, tiered on a device budget small enough to spill} — through
allocate / ragged ``append_batch`` (layers driven unevenly, zero-row
and repeated ids included) / 1-D ``append`` / ``read`` /
``read_batch`` / ``fork`` (any live sequence at any row: on the chunk
store that is mid-chunk boundaries, forks of forks, and — with the
reads that may follow at once — the decode memo's re-base) / ``free``
/ a refused batch, plus, on the arena,
free-then-allocate-in-the-same-size-class and forced ``compact()``, and,
on the tiered models, an append burst larger than the device tier;
against an oracle that is *only* per-sequence lists of the input rows
pushed through the layer quantizer's one-shot ``roundtrip()`` —
re-derived here, not imported from ``benchmarks/e2e/probe.py``, so the
two stay independent witnesses.  ``pool.check_invariants()`` (allocator
geometry, free lists, dead payload records, footprint accumulators,
chunk walks, refcounts, tier watermarks, the tiered store's frame
table) runs after every rule, and every live sequence is re-read at
teardown.

Counter-examples the machine shrinks are kept below it as named
regression tests.
"""

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

from repro.engine import KVCachePool, TieredKVStore, shared_backend_factory
from repro.engine.arena import _MIN_ROWS

from conftest import arena_state, make_kv_matrix

pytestmark = pytest.mark.arena

LAYERS = 2
DIM = 8
MAX_LIVE = 6

FACTORY = shared_backend_factory(
    "oaken",
    calibration=[
        (
            make_kv_matrix(
                tokens=48, dim=DIM, seed=70 + layer, outlier_channels=(1, 5)
            ),
            make_kv_matrix(
                tokens=48, dim=DIM, seed=80 + layer, outlier_channels=(1, 5)
            ),
        )
        for layer in range(LAYERS)
    ],
)
QUANTIZERS = [
    (layer.key_quantizer, layer.value_quantizer)
    for layer in FACTORY().layers
]

picks = st.integers(0, 2**16)
layers = st.integers(0, LAYERS - 1)
#: Row counts of one batch item: mostly decode-sized, now and then a
#: prompt-sized block that jumps size classes; zero rows is legal.
counts = st.sampled_from([0, 1, 1, 1, 2, 3, 5, 9, 17, 40])


def pool_state(pool):
    """Everything a refused batch must leave alone, at the pool
    boundary (whatever the store)."""
    return (
        pool.summary(),
        {
            seq: (pool.get(seq).footprint_bits(), pool.get(seq).length)
            for seq in pool.seq_ids
        },
        dict(pool._tier_seen),
        None if pool._arena is None else arena_state(pool._arena),
    )


class ArenaModel(RuleBasedStateMachine):
    #: The store under test; the subclasses below are the other three.
    ARENA = True
    TIERED = False

    def __init__(self):
        super().__init__()
        self.store = None
        if self.TIERED:
            # About a dozen rows' worth of device pages: runs spill.
            self.store = TieredKVStore(
                device_budget_bytes=1024.0, page_bytes=128
            )
        self.pool = KVCachePool(
            FACTORY, tiering=self.store, arena=self.ARENA
        )
        self.arena = self.pool._arena
        #: The oracle: history[seq][layer][tensor] -> list of row blocks.
        self.history = {}
        self.next_id = 0

    # -- helpers -------------------------------------------------------

    def pick(self, pick, where=lambda seq: True):
        seqs = [seq for seq in self.history if where(seq)]
        return seqs[pick % len(seqs)]

    def length(self, seq, layer):
        return sum(block.shape[0] for block in self.history[seq][layer][0])

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
        self.history[seq] = [([], []) for _ in range(LAYERS)]
        return seq

    def record(self, seq, layer, keys, values):
        self.history[seq][layer][0].append(np.atleast_2d(keys))
        self.history[seq][layer][1].append(np.atleast_2d(values))

    def check_read(self, seq, layer, got):
        for tensor, have in enumerate(got):
            exact = np.concatenate(self.history[seq][layer][tensor])
            want = QUANTIZERS[layer][tensor].roundtrip(exact)
            assert have.tobytes() == want.tobytes(), (seq, layer, tensor)
            assert have.shape == want.shape
            assert have.flags.c_contiguous and not have.flags.writeable
            if self.ARENA:
                mirror = self.arena.layers[layer].decoded
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
    @rule(
        layer=layers,
        items=st.lists(
            st.tuples(picks, counts, picks), min_size=1, max_size=5
        ),
    )
    def append_batch(self, layer, items):
        """Ragged, one layer at a time; an id may repeat in a batch."""
        batch = []
        for pick, count, seed in items:
            seq = self.pick(pick)
            keys, values = self.blocks(seed, count)
            batch.append((seq, keys, values))
            if count:
                self.record(seq, layer, keys, values)
        self.pool.append_batch(layer, batch)

    @precondition(lambda self: self.history)
    @rule(pick=picks, layer=layers, seed=picks)
    def append_one_row(self, pick, layer, seed):
        """A 1-D row through ``pool.append``: normalised at the boundary."""
        seq = self.pick(pick)
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
    @rule(pick=picks, cut=picks, then_read=st.booleans())
    def fork(self, pick, cut, then_read):
        """Any live sequence — a fork's child included — at any row;
        ``then_read`` reads both sides straight away, before anything
        else can make the decode memos current."""
        parent = self.pick(pick)
        shared = min(self.length(parent, layer) for layer in range(LAYERS))
        prefix_len = cut % (shared + 1)
        child = self.new_seq()
        self.pool.fork(parent, child, prefix_len)
        if not prefix_len:
            return
        for layer in range(LAYERS):
            for tensor in (0, 1):
                exact = np.concatenate(self.history[parent][layer][tensor])
                self.history[child][layer][tensor].append(exact[:prefix_len])
        if then_read:
            for seq in (child, parent):
                for layer in range(LAYERS):
                    self.check_read(seq, layer, self.pool.read(seq, layer))

    @precondition(lambda self: self.TIERED and self.history)
    @rule(pick=picks, layer=layers, seed=picks, batched=st.booleans())
    def forced_eviction(self, pick, layer, seed, batched):
        """One append burst larger than the whole device tier: pages
        spill, and every read still decodes the oracle's bytes."""
        seq = self.pick(pick)
        keys, values = self.blocks(seed, 48)
        footprint, evictions = self.pool.nbytes(), self.store.evictions
        if batched:
            self.pool.append_batch(layer, [(seq, keys, values)])
        else:
            self.pool.append(seq, layer, keys, values)
        self.record(seq, layer, keys, values)
        burst = self.pool.nbytes() - footprint
        assert burst > self.store.device_capacity_bytes
        assert self.store.evictions > evictions
        self.check_all_reads()

    @precondition(lambda self: self.history)
    @rule(pick=picks)
    def free(self, pick):
        seq = self.pick(pick)
        self.pool.free(seq)
        del self.history[seq]

    @precondition(
        lambda self: self.ARENA
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
        self.pool.free(old)
        del self.history[old]
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

    @precondition(lambda self: self.ARENA)
    @rule()
    def compact(self):
        """A forced pass: slices move, keep their capacity and their
        bytes; nothing is left dead."""
        before = {
            seq: (slc.cap, slc.generation, slc.bits, slc.elements)
            for seq, slc in self.arena.rows.items()
        }
        passes = self.arena.compactions
        self.arena.compact()
        assert self.arena.compactions == passes + 1
        assert self.arena.dead_rows == 0 and not self.arena.free_slices
        assert all(
            store.dead_records == 0 for store in self.arena.layers
        )
        for seq, (cap, generation, bits, elements) in before.items():
            slc = self.arena.rows[seq]
            assert (slc.cap, slc.generation, slc.bits, slc.elements) == (
                cap, generation + 1, bits, elements,
            )
        self.check_all_reads()

    @precondition(lambda self: self.history)
    @rule(pick=picks, other=picks, seed=picks, wide=st.booleans())
    def refused_batch(self, pick, other, seed, wide):
        """An unknown id, or a block the kernel refuses, after a good
        item: nothing — row table, free lists, chunk lists,
        accumulators, tier watermarks — moves."""
        seq = self.pick(pick)
        keys, values = self.blocks(seed, 40)
        bad = np.zeros((1, DIM + 1), dtype=np.float32)
        before = pool_state(self.pool)
        # (the arena takes the same batches below the pool, where an
        # unknown id is not caught by the pool's own lookup)
        for target in (self.pool, self.arena) if self.ARENA else (self.pool,):
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
            assert pool_state(self.pool) == before

    # -- invariants ----------------------------------------------------

    @invariant()
    def accounting_and_geometry_hold(self):
        self.pool.check_invariants()
        assert set(self.pool.seq_ids) == set(self.history)
        for seq in self.history:
            if self.ARENA:
                lengths = self.arena.rows[seq].length
            else:
                lengths = [lc.length for lc in self.pool.get(seq).layers]
            assert lengths == [
                self.length(seq, layer) for layer in range(LAYERS)
            ]
        if self.TIERED:
            assert self.store.device_bytes <= self.store.device_capacity_bytes

    def teardown(self):
        self.check_all_reads()
        for seq in list(self.history):
            self.pool.free(seq)
            self.pool.check_invariants()
        summary = self.pool.summary()
        assert summary["bytes"] == 0.0
        assert summary["shared_chunks"] == 0.0
        if self.ARENA:
            assert summary["arena_rows_live"] == 0.0
            assert self.arena.tail == self.arena.dead_rows
        if self.TIERED:
            assert self.store.total_pages() == 0


class ArenaTieredModel(ArenaModel):
    TIERED = True


class ChunkedModel(ArenaModel):
    ARENA = False


class ChunkedTieredModel(ChunkedModel):
    TIERED = True


def _case(model):
    model.TestCase.settings = settings(
        max_examples=60,
        stateful_step_count=30,
        deadline=None,
        derandomize=True,
        database=None,
    )
    return model.TestCase


TestArenaModel = _case(ArenaModel)
TestArenaTieredModel = _case(ArenaTieredModel)
TestChunkedModel = _case(ChunkedModel)
TestChunkedTieredModel = _case(ChunkedTieredModel)


# -- named regressions -------------------------------------------------
# (Shrunk counter-examples of the machine above, replayed by hand.)


def test_repeated_id_in_one_batch_keeps_item_order():
    """Two items for one sequence in one batch land back to back, in
    order, and cross a size class together (lengths advance after the
    write, so the second item's offset comes from the batch, not the
    row table)."""
    machine = ArenaModel()
    machine.allocate()
    machine.append_batch(0, [(0, 5, 1), (0, 9, 2), (0, 0, 3), (0, 1, 4)])
    machine.accounting_and_geometry_hold()
    slc = machine.arena.rows[0]
    assert slc.length == [15, 0] and slc.cap == 2 * _MIN_ROWS
    machine.read(0, 0)
    machine.teardown()


@pytest.mark.parametrize("model", [ChunkedModel, ChunkedTieredModel])
def test_fork_inside_a_memoized_chunk_rebases_the_memo(model):
    """A fork whose boundary falls inside a chunk the parent has already
    decoded splits that chunk in two; the parent's one decode memo must
    count both halves as decoded, or its next read decodes the tail
    half again.  Then the same one level down: a fork of the fork,
    inside the chunk the first fork aliased."""
    machine = model()
    machine.allocate()
    machine.append_batch(0, [(0, 9, 1)])
    machine.append_batch(1, [(0, 9, 2)])
    machine.read(0, 0)  # layer 0 memoized, layer 1 still pending
    machine.fork(0, 4, then_read=True)  # row 4 of a 9-row chunk
    machine.accounting_and_geometry_hold()
    parent = machine.pool.get(0).layers
    assert [len(lc._key_chunks) for lc in parent] == [2, 2]
    assert [lc._decoded.chunks_decoded for lc in parent] == [2, 2]
    for seq in (0, 1):
        for layer in range(LAYERS):
            machine.append_one_row(seq, layer, 3 + seq)
            machine.read(seq, layer)
    machine.fork(1, 2, then_read=False)  # fork of the fork, mid-chunk
    machine.accounting_and_geometry_hold()
    machine.append_batch(0, [(0, 1, 5), (1, 2, 6), (2, 3, 7)])
    machine.read_batch(0, [0, 1, 2])
    machine.accounting_and_geometry_hold()
    machine.teardown()
