"""Tiered paged KV hierarchy: eviction order, spill/promotion
accounting, and how fork and fractional footprints reach the store.

The store is a placement model (payloads never leave the backend
caches).  The cross-tier gate — for every registry method, under forced
eviction, every pool read looped or batched equals the one-shot
roundtrip of the rows — is a rule of the pool's state machine
(``tests/test_pool_model.py``).
"""

import math

import numpy as np
import pytest

from repro.baselines.registry import BASELINE_NAMES
from repro.engine import (
    CacheCapacityError,
    EVICTION_POLICIES,
    KVCachePool,
    MemoryCapacityError,
    TieredKVStore,
    default_transfer_model,
    shared_backend_factory,
)

from conftest import make_kv_matrix

pytestmark = pytest.mark.tiering

LAYERS = 2
DIM = 64


def host_pages(store):
    """``(seq_id, layer, page_index)`` of every spilled page."""
    return {
        (seq, layer, index)
        for seq, layers in store._seqs.items()
        for layer, (_, frames) in layers.items()
        for index, frame in enumerate(frames)
        if frame < 0
    }


def one_page_each(pages, policy):
    """A store of ``pages`` frames, each holding sequence ``i``'s page."""
    store = make_store(pages=pages, policy=policy)
    for seq in range(pages):
        store.record_append(seq, 0, store.page_bytes)
    assert store.evictions == 0
    return store


def spill_order(store, pages, seq=99):
    """Append ``pages`` full pages to ``seq``; the page each one
    evicts, in order."""
    order = []
    for _ in range(pages):
        before = host_pages(store), store.evictions
        store.record_append(seq, 0, store.page_bytes)
        (spilled,) = host_pages(store) - before[0]
        assert store.evictions == before[1] + 1
        store.check_invariants()
        order.append(spilled)
    return order


# ----------------------------------------------------------------------
# eviction policies, seen through which pages spill
# ----------------------------------------------------------------------


class TestLRUEviction:
    def test_victim_is_insertion_order_without_touches(self):
        store = one_page_each(4, "lru")
        assert spill_order(store, 4) == [(seq, 0, 0) for seq in range(4)]

    def test_touch_protects_a_page(self):
        store = one_page_each(4, "lru")
        store.record_read(0, 0)
        assert spill_order(store, 1) == [(1, 0, 0)]


class TestPLRUEviction:
    def test_rounds_ways_to_power_of_two(self):
        assert make_store(pages=5, policy="plru")._ways == 8

    def test_victim_is_always_occupied(self):
        # Non-power-of-two fill: padding leaves must never be chosen;
        # every append past the budget spills exactly one real page.
        store = one_page_each(5, "plru")
        order = spill_order(store, 20)
        assert len(set(order)) == 20
        assert len(host_pages(store)) == 20

    def test_touch_steers_victim_away(self):
        store = one_page_each(4, "plru")
        store.record_read(0, 0)
        assert spill_order(store, 1) != [(0, 0, 0)]

    def test_deterministic_victim_sequence(self):
        def run():
            store = one_page_each(6, "plru")
            for seq in (0, 3, 1, 4, 0):
                store.record_read(seq, 0)
            return spill_order(store, 6)

        assert run() == run() == [
            (seq, 0, 0) for seq in (2, 5, 1, 3, 4, 0)
        ]


@pytest.mark.parametrize("policy", EVICTION_POLICIES)
class TestFrames:
    def test_release_frees_the_frame(self, policy):
        store = one_page_each(2, policy)
        store.release(0)
        store.record_append(2, 0, store.page_bytes)
        assert store.evictions == 0
        assert store._seqs[2][0][1] == [0]  # sequence 0's frame, reused
        # Sequence 2's page is the hotter one under either policy.
        assert spill_order(store, 1) == [(1, 0, 0)]

    def test_capacity_one(self, policy):
        store = one_page_each(1, policy)
        assert spill_order(store, 2) == [(0, 0, 0), (99, 0, 0)]


class TestPolicyNames:
    @pytest.mark.parametrize("name", EVICTION_POLICIES)
    def test_known_names(self, name):
        assert make_store(policy=name).policy_name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown eviction policy") as err:
            make_store(policy="mru")
        assert str(EVICTION_POLICIES) in str(err.value)


# ----------------------------------------------------------------------
# transfer pricing
# ----------------------------------------------------------------------


class TestTransferModel:
    def test_zero_bytes_is_free(self):
        assert default_transfer_model().transfer_cycles(0, 4096) == 0.0

    def test_merged_run_beats_per_page_transfers(self):
        # The prefetcher's whole value proposition: one 2-page transfer
        # rides the burst curve better than two 1-page transfers.
        model = default_transfer_model()
        merged = model.transfer_cycles(2 * 4096, 2 * 4096)
        split = 2 * model.transfer_cycles(4096, 4096)
        assert merged < split

    def test_monotone_in_bytes(self):
        model = default_transfer_model()
        assert model.transfer_cycles(8192, 4096) > model.transfer_cycles(
            4096, 4096
        )


# ----------------------------------------------------------------------
# the tiered store (placement model alone)
# ----------------------------------------------------------------------


def make_store(pages=2, page_bytes=512, policy="lru", prefetch=1):
    return TieredKVStore(
        device_budget_bytes=pages * page_bytes,
        page_bytes=page_bytes,
        policy=policy,
        prefetch_pages=prefetch,
    )


class TestTieredKVStore:
    def test_within_budget_never_evicts(self):
        store = make_store(pages=4)
        store.record_append(0, 0, 2 * 512)
        store.record_read(0, 0)
        assert store.evictions == 0
        assert store.misses == 0
        assert store.hits == 2
        assert store.device_bytes == 2 * 512

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_forced_eviction_spills_to_host(self, policy):
        store = make_store(pages=2, policy=policy)
        store.record_append(0, 0, 5 * 512)
        assert store.evictions >= 3
        assert store.host_bytes > 0
        assert store.spilled_bytes > 0
        assert store.transfer_cycles > 0
        assert store.device_bytes <= store.device_capacity_bytes

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_budget_invariant_under_churn(self, policy):
        store = make_store(pages=3, policy=policy)
        for step in range(40):
            seq = step % 4
            store.record_append(seq, step % LAYERS, 300)
            store.record_read(seq, step % LAYERS)
            assert store.device_bytes <= store.device_capacity_bytes
            if step % 7 == 6:
                store.release(seq)
            store.check_invariants()

    def test_read_promotes_spilled_pages(self):
        store = make_store(pages=2, prefetch=0)
        store.record_append(0, 0, 5 * 512)
        assert store.host_bytes > 0
        store.record_read(0, 0)
        assert store.misses > 0
        assert store.promotions > 0
        assert store.promoted_bytes > 0

    def test_prefetch_merges_transfers(self):
        # Identical workloads; the prefetching store must pay fewer
        # transfer cycles on the read-back (merged runs) and record
        # the pages it pulled ahead of demand.
        stores = {
            p: make_store(pages=2, prefetch=p) for p in (0, 4)
        }
        for store in stores.values():
            store.record_append(0, 0, 6 * 512)
            read_cycles = store.record_read(0, 0)
            assert read_cycles > 0
        assert stores[4].prefetched_pages > 0
        assert stores[0].prefetched_pages == 0
        assert stores[4].promoted_bytes == stores[0].promoted_bytes
        assert stores[4].transfer_cycles < stores[0].transfer_cycles
        assert stores[4].misses < stores[0].misses

    def test_pressure_raises_transfer_cycles(self):
        def cycles_at(pages):
            store = make_store(pages=pages)
            for seq in range(3):
                store.record_append(seq, 0, 4 * 512)
            for seq in range(3):
                store.record_read(seq, 0)
            return store.transfer_cycles

        relaxed, tight = cycles_at(32), cycles_at(2)
        assert relaxed == 0.0
        assert tight > relaxed

    def test_release_frees_every_tier(self):
        store = make_store(pages=2)
        store.record_append(0, 0, 5 * 512)
        store.record_append(0, 1, 3 * 512)
        store.record_append(1, 0, 512)
        freed = store.release(0)
        assert freed == 8
        assert store.total_pages() == 1
        store.release(1)
        assert store.total_pages() == 0
        assert store.device_bytes == 0
        assert store.host_bytes == 0

    def test_sub_page_budget_degrades_to_one_page(self):
        store = TieredKVStore(device_budget_bytes=100, page_bytes=512)
        assert store.capacity_pages == 1
        store.record_append(0, 0, 3 * 512)
        assert store.device_bytes <= 512

    @pytest.mark.parametrize("budget", [math.nan, 0, -512.0, math.inf])
    def test_a_budget_that_is_not_finite_and_positive_is_refused(
        self, budget
    ):
        with pytest.raises(
            ValueError, match="device_budget_bytes must be finite and > 0"
        ):
            TieredKVStore(device_budget_bytes=budget, page_bytes=512)

    @pytest.mark.parametrize(
        "options", [{"page_bytes": 0.5}, {"page_bytes": 1.5},
                    {"page_bytes": 512.0}, {"prefetch_pages": 1.5}],
    )
    def test_a_fractional_page_count_is_refused(self, options):
        """``page_bytes=0.5`` used to floor to pages of no bytes, on
        which an append opened empty pages forever; ``1.5`` built a
        device tier short of its budget.  Refused at construction."""
        with pytest.raises(TypeError):
            TieredKVStore(device_budget_bytes=4096, **options)

    @pytest.mark.parametrize(
        "options, field",
        [({"page_bytes": 0}, "page_bytes"),
         ({"page_bytes": -512}, "page_bytes"),
         ({"prefetch_pages": -1}, "prefetch_pages")],
    )
    def test_a_page_count_out_of_range_is_refused(self, options, field):
        with pytest.raises(ValueError, match=field):
            TieredKVStore(device_budget_bytes=4096, **options)

    def test_integer_page_counts_of_any_type_are_taken(self):
        store = TieredKVStore(
            device_budget_bytes=4096, page_bytes=np.int64(1024),
            prefetch_pages=np.int32(2),
        )
        assert (store.page_bytes, store.prefetch_pages) == (1024, 2)
        assert type(store.page_bytes) is int
        assert store.capacity_pages == 4

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_identical_histories_identical_summaries(self, policy):
        def run():
            store = make_store(pages=3, policy=policy)
            for step in range(30):
                store.record_append(step % 3, 0, 400)
                store.record_read((step + 1) % 3, 0)
            return store.summary()

        assert run() == run()


# ----------------------------------------------------------------------
# capacity error hierarchy
# ----------------------------------------------------------------------


class TestErrorHierarchy:
    def test_cache_capacity_error_is_memory_capacity_error(self):
        err = CacheCapacityError(7, 1024.0, 4096.0, 2048.0)
        assert isinstance(err, MemoryCapacityError)
        assert err.seq_id == 7
        assert err.requested_bytes == 1024.0
        assert err.measured_bytes == 4096.0
        assert err.capacity_bytes == 2048.0

    def test_out_of_pages_error_is_memory_capacity_error(self):
        from repro.hardware.mmu import (
            MemoryManagementUnit,
            OutOfPagesError,
            PageTableKind,
        )

        mmu = MemoryManagementUnit(capacity_bytes=2 * 4096, page_bytes=4096)
        with pytest.raises(MemoryCapacityError) as excinfo:
            for token in range(64):
                mmu.write_entry(
                    sequence=3, layer=0, head=0,
                    kind=PageTableKind.DENSE, token=token, nbytes=512,
                )
        err = excinfo.value
        assert isinstance(err, OutOfPagesError)
        assert err.seq_id == 3
        assert err.requested_bytes == 4096.0
        assert err.capacity_bytes == 2 * 4096.0


# ----------------------------------------------------------------------
# cross-tier bit-exactness (the pinned gate)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def calibration():
    return [
        (make_kv_matrix(seed=70 + layer), make_kv_matrix(seed=80 + layer))
        for layer in range(LAYERS)
    ]


@pytest.fixture(scope="module")
def factories(calibration):
    """One shared fitted factory per registry method."""
    return {
        method: shared_backend_factory(method, calibration=calibration)
        for method in BASELINE_NAMES
    }


class TestCrossTierBitExactness:
    def test_free_releases_tier_pages(self, factories):
        store = TieredKVStore(
            device_budget_bytes=2 * 512, page_bytes=512
        )
        pool = KVCachePool(factories["oaken"], tiering=store)
        seq_ids = [0, 1]
        for seq_id in seq_ids:
            pool.allocate(seq_id)
        for layer in range(LAYERS):
            for seq_id in seq_ids:
                pool.append(
                    seq_id, layer,
                    make_kv_matrix(tokens=8, seed=seq_id),
                    make_kv_matrix(tokens=8, seed=10 + seq_id),
                )
        assert store.total_pages() > 0
        for seq_id in seq_ids:
            pool.free(seq_id)
        assert store.total_pages() == 0

    def test_pool_summary_carries_tier_counters(self, factories):
        store = TieredKVStore(
            device_budget_bytes=2 * 512, page_bytes=512
        )
        pool = KVCachePool(factories["oaken"], tiering=store)
        pool.allocate(0)
        pool.append(
            0, 0,
            make_kv_matrix(tokens=16, seed=1),
            make_kv_matrix(tokens=16, seed=2),
        )
        pool.read(0, 0)
        summary = pool.summary()
        assert summary["tier_pages_allocated"] > 0
        assert "tier_transfer_cycles" in summary
        assert "tier_evictions" in summary


class TestForkBytesReachTheStore:
    """A fork that *copies* the prefix (arena pools, adapter pools)
    stores new bytes, and the tiered store must hold pages for them; a
    fork that *aliases* chunks (the chunked fused pool) stores none."""

    PAGE = 256
    ROWS = 100

    def _forked(self, factory, arena=False):
        store = TieredKVStore(
            device_budget_bytes=1 << 20, page_bytes=self.PAGE
        )
        pool = KVCachePool(factory, tiering=store, arena=arena)
        pool.allocate(0)
        for layer in range(LAYERS):
            pool.append(
                0, layer,
                make_kv_matrix(tokens=self.ROWS, seed=layer),
                make_kv_matrix(tokens=self.ROWS, seed=10 + layer),
            )
        before = store.pages_allocated
        parent_bytes = pool.get(0).nbytes()
        pool.fork(0, 1, self.ROWS)
        pool.check_invariants()
        return pool, store, before, parent_bytes

    @pytest.mark.parametrize(
        "method, arena", [("oaken", True), ("kivi", False), ("atom", False)]
    )
    def test_copying_fork_is_charged_and_released(
        self, factories, method, arena
    ):
        pool, store, before, parent_bytes = self._forked(
            factories[method], arena=arena
        )
        assert pool.arena_enabled == arena
        copied = pool.get(1).nbytes()
        assert copied == parent_bytes > 0
        # The whole pool's bytes are paged, not just the parent's.
        assert pool.measure()[0] == 2 * parent_bytes
        grown = store.pages_allocated - before
        assert grown == -(-int(copied) // self.PAGE)
        assert (
            store.device_bytes + store.host_bytes
            >= int(pool.measure()[0])
        )
        assert pool._tier_seen[1] == copied
        # Divergent growth is charged on top, from the new watermark.
        pool.append(1, 0, make_kv_matrix(tokens=3, seed=5),
                    make_kv_matrix(tokens=3, seed=6))
        pool.check_invariants()
        held = store.total_pages()
        assert pool.free(1)
        assert store.total_pages() == before
        assert held > before
        pool.check_invariants()

    def test_aliasing_fork_allocates_no_page(self, factories):
        pool, store, before, parent_bytes = self._forked(factories["oaken"])
        assert not pool.arena_enabled
        assert store.pages_allocated == before
        assert pool.measure()[0] == parent_bytes  # charged once
        assert pool._tier_seen[1] == pool.get(1).nbytes()
        assert not pool.free(1)  # every chunk survives through the parent
        assert store.pages_allocated == before
        pool.check_invariants()


class TestFractionalBytes:
    """Footprints are fractional bytes; pages hold whole ones.  Every
    append charges the growth of the floored footprint, so no fraction
    is lost: a lone sequence's pages hold exactly ``floor(nbytes())``."""

    @pytest.mark.parametrize("method", BASELINE_NAMES)
    def test_page_fill_is_the_floored_footprint(self, factories, method):
        store = TieredKVStore(device_budget_bytes=1 << 20, page_bytes=256)
        pool = KVCachePool(factories[method], tiering=store)
        pool.allocate(0)
        for step in range(50):
            for layer in range(LAYERS):
                pool.append(
                    0, layer,
                    make_kv_matrix(tokens=1, seed=step),
                    make_kv_matrix(tokens=1, seed=100 + step),
                )
                fill = sum(sum(fills) for fills, _ in store._seqs[0].values())
                assert fill == math.floor(pool.nbytes()), (step, layer)
        pool.check_invariants()


class TestMultiRowStepIsIterations:
    """A decode step of ``t`` rows a sequence tells the tiered store
    what ``t`` one-row steps would have: the same notifications, in
    the same order, with the same byte values — so the store's
    counters, page tables and the pool's watermarks come out equal.
    Row counts are ragged: a sequence takes part in the one-row steps
    it has a row for."""

    #: ``(method, arena)``: the chunk store, the arena, and the
    #: adapter store under a row-local and a history-global method.
    STORES = [("oaken", False), ("oaken", True), ("fp16", False),
              ("kivi", False)]
    PROMPTS = (3, 5, 2)
    STRIDES = ((3, 1, 2), (2, 4, 4), (1, 1, 3))

    @staticmethod
    def _pools(factory, arena, policy):
        return [
            KVCachePool(factory, arena=arena, tiering=TieredKVStore(
                device_budget_bytes=4 * 256, page_bytes=256,
                policy=policy, prefetch_pages=2,
            ))
            for _ in range(2)
        ]

    @staticmethod
    def _rows(seed, tokens):
        """One [tokens, DIM] key and value block per layer."""
        return (
            [make_kv_matrix(tokens=tokens, seed=seed + 10 * layer)
             for layer in range(LAYERS)],
            [make_kv_matrix(tokens=tokens, seed=seed + 10 * layer + 5)
             for layer in range(LAYERS)],
        )

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    @pytest.mark.parametrize(
        "method, arena", STORES, ids=["chunked", "arena", "fp16", "kivi"]
    )
    def test_step_of_t_rows_is_t_one_row_steps(
        self, factories, method, arena, policy
    ):
        strided, single = self._pools(factories[method], arena, policy)
        for pool in (strided, single):
            for seq, rows in enumerate(self.PROMPTS):
                pool.allocate(seq)
                pool.step([(seq, *self._rows(seq, rows))], read=False)
        for stride, counts in enumerate(self.STRIDES):
            blocks = {
                seq: self._rows(100 * stride + seq, count)
                for seq, count in enumerate(counts)
            }
            store = strided.store
            before = {
                (seq, layer): store.layer_bits(seq, layer)
                for seq in blocks for layer in range(LAYERS)
            }
            strided.step([(seq, *rows) for seq, rows in blocks.items()])
            grown = {}
            for k in range(max(counts)):
                ids = [seq for seq, count in enumerate(counts) if count > k]
                held = {
                    (seq, layer): single.store.layer_bits(seq, layer)
                    for seq in ids for layer in range(LAYERS)
                }
                single.step([
                    (seq, *[[block[k : k + 1] for block in tensor]
                            for tensor in blocks[seq]])
                    for seq in ids
                ])
                for (seq, layer), bits in held.items():
                    grown.setdefault((seq, layer), []).append(
                        single.store.layer_bits(seq, layer) - bits
                    )
            for (seq, layer), bits in before.items():
                rows = store.row_bits(seq, layer, counts[seq])
                # Each row's bits are the growth its one-row step made,
                # and together the growth of the multi-row step.
                assert rows == grown[seq, layer]
                assert sum(rows) == store.layer_bits(seq, layer) - bits
            assert strided.tiering.summary() == single.tiering.summary()
            assert strided.tiering._seqs == single.tiering._seqs
            assert strided._tier_seen == single._tier_seen
            strided.check_invariants()
            single.check_invariants()
        # The device tier was too small for the steps: pages spilled,
        # missed and came back.
        summary = strided.tiering.summary()
        assert summary["evictions"] > 0 and summary["misses"] > 0
