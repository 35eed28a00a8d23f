"""KVCachePool: batched reads and appends vs. per-sequence loops,
bit-for-bit."""

import numpy as np
import pytest

from repro.engine import (
    CacheCapacityError,
    KVCachePool,
    create_backend,
    shared_backend_factory,
)

from conftest import adapter_backend, make_kv_matrix

LAYERS = 2
DIM = 64


@pytest.fixture(scope="module")
def calibration():
    return [
        (make_kv_matrix(seed=70 + layer), make_kv_matrix(seed=80 + layer))
        for layer in range(LAYERS)
    ]


def _quantizers(backend):
    """A backend's fitted quantizers, layer by layer, keys then values."""
    if hasattr(backend, "layers"):
        return [
            q
            for layer in backend.layers
            for q in (layer.key_quantizer, layer.value_quantizer)
        ]
    return [
        stream.quantizer
        for layer in range(backend.num_layers)
        for stream in backend.layer_streams(layer)
    ]


@pytest.fixture(scope="module", params=["oaken", "kivi"])
def factory(request, calibration):
    """Fused (merged-decode) and adapter (fallback) pool factories."""
    return shared_backend_factory(
        request.param, calibration=calibration
    )


def twin_pools(factory, count):
    batched = KVCachePool(factory)
    looped = KVCachePool(factory)
    for seq_id in range(count):
        batched.allocate(seq_id)
        looped.allocate(seq_id)
    return batched, looped


def append_rows(pools, seq_id, layer, seed, rows=1):
    keys = make_kv_matrix(tokens=rows, seed=seed)
    values = make_kv_matrix(tokens=rows, seed=seed + 10000)
    for pool in pools:
        pool.append(seq_id, layer, keys, values)


def assert_batch_equals_loop(batched, looped, layer, seq_ids):
    batch_reads = batched.read_batch(layer, seq_ids)
    loop_reads = [looped.read(seq_id, layer) for seq_id in seq_ids]
    for (bk, bv), (lk, lv) in zip(batch_reads, loop_reads):
        np.testing.assert_array_equal(bk, lk)
        np.testing.assert_array_equal(bv, lv)


class TestReadBatch:
    def test_matches_looped_reads_after_interleaved_appends(
        self, factory
    ):
        batched, looped = twin_pools(factory, 4)
        seq_ids = list(range(4))
        seed = 0
        for step, rows in enumerate([3, 1, 4, 1, 1, 2]):
            for seq_id in seq_ids:
                # Ragged appends: sequences grow at different rates.
                count = rows if (seq_id + step) % 2 else 1
                for layer in range(LAYERS):
                    seed += 1
                    append_rows(
                        (batched, looped), seq_id, layer, seed, count
                    )
            for layer in range(LAYERS):
                assert_batch_equals_loop(
                    batched, looped, layer, seq_ids
                )

    def test_matches_after_sequence_retirement(self, factory):
        batched, looped = twin_pools(factory, 5)
        seed = 500
        for seq_id in range(5):
            for layer in range(LAYERS):
                seed += 1
                append_rows((batched, looped), seq_id, layer, seed, 2)
        for layer in range(LAYERS):
            assert_batch_equals_loop(
                batched, looped, layer, list(range(5))
            )
        # Retire two sequences, admit a fresh one, keep streaming.
        for pool in (batched, looped):
            pool.free(1)
            pool.free(3)
            pool.allocate(9)
        survivors = [0, 2, 4, 9]
        for step in range(3):
            for seq_id in survivors:
                for layer in range(LAYERS):
                    seed += 1
                    append_rows(
                        (batched, looped), seq_id, layer, seed, 1
                    )
            for layer in range(LAYERS):
                assert_batch_equals_loop(
                    batched, looped, layer, survivors
                )

    def test_duplicate_seq_ids_decode_once(self, factory):
        """Repeated ids must not double-commit pending chunks."""
        pool = KVCachePool(factory)
        pool.allocate(0)
        pool.allocate(1)
        append_rows((pool,), 0, 0, seed=910, rows=1)
        append_rows((pool,), 1, 0, seed=911, rows=1)
        reads = pool.read_batch(0, [0, 0, 1])
        assert reads[0][0].shape[0] == 1
        np.testing.assert_array_equal(reads[0][0], reads[1][0])
        # Later appends still decode correctly.
        append_rows((pool,), 0, 0, seed=912, rows=1)
        keys, _ = pool.read(0, 0)
        assert keys.shape[0] == 2
        expected, _ = pool.read_batch(0, [0, 1])[0]
        np.testing.assert_array_equal(keys, expected)

    def test_single_sequence_batch(self, factory):
        batched, looped = twin_pools(factory, 1)
        append_rows((batched, looped), 0, 0, seed=900, rows=4)
        assert_batch_equals_loop(batched, looped, 0, [0])

    def test_read_order_follows_seq_ids(self, factory):
        pool = KVCachePool(factory)
        for seq_id in (7, 3):
            pool.allocate(seq_id)
        pool.append(7, 0, make_kv_matrix(2, seed=1),
                    make_kv_matrix(2, seed=2))
        pool.append(3, 0, make_kv_matrix(5, seed=3),
                    make_kv_matrix(5, seed=4))
        reads = pool.read_batch(0, [3, 7])
        assert reads[0][0].shape[0] == 5
        assert reads[1][0].shape[0] == 2

    def test_fused_pool_uses_merged_decodes(self, calibration):
        factory = shared_backend_factory("oaken",
                                         calibration=calibration)
        pool = KVCachePool(factory)
        for seq_id in range(3):
            pool.allocate(seq_id)
            pool.append(seq_id, 0, make_kv_matrix(1, seed=seq_id),
                        make_kv_matrix(1, seed=50 + seq_id))
        assert pool.batched_decodes == 0
        pool.read_batch(0, [0, 1, 2])
        assert pool.batched_decodes == 1  # keys over values, one call
        # Nothing pending: a second batched read decodes nothing new.
        pool.read_batch(0, [0, 1, 2])
        assert pool.batched_decodes == 1


def assert_same_cache_state(batched, looped, seq_ids):
    """Full bit-for-bit comparison of two pools' cache contents.

    Compares every encoded chunk array when the backends are fused
    caches (append_batch must store *identical* chunks, not merely
    chunks that decode identically), and always compares full reads.
    """
    for seq_id in seq_ids:
        b, l = batched.get(seq_id), looped.get(seq_id)
        assert b.length == l.length
        for layer in range(LAYERS):
            if hasattr(b, "layers"):
                bl, ll = b.layers[layer], l.layers[layer]
                assert len(bl._key_chunks) == len(ll._key_chunks)
                chunk_pairs = zip(
                    bl._key_chunks + bl._value_chunks,
                    ll._key_chunks + ll._value_chunks,
                )
                for bc, lc in chunk_pairs:
                    assert bc.shape == lc.shape
                    np.testing.assert_array_equal(
                        bc.dense_codes, lc.dense_codes
                    )
                    np.testing.assert_array_equal(
                        bc.middle_lo, lc.middle_lo
                    )
                    np.testing.assert_array_equal(
                        bc.middle_hi, lc.middle_hi
                    )
                    np.testing.assert_array_equal(
                        bc.band_lo, lc.band_lo
                    )
                    np.testing.assert_array_equal(
                        bc.band_hi, lc.band_hi
                    )
                    np.testing.assert_array_equal(
                        bc.sparse_token, lc.sparse_token
                    )
                    np.testing.assert_array_equal(
                        bc.sparse_pos, lc.sparse_pos
                    )
                    np.testing.assert_array_equal(
                        bc.sparse_band, lc.sparse_band
                    )
                    np.testing.assert_array_equal(
                        bc.sparse_side, lc.sparse_side
                    )
                    np.testing.assert_array_equal(
                        bc.sparse_mag_code, lc.sparse_mag_code
                    )
            has_rows = (
                b.layers[layer].length
                if hasattr(b, "layers")
                else b._keys[layer].length
            )
            if has_rows:
                bk, bv = b.read(layer)
                lk, lv = l.read(layer)
                np.testing.assert_array_equal(bk, lk)
                np.testing.assert_array_equal(bv, lv)


class TestAppendBatch:
    def test_matches_looped_appends_uniform_rows(self, factory):
        batched, looped = twin_pools(factory, 4)
        seq_ids = list(range(4))
        seed = 3000
        for step in range(4):
            for layer in range(LAYERS):
                updates = {}
                for seq_id in seq_ids:
                    seed += 1
                    keys = make_kv_matrix(tokens=1, seed=seed)
                    values = make_kv_matrix(tokens=1, seed=seed + 7777)
                    updates[seq_id] = (keys, values)
                    looped.append(seq_id, layer, keys, values)
                batched.append_batch(layer, updates)
        assert_same_cache_state(batched, looped, seq_ids)

    def test_matches_looped_appends_ragged_rows(self, factory):
        """Sequences appending different row counts in one batch."""
        batched, looped = twin_pools(factory, 4)
        seq_ids = list(range(4))
        seed = 4000
        for step, counts in enumerate(
            [(3, 1, 5, 2), (1, 4, 1, 1), (2, 2, 7, 1)]
        ):
            for layer in range(LAYERS):
                updates = []
                for seq_id, rows in zip(seq_ids, counts):
                    seed += 1
                    keys = make_kv_matrix(tokens=rows, seed=seed)
                    values = make_kv_matrix(
                        tokens=rows, seed=seed + 7777
                    )
                    updates.append((seq_id, keys, values))
                    looped.append(seq_id, layer, keys, values)
                batched.append_batch(layer, updates)
        assert_same_cache_state(batched, looped, seq_ids)

    def test_empty_update_sequences_skipped(self, factory):
        """Zero-row updates contribute nothing — no chunk, no growth."""
        batched, looped = twin_pools(factory, 3)
        seq_ids = list(range(3))
        seed = 5000
        for layer in range(LAYERS):
            updates = []
            for seq_id, rows in zip(seq_ids, (2, 0, 3)):
                seed += 1
                keys = make_kv_matrix(tokens=rows, seed=seed)
                values = make_kv_matrix(tokens=rows, seed=seed + 7777)
                updates.append((seq_id, keys, values))
                if rows:
                    looped.append(seq_id, layer, keys, values)
            batched.append_batch(layer, updates)
        assert batched.get(1).length == 0
        assert_same_cache_state(batched, looped, [0, 2])

    def test_all_empty_batch_is_noop(self, factory):
        pool = KVCachePool(factory)
        pool.allocate(0)
        pool.allocate(1)
        empty = np.empty((0, DIM))
        pool.append_batch(0, {0: (empty, empty), 1: (empty, empty)})
        assert pool.get(0).length == 0
        assert pool.batched_encodes == 0

    def test_single_nonempty_update_falls_back_to_append(self, factory):
        batched, looped = twin_pools(factory, 2)
        keys = make_kv_matrix(tokens=2, seed=6000)
        values = make_kv_matrix(tokens=2, seed=6001)
        batched.append_batch(0, {0: (keys, values)})
        looped.append(0, 0, keys, values)
        assert batched.batched_encodes == 0
        assert_same_cache_state(batched, looped, [0])

    def test_shape_mismatch_rejected(self, factory):
        pool = KVCachePool(factory)
        pool.allocate(0)
        with pytest.raises(ValueError):
            pool.append_batch(
                0,
                {0: (make_kv_matrix(2, seed=1),
                     make_kv_matrix(3, seed=2))},
            )

    def test_unknown_sequence_rejected(self, factory):
        pool = KVCachePool(factory)
        with pytest.raises(KeyError):
            pool.append_batch(
                0,
                {"ghost": (make_kv_matrix(1, seed=1),
                           make_kv_matrix(1, seed=2))},
            )

    def test_fused_pool_counts_batched_encodes(self, calibration):
        factory = shared_backend_factory(
            "oaken", calibration=calibration
        )
        pool = KVCachePool(factory)
        for seq_id in range(3):
            pool.allocate(seq_id)
        pool.append_batch(
            0,
            {
                seq_id: (
                    make_kv_matrix(1, seed=seq_id),
                    make_kv_matrix(1, seed=50 + seq_id),
                )
                for seq_id in range(3)
            },
        )
        # One merged kernel call: keys and values go in row-stacked.
        assert pool.batched_encodes == 1
        assert pool.summary()["batched_encodes"] == 1.0

    def test_adapter_backends_fall_back_to_loop(self, calibration):
        factory = shared_backend_factory(
            "kivi", calibration=calibration
        )
        batched, looped = twin_pools(factory, 2)
        seed = 7000
        for layer in range(LAYERS):
            updates = {}
            for seq_id in range(2):
                seed += 1
                keys = make_kv_matrix(tokens=2, seed=seed)
                values = make_kv_matrix(tokens=2, seed=seed + 7777)
                updates[seq_id] = (keys, values)
                looped.append(seq_id, layer, keys, values)
            batched.append_batch(layer, updates)
        assert batched.batched_encodes == 0
        assert_same_cache_state(batched, looped, [0, 1])

    def test_batched_appends_feed_batched_reads(self, calibration):
        """The fused write and read paths compose bit-for-bit."""
        factory = shared_backend_factory(
            "oaken", calibration=calibration
        )
        batched, looped = twin_pools(factory, 3)
        seq_ids = list(range(3))
        seed = 8000
        for step in range(3):
            for layer in range(LAYERS):
                updates = {}
                for seq_id in seq_ids:
                    seed += 1
                    keys = make_kv_matrix(tokens=1, seed=seed)
                    values = make_kv_matrix(
                        tokens=1, seed=seed + 7777
                    )
                    updates[seq_id] = (keys, values)
                    looped.append(seq_id, layer, keys, values)
                batched.append_batch(layer, updates)
            for layer in range(LAYERS):
                assert_batch_equals_loop(
                    batched, looped, layer, seq_ids
                )
        assert batched.batched_encodes > 0
        assert batched.batched_decodes > 0


class TestAdapterBatchedAppends:
    """Adapter pools store batched appends as exact rows, end state
    bit-identical to per-sequence ``append`` loops; row-local methods
    quantize on the read side, one merged ``roundtrip_batch`` per
    tensor across the resident set."""

    ROW_LOCAL = ["fp16", "oaken", "qserve", "atom", "tender"]
    HISTORY_GLOBAL = ["kivi", "kvquant"]

    def _stream_pools(self, method, calibration, count=3, steps=3):
        factory = adapter_backend(method, calibration).twin
        batched, looped = twin_pools(factory, count)
        seq_ids = list(range(count))
        seed = 9500
        for step in range(steps):
            for layer in range(LAYERS):
                updates = []
                for seq_id in seq_ids:
                    seed += 1
                    # Ragged batches: row counts differ per sequence.
                    rows = 1 + (seq_id + step) % 2
                    keys = make_kv_matrix(tokens=rows, seed=seed)
                    values = make_kv_matrix(
                        tokens=rows, seed=seed + 10000
                    )
                    updates.append((seq_id, keys, values))
                    looped.append(seq_id, layer, keys, values)
                batched.append_batch(layer, updates)
        return batched, looped, seq_ids

    @pytest.mark.parametrize("method", ROW_LOCAL)
    def test_row_local_methods_batch_bit_identically(
        self, method, calibration
    ):
        batched, looped, seq_ids = self._stream_pools(
            method, calibration
        )
        assert_same_cache_state(batched, looped, seq_ids)

    @pytest.mark.parametrize("method", HISTORY_GLOBAL)
    def test_history_global_methods_fall_back(
        self, method, calibration
    ):
        batched, looped, seq_ids = self._stream_pools(
            method, calibration
        )
        assert_same_cache_state(batched, looped, seq_ids)

    def test_batched_reads_quantize_the_appended_rows(self, calibration):
        """Appends store rows; the next batched read quantizes every
        sequence's new rows in one merged roundtrip per tensor, and a
        second read is a pure memo hit."""
        batched, looped, seq_ids = self._stream_pools(
            "qserve", calibration
        )
        assert batched.batched_roundtrips == 0
        for layer in range(LAYERS):
            assert_batch_equals_loop(batched, looped, layer, seq_ids)
        assert batched.batched_roundtrips == 2 * LAYERS
        for layer in range(LAYERS):
            assert_batch_equals_loop(batched, looped, layer, seq_ids)
        assert batched.batched_roundtrips == 2 * LAYERS

    def test_empty_updates_skipped_but_rest_batches(self, calibration):
        factory = shared_backend_factory(
            "fp16", num_layers=LAYERS
        )
        batched, looped = twin_pools(factory, 3)
        empty = np.empty((0, DIM))
        updates = [(1, empty, empty)]
        seed = 9700
        for seq_id in (0, 2):
            seed += 1
            keys = make_kv_matrix(tokens=2, seed=seed)
            values = make_kv_matrix(tokens=2, seed=seed + 10000)
            updates.append((seq_id, keys, values))
            looped.append(seq_id, 0, keys, values)
        batched.append_batch(0, updates)
        assert batched.get(1).length == 0
        assert_same_cache_state(batched, looped, [0, 2])

    def test_single_sequence_batch_falls_back(self, calibration):
        factory = shared_backend_factory(
            "fp16", num_layers=LAYERS
        )
        batched, looped = twin_pools(factory, 2)
        keys = make_kv_matrix(tokens=2, seed=9800)
        values = make_kv_matrix(tokens=2, seed=9801)
        batched.append_batch(0, {0: (keys, values)})
        looped.append(0, 0, keys, values)
        assert_same_cache_state(batched, looped, [0])

    def test_duplicate_seq_ids_append_like_a_loop(self, calibration):
        """Duplicated ids append twice, in order."""
        factory = shared_backend_factory(
            "qserve", calibration=calibration
        )
        batched, looped = twin_pools(factory, 2)
        updates = []
        seed = 9850
        for seq_id in (0, 0, 1):
            seed += 1
            keys = make_kv_matrix(tokens=1, seed=seed)
            values = make_kv_matrix(tokens=1, seed=seed + 10000)
            updates.append((seq_id, keys, values))
            looped.append(seq_id, 0, keys, values)
        batched.append_batch(0, updates)
        assert batched.get(0).length == 2
        assert_same_cache_state(batched, looped, [0, 1])

    def test_counter_reported_in_summary(self, calibration):
        factory = shared_backend_factory(
            "fp16", num_layers=LAYERS
        )
        pool = KVCachePool(factory)
        for seq_id in range(2):
            pool.allocate(seq_id)
        pool.append_batch(
            0,
            {
                seq_id: (
                    make_kv_matrix(1, seed=9900 + seq_id),
                    make_kv_matrix(1, seed=9950 + seq_id),
                )
                for seq_id in range(2)
            },
        )
        pool.read_batch(0, [0, 1])
        assert pool.batched_roundtrips == 2  # one per tensor
        assert pool.summary()["batched_roundtrips"] == 2.0


class TestLifecycle:
    def test_double_allocate_rejected(self, factory):
        pool = KVCachePool(factory)
        pool.allocate("a")
        with pytest.raises(ValueError):
            pool.allocate("a")

    def test_free_unknown_rejected(self, factory):
        with pytest.raises(KeyError):
            KVCachePool(factory).free("ghost")

    @pytest.mark.parametrize("method", ["oaken", "kivi"])
    def test_every_sequence_holds_the_templates_quantizers(
        self, method, calibration
    ):
        """The factory is called once, for the pool's template; every
        allocated or forked sequence holds that template's fitted
        quantizers (what lets any batch share one layer's kernels),
        even from a factory that would fit its own per backend."""
        built = []

        def unshared():
            built.append(create_backend(method, calibration=calibration))
            return built[-1]

        pool = KVCachePool(unshared)
        pool.allocate("a")
        pool.allocate("b")
        pool.fork("a", "c", 0)
        assert len(built) == 1
        fitted = _quantizers(built[0])
        for seq_id in ("a", "b", "c"):
            held = _quantizers(pool.get(seq_id))
            assert all(mine is theirs for mine, theirs in zip(held, fitted))
            assert len(held) == len(fitted) == 2 * LAYERS

    def test_a_backend_without_a_store_is_refused(self):
        with pytest.raises(TypeError, match="pool_store"):
            KVCachePool(object)

    def test_membership_and_len(self, factory):
        pool = KVCachePool(factory)
        pool.allocate("a")
        pool.allocate("b")
        assert "a" in pool and "c" not in pool
        assert len(pool) == 2
        assert pool.seq_ids == ["a", "b"]
        pool.free("a")
        assert len(pool) == 1

    def test_free_reports_whether_bytes_released(self, factory):
        pool = KVCachePool(factory)
        pool.allocate("empty")
        pool.allocate("full")
        pool.append(
            "full", 0,
            make_kv_matrix(tokens=2, seed=1),
            make_kv_matrix(tokens=2, seed=2),
        )
        # A never-appended cache holds no bytes: nothing to release.
        assert pool.free("empty") is False
        assert pool.free("full") is True

    def test_double_free_raises_keyerror_naming_sequence(self, factory):
        pool = KVCachePool(factory)
        pool.allocate("victim")
        pool.free("victim")
        with pytest.raises(KeyError, match="victim"):
            pool.free("victim")


class TestFootprint:
    def test_pool_bytes_sum_sequences(self, factory):
        pool = KVCachePool(factory)
        pool.allocate(0)
        pool.allocate(1)
        append_rows((pool,), 0, 0, seed=21, rows=4)
        append_rows((pool,), 1, 0, seed=22, rows=4)
        total = pool.nbytes()
        assert total == pytest.approx(
            pool.get(0).nbytes() + pool.get(1).nbytes()
        )
        assert pool.total_tokens() == 8
        assert 0 < pool.effective_bitwidth() <= 16.0

    def test_peak_survives_retirement(self, factory):
        pool = KVCachePool(factory)
        pool.allocate(0)
        append_rows((pool,), 0, 0, seed=23, rows=8)
        peak = pool.peak_bytes
        assert peak > 0
        pool.free(0)
        assert pool.nbytes() == 0
        assert pool.peak_bytes == peak

    def test_would_fit_budget(self, factory):
        pool = KVCachePool(factory, capacity_bytes=None)
        assert pool.would_fit(10**9)  # unbounded
        pool = KVCachePool(factory, capacity_bytes=10.0)
        pool.allocate(0)
        assert pool.would_fit(100)  # empty pool: nothing measured yet
        append_rows((pool,), 0, 0, seed=24, rows=4)
        assert pool.bytes_per_token() > 0
        assert not pool.would_fit(10_000)
        assert pool.would_fit(0) == (pool.nbytes() <= 10.0)

    def test_summary_keys(self, factory):
        pool = KVCachePool(factory)
        pool.allocate(0)
        append_rows((pool,), 0, 0, seed=25, rows=2)
        summary = pool.summary()
        assert summary["sequences"] == 1.0
        assert summary["tokens"] == 2.0
        assert summary["bytes"] > 0


class TestCapacityErrors:
    """Typed capacity refusals: diagnosable, retryable, non-mutating."""

    @pytest.mark.parametrize("capacity", [np.nan, 0, -1.0, np.inf])
    def test_a_budget_that_is_not_finite_and_positive_is_refused(
        self, factory, capacity
    ):
        """Nothing is measured before the first step, so such a budget
        would admit it and refuse every step after."""
        with pytest.raises(
            ValueError, match="capacity_bytes must be finite and > 0"
        ):
            KVCachePool(factory, capacity_bytes=capacity)

    def tiny_pool(self, factory, capacity=10.0):
        pool = KVCachePool(factory, capacity_bytes=capacity)
        pool.allocate(0)
        append_rows((pool,), 0, 0, seed=90, rows=4)
        return pool

    def test_append_raises_typed_error(self, factory):
        pool = self.tiny_pool(factory)
        with pytest.raises(CacheCapacityError) as excinfo:
            append_rows((pool,), 0, 0, seed=91, rows=64)
        error = excinfo.value
        assert error.seq_id == 0
        assert error.requested_bytes > 0
        assert error.measured_bytes > 0
        assert error.capacity_bytes == 10.0
        assert "retryable" in str(error)

    def test_error_is_a_runtime_error(self, factory):
        pool = self.tiny_pool(factory)
        with pytest.raises(RuntimeError):
            append_rows((pool,), 0, 0, seed=92, rows=64)

    def test_refused_append_leaves_pool_unchanged(self, factory):
        pool = self.tiny_pool(factory)
        before_tokens = pool.total_tokens()
        before_bytes = pool.nbytes()
        with pytest.raises(CacheCapacityError):
            append_rows((pool,), 0, 0, seed=93, rows=64)
        assert pool.total_tokens() == before_tokens
        assert pool.nbytes() == before_bytes

    def test_refused_batch_append_leaves_every_sequence_untouched(
        self, factory
    ):
        pool = KVCachePool(factory)
        pool.allocate(0)
        pool.allocate(1)
        append_rows((pool,), 0, 0, seed=90, rows=4)
        append_rows((pool,), 1, 0, seed=94, rows=4)
        # Bound the pool with headroom for a few tokens, not 64.
        pool.capacity_bytes = pool.nbytes() * 1.5
        before = pool.total_tokens()
        batch = {
            0: (make_kv_matrix(tokens=32, seed=95),
                make_kv_matrix(tokens=32, seed=96)),
            1: (make_kv_matrix(tokens=32, seed=97),
                make_kv_matrix(tokens=32, seed=98)),
        }
        with pytest.raises(CacheCapacityError):
            pool.append_batch(0, batch)
        assert pool.total_tokens() == before

    def test_unbounded_pool_never_raises(self, factory):
        pool = KVCachePool(factory)
        pool.allocate(0)
        append_rows((pool,), 0, 0, seed=99, rows=64)

    def test_first_append_to_empty_bounded_pool_admits(self, factory):
        # Nothing measured yet: the projection is undefined, so the
        # pool admits rather than refusing blind (matching would_fit).
        pool = KVCachePool(factory, capacity_bytes=1.0)
        pool.allocate(0)
        append_rows((pool,), 0, 0, seed=100, rows=2)
        assert pool.total_tokens() == 2


class TestAdapterBatchedReads:
    """Row-local adapter pools merge pending suffixes into one
    roundtrip per tensor — bit-identical to per-sequence reads."""

    ROW_LOCAL = ["fp16", "oaken", "qserve", "atom", "tender"]
    HISTORY_GLOBAL = ["kivi", "kvquant"]

    def _stream_pools(self, method, calibration, count=3, steps=3):
        factory = adapter_backend(method, calibration).twin
        batched, looped = twin_pools(factory, count)
        seq_ids = list(range(count))
        seed = 9100
        for step in range(steps):
            for layer in range(LAYERS):
                for seq_id in seq_ids:
                    seed += 1
                    append_rows(
                        (batched, looped), seq_id, layer, seed,
                        rows=1 + (seq_id + step) % 2,
                    )
                assert_batch_equals_loop(
                    batched, looped, layer, seq_ids
                )
        return batched, looped, seq_ids

    @pytest.mark.parametrize("method", ROW_LOCAL)
    def test_row_local_methods_batch_bit_identically(
        self, method, calibration
    ):
        batched, looped, seq_ids = self._stream_pools(
            method, calibration
        )
        assert batched.batched_roundtrips > 0
        assert looped.batched_roundtrips == 0
        assert_same_cache_state(batched, looped, seq_ids)

    @pytest.mark.parametrize("method", HISTORY_GLOBAL)
    def test_history_global_methods_fall_back(
        self, method, calibration
    ):
        batched, looped, seq_ids = self._stream_pools(
            method, calibration
        )
        assert batched.batched_roundtrips == 0
        assert_same_cache_state(batched, looped, seq_ids)

    def test_counter_reported_in_summary(self, calibration):
        factory = shared_backend_factory(
            "fp16", num_layers=LAYERS
        )
        pool = KVCachePool(factory)
        for seq_id in range(2):
            pool.allocate(seq_id)
            append_rows((pool,), seq_id, 0, 9900 + seq_id)
        pool.read_batch(0, [0, 1])
        assert pool.batched_roundtrips == 2  # one per tensor kind
        assert pool.summary()["batched_roundtrips"] == 2.0

    def test_single_pending_sequence_reads_lazily(self, calibration):
        """With one stale sequence there is nothing to merge."""
        factory = shared_backend_factory(
            "fp16", num_layers=LAYERS
        )
        pool = KVCachePool(factory)
        for seq_id in range(2):
            pool.allocate(seq_id)
            append_rows((pool,), seq_id, 0, 9950 + seq_id)
        pool.read(1, 0)  # sequence 1 is now memoized
        reads = pool.read_batch(0, [0, 1])
        assert pool.batched_roundtrips == 0
        for keys, values in reads:
            assert keys.shape[0] == 1
