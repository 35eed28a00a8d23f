"""Registry conformance for the unified cache-engine API.

Every method the registry knows must build a :class:`CacheBackend`
whose streaming append+read path is bit-identical to the method's
one-shot batch transform — that equivalence is what lets the serving
pool and the generation loop treat all Table 2 methods uniformly.
"""

import numpy as np
import pytest

from repro.baselines.registry import BASELINE_NAMES
from repro.engine import (
    BaselineCacheBackend,
    CacheBackend,
    FusedCacheBackend,
    KVCachePool,
    available_methods,
    backend_for_model,
    create_backend,
    create_quantizer,
)

from conftest import adapter_backend, make_kv_matrix

LAYERS = 2


@pytest.fixture(scope="module")
def calibration():
    """Per-layer (keys, values) calibration samples."""
    return [
        (make_kv_matrix(seed=10 + layer), make_kv_matrix(seed=20 + layer))
        for layer in range(LAYERS)
    ]


def stream_matrix(seed):
    """The [T, D] matrix each conformance check streams and compares."""
    return make_kv_matrix(tokens=24, seed=seed)


class TestRegistryConformance:
    @pytest.mark.parametrize("method", BASELINE_NAMES)
    def test_backend_builds_for_every_method(self, method, calibration):
        backend = create_backend(method, calibration=calibration)
        assert isinstance(backend, CacheBackend)
        assert backend.num_layers == LAYERS
        assert backend.length == 0
        assert backend.method == method

    @pytest.mark.parametrize("method", BASELINE_NAMES)
    @pytest.mark.parametrize("tensor_kind", ["key", "value"])
    def test_quantizer_builds_for_both_kinds(self, method, tensor_kind):
        quantizer = create_quantizer(method, tensor_kind)
        assert quantizer.tensor_kind == tensor_kind
        assert quantizer.name == method

    @pytest.mark.parametrize("method", BASELINE_NAMES)
    @pytest.mark.parametrize("tensor_kind", ["key", "value"])
    def test_streaming_matches_oneshot_roundtrip(
        self, method, tensor_kind, calibration
    ):
        """Chunked append+read == the method's batch ``roundtrip``."""
        backend = adapter_backend(method, calibration)
        keys = stream_matrix(seed=31)
        values = stream_matrix(seed=32)
        start = 0
        for rows in (5, 1, 1, 9, 1, 7):  # interleaved chunk sizes
            stop = start + rows
            backend.append(0, keys[start:stop], values[start:stop])
            start = stop
        assert start == keys.shape[0]
        streamed_k, streamed_v = backend.read(0)

        calib_keys, calib_values = calibration[0]
        # The reference transform must run under the backend's
        # ComputeMode (the engine layer defaults to deploy_f32).
        reference_key = create_quantizer(
            method, "key", mode=backend.mode
        ).fit([calib_keys])
        reference_value = create_quantizer(
            method, "value", mode=backend.mode
        ).fit([calib_values])
        streamed = streamed_k if tensor_kind == "key" else streamed_v
        reference = (
            reference_key if tensor_kind == "key" else reference_value
        )
        matrix = keys if tensor_kind == "key" else values
        np.testing.assert_array_equal(
            streamed, reference.roundtrip(matrix).astype(np.float32)
        )

    @pytest.mark.parametrize("method", BASELINE_NAMES)
    def test_storage_accounting_positive(self, method, calibration):
        backend = create_backend(method, calibration=calibration)
        backend.append(0, stream_matrix(41), stream_matrix(42))
        backend.append(1, stream_matrix(43), stream_matrix(44))
        assert backend.nbytes() > 0
        assert 0.0 < backend.effective_bitwidth() <= 16.0
        summary = backend.summary()
        assert summary["tokens"] == backend.length
        assert summary["bytes"] == backend.nbytes()


class TestFusedBackend:
    def test_the_method_selects_the_backend(self, calibration):
        backend = create_backend("oaken", calibration=calibration)
        assert isinstance(backend, FusedCacheBackend)
        adapter = create_backend("kivi", calibration=calibration)
        assert isinstance(adapter, BaselineCacheBackend)

    def test_fused_streaming_matches_adapter_oneshot(self, calibration):
        """Oaken quantizes per token, so the fused streaming cache and
        the batch adapter agree bit-for-bit on the same stream."""
        fused = create_backend("oaken", calibration=calibration)
        keys = stream_matrix(seed=51)
        values = stream_matrix(seed=52)
        for start in range(0, keys.shape[0], 3):
            fused.append(
                0, keys[start : start + 3], values[start : start + 3]
            )
        fk, fv = fused.read(0)
        calib_keys, calib_values = calibration[0]
        ref_k = create_quantizer(
            "oaken", "key", mode=fused.mode
        ).fit([calib_keys])
        ref_v = create_quantizer(
            "oaken", "value", mode=fused.mode
        ).fit([calib_values])
        np.testing.assert_array_equal(fk, ref_k.roundtrip(keys))
        np.testing.assert_array_equal(fv, ref_v.roundtrip(values))

    def test_fused_requires_calibration(self):
        with pytest.raises(ValueError):
            create_backend("oaken", num_layers=1)


class TestFactoryValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            create_backend("nonsense", num_layers=1)

    def test_layer_count_mismatch_rejected(self, calibration):
        with pytest.raises(ValueError):
            create_backend("fp16", num_layers=5, calibration=calibration)

    def test_missing_layer_count_rejected(self):
        with pytest.raises(ValueError):
            create_backend("fp16")

    def test_calibration_free_methods_need_no_samples(self):
        backend = create_backend("kivi", num_layers=1)
        backend.append(0, stream_matrix(61), stream_matrix(62))
        assert backend.length == 24

    def test_calibrated_methods_demand_samples(self):
        with pytest.raises(ValueError):
            create_backend("atom", num_layers=1)

    def test_config_override_only_for_oaken(self):
        from repro.core.config import OakenConfig

        with pytest.raises(ValueError):
            create_quantizer("kivi", config=OakenConfig())

    def test_registry_passthrough(self):
        assert set(BASELINE_NAMES) <= set(available_methods())


class TestModelIntegration:
    def test_generation_through_adapter_backend(self, small_model):
        """A baseline method is generatable through the same loop."""
        from repro.data.corpus import calibration_corpus
        from repro.models.generation import generate_with_quantized_cache

        calibration_tokens = calibration_corpus(
            small_model, batch=2, length=32
        )
        backend = backend_for_model(
            small_model, method="kivi",
            calibration_tokens=calibration_tokens,
        )
        result = generate_with_quantized_cache(
            small_model, backend, length=10, seed=0
        )
        assert result.tokens.shape == (1, 10)
        assert result.cache.length == 9
        assert result.cache.nbytes() > 0


class TestZeroRowAppend:
    def test_empty_append_establishes_empty_history(self):
        """A zero-row append reads back as an empty [0, D] history
        (the seed chunk-list behaviour), not an error."""
        backend = create_backend("fp16", num_layers=1)
        backend.append(0, np.empty((0, 16)), np.empty((0, 16)))
        assert backend.length == 0
        keys, values = backend.read(0)
        assert keys.shape == (0, 16)
        assert values.shape == (0, 16)


class TestSharedEncoders:
    @pytest.mark.parametrize("sequences", [1, 5])
    def test_a_pool_holds_one_encoder_per_layer(
        self, calibration, sequences
    ):
        """Every sequence of a chunk-store pool, forks included, runs
        its layer's kernels through the template's one encoder."""
        template = create_backend("oaken", calibration=calibration)
        pool = KVCachePool(lambda: template)
        rows = stream_matrix(seed=60)[:4]
        for seq in range(sequences):
            pool.allocate(seq)
            pool.step([(seq, [rows] * LAYERS, [rows] * LAYERS)])
        pool.fork(0, "fork", 2)
        caches = [template, *pool.store.caches.values()]
        assert len(caches) == sequences + 2
        encoders = {
            id(layer.encoder) for cache in caches for layer in cache.layers
        }
        assert encoders == {id(layer.encoder) for layer in template.layers}
        assert len(encoders) == LAYERS

    def test_an_encoder_over_other_quantizers_is_refused(self, calibration):
        backend = create_backend("oaken", calibration=calibration)
        with pytest.raises(ValueError, match="own key and value"):
            FusedCacheBackend(
                [layer.key_quantizer for layer in backend.layers],
                [layer.value_quantizer for layer in backend.layers],
                encoders=[layer.encoder for layer in backend.layers][::-1],
            )


def _fused(calibration):
    return create_backend("oaken", calibration=calibration)


def _arena(calibration):
    pool = KVCachePool(lambda: _fused(calibration), arena=True)
    return pool.allocate("seq")


def _adapter(calibration):
    return create_backend("fp16", num_layers=LAYERS)


def _chunked(calibration):
    pool = KVCachePool(lambda: _fused(calibration))
    return pool.allocate("seq")


class TestWidthRefusal:
    """A fused cache refuses rows of a width other than the one it
    holds, before the encode: stored, they would leave the layer
    unreadable."""

    @pytest.mark.parametrize("backend", [_fused, _chunked, _arena],
                             ids=["fused", "chunked-handle", "arena-handle"])
    def test_rows_of_another_width_are_refused(self, calibration, backend):
        cache = backend(calibration)
        rows = stream_matrix(seed=63)[:3]
        for layer in range(LAYERS):
            cache.append(layer, rows, rows)
        before = [
            tuple(a.tobytes() for a in cache.read(layer))
            for layer in range(LAYERS)
        ]
        bits = cache.footprint_bits()
        width = rows.shape[1]
        narrow = rows[:, : width // 2]
        with pytest.raises(
            ValueError, match=f"rows of width {width // 2}, but the "
            f"(layer|arena|store) holds rows of width {width}"
        ):
            cache.append(0, narrow, narrow)
        assert cache.length == 3
        assert cache.footprint_bits() == bits
        assert [
            tuple(a.tobytes() for a in cache.read(layer))
            for layer in range(LAYERS)
        ] == before



def _pool(calibration, store):
    if store == "adapter":
        return KVCachePool(lambda: adapter_backend("fp16", calibration))
    return KVCachePool(lambda: _fused(calibration), arena=store == "arena")


class TestPoolWidth:
    """A pool holds one model's KV: a sequence's handle refuses rows
    whose width is not the store's before anything is stored, on every
    store, and ``check_invariants`` asserts one width per store.  (A
    handle of the chunk or adapter store used to store them: the next
    ``read_batch`` over both sequences then failed.)"""

    @pytest.mark.parametrize("store", ["arena", "chunked", "adapter"])
    def test_a_fresh_handle_refuses_rows_of_another_width(
        self, calibration, store
    ):
        pool = _pool(calibration, store)
        rows = stream_matrix(seed=65)[:3]
        pool.allocate("a")
        pool.step([("a", [rows] * LAYERS, [rows] * LAYERS)])
        width = rows.shape[1]
        narrow = rows[:, : width // 2]
        handle = pool.allocate("b")
        with pytest.raises(
            ValueError, match=f"rows of width {width // 2}, but the "
            f"(arena|store) holds rows of width {width}"
        ):
            handle.append(0, narrow, narrow)
        assert handle.length == 0
        assert handle.footprint_bits()[0] == 0
        pool.check_invariants()
        handle.append(0, rows, rows)
        pool.check_invariants()
        assert [len(keys) for keys, _ in pool.read_batch(0, ["a", "b"])] == [
            3, 3,
        ]

    @pytest.mark.parametrize("store", ["chunked", "adapter"])
    def test_a_store_of_two_widths_fails_its_check(self, calibration, store):
        pool = _pool(calibration, store)
        rows = stream_matrix(seed=67)[:3]
        pool.allocate("a").append(0, rows, rows)
        handle = pool.allocate("b")
        handle.store = None  # a handle cut off from its store's width
        narrow = rows[:, :8]
        handle.append(0, narrow, narrow)
        with pytest.raises(AssertionError, match="width"):
            pool.check_invariants()


class TestLayerBounds:
    """A layer index outside ``0 .. L-1`` is refused, as the pool
    refuses it, and never counts from the end."""

    @pytest.mark.parametrize("backend", [_fused, _arena, _adapter],
                             ids=["fused", "arena", "adapter"])
    @pytest.mark.parametrize("layer", [-1, LAYERS])
    @pytest.mark.parametrize("op", ["append", "read"])
    def test_out_of_range_layer_refused(
        self, calibration, backend, layer, op
    ):
        cache = backend(calibration)
        rows = stream_matrix(seed=61)[:3]
        for held in range(LAYERS):
            cache.append(held, rows, rows)
        before = [cache.read(held)[0].tobytes() for held in range(LAYERS)]
        with pytest.raises(
            ValueError, match=f"layer {layer} outside the cache's "
            f"{LAYERS} layers"
        ):
            if op == "append":
                cache.append(layer, rows, rows)
            else:
                cache.read(layer)
        assert cache.length == 3
        assert [
            cache.read(held)[0].tobytes() for held in range(LAYERS)
        ] == before
