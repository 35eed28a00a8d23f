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
    available_methods,
    backend_for_model,
    create_backend,
    create_quantizer,
)

from conftest import make_kv_matrix

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
        backend = create_backend(method, "adapter",
                                 calibration=calibration)
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
    def test_auto_kind_selects_fused_for_oaken(self, calibration):
        backend = create_backend("oaken", calibration=calibration)
        assert isinstance(backend, FusedCacheBackend)
        adapter = create_backend("oaken", "adapter",
                                 calibration=calibration)
        assert isinstance(adapter, BaselineCacheBackend)

    def test_fused_streaming_matches_adapter_oneshot(self, calibration):
        """Oaken quantizes per token, so the fused streaming cache and
        the batch adapter agree bit-for-bit on the same stream."""
        fused = create_backend("oaken", "fused", calibration=calibration)
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

    def test_fused_requires_oaken(self, calibration):
        with pytest.raises(ValueError):
            create_backend("kivi", "fused", calibration=calibration)

    def test_fused_requires_calibration(self):
        with pytest.raises(ValueError):
            create_backend("oaken", "fused")


class TestFactoryValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            create_backend("nonsense", num_layers=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            create_backend("fp16", "magic", num_layers=1)

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
            create_backend("oaken", "adapter", num_layers=1)

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
