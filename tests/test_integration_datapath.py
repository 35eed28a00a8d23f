"""Hardware-in-the-loop integration: engines under the full stack.

Runs the paged quantized KV cache — and whole-model autoregressive
generation — on engine-backed quantizers (the fused kernel priced in
Figure 9 engine cycles, one call per tensor) in place of the plain
stacked quantizers, asserting the system produces *identical* tokens
and cache bytes while the engine cycles accumulate.  This is the top
of the verification pyramid: stage models -> tensor equivalence ->
cache equivalence -> model-level equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import OakenConfig
from repro.core.kvcache import QuantizedKVCache
from repro.core.quantizer import OakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.engine import backend_for_model
from repro.hardware.datapath import (
    DatapathTiming,
    DequantTiming,
    EngineBackedQuantizer,
)
from repro.models.config import get_model
from repro.models.generation import generate_with_quantized_cache
from repro.models.transformer import DecoderModel


@pytest.fixture(scope="module")
def model():
    return DecoderModel(get_model("llama2-7b"))


def engine_backed_twin(cache: QuantizedKVCache) -> QuantizedKVCache:
    """Clone a cache's fitted quantizers onto streaming engines."""
    keys = [
        EngineBackedQuantizer(
            layer.key_quantizer.config, layer.key_quantizer.thresholds
        )
        for layer in cache.layers
    ]
    values = [
        EngineBackedQuantizer(
            layer.value_quantizer.config,
            layer.value_quantizer.thresholds,
        )
        for layer in cache.layers
    ]
    return QuantizedKVCache(keys, values)


class TestEngineBackedQuantizer:
    def test_matches_vectorized_roundtrip(self):
        rng = np.random.default_rng(5)
        cfg = OakenConfig()
        samples = [rng.standard_normal((32, 64)) * 3.0]
        thresholds = profile_thresholds(samples, cfg)
        reference = OakenQuantizer(cfg, thresholds)
        engine = EngineBackedQuantizer(cfg, thresholds)
        x = rng.standard_normal((8, 64)) * 3.0
        np.testing.assert_array_equal(
            engine.roundtrip(x), reference.roundtrip(x)
        )

    def test_accumulates_cycles(self):
        rng = np.random.default_rng(7)
        cfg = OakenConfig()
        thresholds = profile_thresholds(
            [rng.standard_normal((32, 64))], cfg
        )
        engine = EngineBackedQuantizer(cfg, thresholds)
        engine.roundtrip(rng.standard_normal((4, 64)))
        assert engine.quant_cycles > 0
        assert engine.dequant_cycles > 0
        assert engine.engine_time_s() > 0.0
        before = engine.engine_time_s()
        engine.roundtrip(rng.standard_normal((4, 64)))
        assert engine.engine_time_s() > before

    def test_engine_time_prices_each_engine_at_its_own_clock(self):
        rng = np.random.default_rng(9)
        cfg = OakenConfig()
        thresholds = profile_thresholds(
            [rng.standard_normal((32, 64))], cfg
        )
        quant_timing = DatapathTiming(freq_ghz=2.0)
        dequant_timing = DequantTiming(freq_ghz=0.5)
        engine = EngineBackedQuantizer(
            cfg,
            thresholds,
            quant_timing=quant_timing,
            dequant_timing=dequant_timing,
        )
        engine.roundtrip(rng.standard_normal((4, 64)))
        expected = (
            engine.quant_cycles / 2e9 + engine.dequant_cycles / 0.5e9
        )
        assert engine.engine_time_s() == pytest.approx(expected, rel=1e-12)


class TestCacheEquivalence:
    def test_cache_reads_identical(self, model):
        rng = np.random.default_rng(11)
        calibration = rng.integers(
            0, model.shape.vocab, size=(2, 48)
        )
        vectorized = backend_for_model(
            model, calibration_tokens=calibration, mode="exact_f64"
        )
        engined = engine_backed_twin(vectorized)
        kv = model.collect_layer_kv(calibration)
        for layer, (keys, values) in enumerate(kv):
            vectorized.append(layer, keys[:6], values[:6])
            engined.append(layer, keys[:6], values[:6])
        for layer in range(model.shape.n_layers):
            vec_k, vec_v = vectorized.read(layer)
            eng_k, eng_v = engined.read(layer)
            np.testing.assert_array_equal(eng_k, vec_k)
            np.testing.assert_array_equal(eng_v, vec_v)

    def test_cache_accounting_identical(self, model):
        rng = np.random.default_rng(13)
        calibration = rng.integers(0, model.shape.vocab, size=(2, 48))
        vectorized = backend_for_model(
            model, calibration_tokens=calibration, mode="exact_f64"
        )
        engined = engine_backed_twin(vectorized)
        kv = model.collect_layer_kv(calibration)
        for layer, (keys, values) in enumerate(kv):
            vectorized.append(layer, keys[:6], values[:6])
            engined.append(layer, keys[:6], values[:6])
        assert engined.nbytes() == vectorized.nbytes()
        assert engined.effective_bitwidth() == pytest.approx(
            vectorized.effective_bitwidth()
        )


class TestModelLevelEquivalence:
    def test_generation_token_for_token(self, model):
        """Full autoregressive decode through the streaming engines
        produces exactly the vectorized path's tokens."""
        rng = np.random.default_rng(17)
        calibration = rng.integers(0, model.shape.vocab, size=(2, 48))
        vectorized = backend_for_model(
            model, calibration_tokens=calibration, mode="exact_f64"
        )
        engined = engine_backed_twin(vectorized)
        prompt = rng.integers(0, model.shape.vocab, size=(1, 8))
        reference = generate_with_quantized_cache(
            model, vectorized, length=16, prompt=prompt, seed=23
        )
        hardware = generate_with_quantized_cache(
            model, engined, length=16, prompt=prompt, seed=23
        )
        np.testing.assert_array_equal(
            hardware.tokens, reference.tokens
        )

    def test_generation_reports_engine_cycles(self, model):
        rng = np.random.default_rng(19)
        calibration = rng.integers(0, model.shape.vocab, size=(2, 48))
        cache = engine_backed_twin(
            backend_for_model(
                model, calibration_tokens=calibration, mode="exact_f64"
            )
        )
        prompt = rng.integers(0, model.shape.vocab, size=(1, 4))
        generate_with_quantized_cache(
            model, cache, length=10, prompt=prompt, seed=29
        )
        engines = [
            layer.key_quantizer for layer in cache.layers
        ] + [layer.value_quantizer for layer in cache.layers]
        total = sum(
            q.quant_cycles + q.dequant_cycles for q in engines
        )
        assert total > 0
        # The decode loop re-reads the whole history per step, so
        # dequantization dominates the engine cycle budget.
        dequant = sum(q.dequant_cycles for q in engines)
        assert dequant > total / 2
