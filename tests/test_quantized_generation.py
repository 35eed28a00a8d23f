"""Tests for autoregressive generation through the quantized cache."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from conftest import decode_logits
from repro.core.config import OakenConfig
from repro.data.corpus import calibration_corpus
from repro.engine import backend_for_model
from repro.models.generation import generate_with_quantized_cache
from repro.models.transformer import KVTransformBundle


@pytest.fixture(scope="module")
def calibration(small_model):
    return calibration_corpus(small_model, batch=3, length=48)


def fresh(model, calibration, **kwargs):
    """A fresh fused cache calibrated for ``model``."""
    return backend_for_model(model, calibration_tokens=calibration, **kwargs)


@pytest.fixture()
def fresh_cache(small_model, calibration):
    return fresh(small_model, calibration)


class TestQuantizedGeneration:
    def test_generates_requested_length(self, small_model, fresh_cache):
        result = generate_with_quantized_cache(
            small_model, fresh_cache, length=24, seed=0
        )
        assert result.tokens.shape == (1, 24)
        assert result.steps == 23

    def test_cache_filled_during_generation(self, small_model,
                                            fresh_cache):
        result = generate_with_quantized_cache(
            small_model, fresh_cache, length=16, seed=0
        )
        # The final token's KV is never attended to, so it is never
        # cached: 15 cached positions for 16 tokens.
        assert result.cache.length == 15
        assert result.cache.nbytes() > 0
        assert 4.0 < result.cache.effective_bitwidth() < 7.0

    def test_prompt_preserved(self, small_model, fresh_cache):
        prompt = np.arange(5).reshape(1, 5)
        result = generate_with_quantized_cache(
            small_model, fresh_cache, length=12, prompt=prompt, seed=1
        )
        np.testing.assert_array_equal(result.tokens[:, :5], prompt)

    def test_deterministic(self, small_model, calibration):
        a = generate_with_quantized_cache(
            small_model, fresh(small_model, calibration),
            length=20, seed=4,
        )
        b = generate_with_quantized_cache(
            small_model, fresh(small_model, calibration),
            length=20, seed=4,
        )
        np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_generated_text_plausible_under_fp_model(
        self, small_model, fresh_cache
    ):
        """Compounded quantization error must not derail generation.

        The FP model should assign the quantized-cache generation a
        mean token log-probability in the same band as its own exact
        samples — that is the deployment-quality claim.
        """
        result = generate_with_quantized_cache(
            small_model, fresh_cache, length=40, seed=2
        )
        ll = small_model.sequence_log_likelihood(result.tokens)
        per_token = float(ll[0]) / (result.tokens.shape[1] - 1)
        # Exact self-samples score around -log(ppl) ~= -3; random text
        # scores near -log(vocab) ~= -6.2.
        assert per_token > -4.5

    def test_stale_cache_rejected(self, small_model, fresh_cache):
        generate_with_quantized_cache(
            small_model, fresh_cache, length=8, seed=0
        )
        with pytest.raises(ValueError):
            generate_with_quantized_cache(
                small_model, fresh_cache, length=8, seed=0
            )

    def test_batch_prompt_rejected(self, small_model, fresh_cache):
        with pytest.raises(ValueError):
            generate_with_quantized_cache(
                small_model, fresh_cache, length=8,
                prompt=np.zeros((2, 2), dtype=int),
            )

    def test_invalid_temperature_rejected(self, small_model,
                                          fresh_cache):
        with pytest.raises(ValueError):
            generate_with_quantized_cache(
                small_model, fresh_cache, length=8, temperature=0.0
            )

    def test_layer_mismatch_rejected(self, small_model, calibration):
        from repro.models.config import get_model
        from repro.models.transformer import DecoderModel

        other = DecoderModel(get_model("llama2-13b"))
        cache = fresh(small_model, calibration)
        with pytest.raises(ValueError):
            generate_with_quantized_cache(other, cache, length=8)

    def test_custom_config_flows_through(self, small_model,
                                         calibration):
        config = OakenConfig.from_ratio_string("2/2/90/6")
        cache = fresh(small_model, calibration, config=config)
        result = generate_with_quantized_cache(
            small_model, cache, length=12, seed=0
        )
        assert result.cache.effective_bitwidth() > 5.0


class TestTeacherForcedEquivalence:
    """The deployment loop applies the corruption the accuracy harness
    measures: with the row-local fused kernel, quantized generation's
    logits are the teacher-forced forward's under the cache's own
    quantizers' roundtrip."""

    @pytest.mark.parametrize("mode", ["exact_f64", "deploy_f32"])
    def test_logits_match_forward_under_roundtrip(
        self, small_model, calibration, mode
    ):
        cache = fresh(small_model, calibration, mode=mode)
        result, logits = decode_logits(
            small_model, generate_with_quantized_cache, cache,
            length=40, seed=2,
        )
        bundle = KVTransformBundle(
            key_fns=[layer.key_quantizer.roundtrip for layer in cache.layers],
            value_fns=[
                layer.value_quantizer.roundtrip for layer in cache.layers
            ],
        )
        np.testing.assert_allclose(
            logits,
            small_model.forward(result.tokens[:, :-1], kv_transforms=bundle),
            rtol=1e-12, atol=1e-12,
        )

    def test_out_of_vocab_prompt_rejected(self, small_model, calibration):
        for bad in (-1, small_model.shape.vocab):
            with pytest.raises(ValueError, match=rf"token id {bad} "):
                generate_with_quantized_cache(
                    small_model, fresh(small_model, calibration),
                    length=4, prompt=[[bad]],
                )


def test_models_package_loads_no_engine_module():
    """The quantized loop lives in ``repro.models.generation``, yet
    ``import repro.models`` stays free of the engine layer."""
    code = (
        "import sys, repro.models; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.engine')))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
