"""Unit tests for batched incremental generation."""

import numpy as np
import pytest

from conftest import decode_logits
from repro.models.config import get_model
from repro.models.generation import generate_tokens
from repro.models.transformer import DecoderModel


class TestGeneration:
    def test_shape(self, small_model):
        tokens = generate_tokens(small_model, batch=3, length=20, seed=0)
        assert tokens.shape == (3, 20)
        assert tokens.dtype == np.int64

    def test_tokens_in_vocab(self, small_model):
        tokens = generate_tokens(small_model, batch=2, length=16, seed=1)
        assert tokens.min() >= 0
        assert tokens.max() < small_model.shape.vocab

    def test_deterministic_per_seed(self, small_model):
        a = generate_tokens(small_model, batch=2, length=16, seed=7)
        b = generate_tokens(small_model, batch=2, length=16, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, small_model):
        a = generate_tokens(small_model, batch=2, length=16, seed=7)
        b = generate_tokens(small_model, batch=2, length=16, seed=8)
        assert not np.array_equal(a, b)

    def test_prompt_preserved(self, small_model):
        prompt = np.arange(6).reshape(1, 6)
        tokens = generate_tokens(
            small_model, batch=1, length=12, seed=0, prompt=prompt
        )
        np.testing.assert_array_equal(tokens[:, :6], prompt)

    def test_prompt_longer_than_length_truncated(self, small_model):
        prompt = np.arange(10).reshape(1, 10)
        tokens = generate_tokens(
            small_model, batch=1, length=5, seed=0, prompt=prompt
        )
        np.testing.assert_array_equal(tokens, prompt[:, :5])

    def test_prompt_batch_mismatch_rejected(self, small_model):
        with pytest.raises(ValueError):
            generate_tokens(
                small_model, batch=2, length=8, seed=0,
                prompt=np.zeros((3, 2), dtype=int),
            )

    def test_invalid_temperature_rejected(self, small_model):
        with pytest.raises(ValueError):
            generate_tokens(small_model, batch=1, length=4,
                            temperature=0.0)

    def test_incremental_matches_teacher_forced(self):
        """The cached decode's logits are the full forward's: llama2
        (MHA), mistral past its sliding window (GQA), mixtral (MoE)
        and opt (learned positions)."""
        for name, length in (
            ("llama2-7b", 18),
            ("mistral-7b", 112),
            ("mixtral-8x7b", 18),
            ("opt-6.7b", 18),
        ):
            model = DecoderModel(get_model(name))
            tokens, logits = decode_logits(
                model, generate_tokens, batch=2, length=length, seed=3
            )
            np.testing.assert_allclose(
                logits, model.forward(tokens[:, :-1]),
                rtol=1e-12, atol=1e-12, err_msg=name,
            )

    def test_sliding_window_model_generates(self):
        model = DecoderModel(get_model("mistral-7b"))
        length = model.shape.sliding_window + 16
        tokens = generate_tokens(model, batch=1, length=length, seed=0)
        assert tokens.shape == (1, length)

    def test_moe_model_generates(self):
        model = DecoderModel(get_model("mixtral-8x7b"))
        tokens = generate_tokens(model, batch=2, length=12, seed=0)
        assert tokens.shape == (2, 12)

    def test_opt_model_generates(self):
        model = DecoderModel(get_model("opt-6.7b"))
        tokens = generate_tokens(model, batch=2, length=12, seed=0)
        assert tokens.shape == (2, 12)

    def test_low_temperature_more_repetitive(self, small_model):
        cold = generate_tokens(
            small_model, batch=4, length=48, seed=5, temperature=0.2
        )
        hot = generate_tokens(
            small_model, batch=4, length=48, seed=5, temperature=2.0
        )
        assert len(np.unique(cold)) <= len(np.unique(hot))


class TestTokenIdValidation:
    """Ids outside [0, vocab) raise instead of aliasing embedding rows."""

    def test_forward_rejects(self, small_model):
        vocab = small_model.shape.vocab
        for bad in (-1, vocab):
            with pytest.raises(
                ValueError, match=rf"token id {bad} .*\[0, {vocab}\)"
            ):
                small_model.forward([[bad, 2, 3]])

    def test_generate_tokens_rejects_prompt(self, small_model):
        for bad in (-1, small_model.shape.vocab):
            with pytest.raises(ValueError, match=rf"token id {bad} "):
                generate_tokens(
                    small_model, batch=1, length=4, prompt=[[3, bad]]
                )
