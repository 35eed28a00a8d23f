"""Unit tests for the elementary transformer operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.ops import (
    apply_rope,
    causal_mask,
    layernorm,
    log_softmax,
    relu,
    rmsnorm,
    rope_angles,
    silu,
    softmax,
)


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_large_values_stable(self):
        x = np.array([1e9, 1e9 + 1.0])
        result = softmax(x)
        assert np.isfinite(result).all()

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(1).standard_normal(16)
        np.testing.assert_allclose(
            np.exp(log_softmax(x)), softmax(x), atol=1e-12
        )

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_property_distribution(self, seed):
        x = np.random.default_rng(seed).standard_normal((3, 9)) * 10
        p = softmax(x)
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0)


class TestNorms:
    def test_rmsnorm_unit_rms(self):
        x = np.random.default_rng(2).standard_normal((5, 32)) * 7
        normed = rmsnorm(x, np.ones(32))
        rms = np.sqrt(np.mean(normed**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-3)

    def test_layernorm_zero_mean_unit_var(self):
        x = np.random.default_rng(3).standard_normal((5, 32)) * 3 + 5
        normed = layernorm(x, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(normed.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(normed.var(axis=-1), 1.0, atol=1e-3)

    def test_gain_and_bias_applied(self):
        x = np.random.default_rng(4).standard_normal((2, 8))
        gained = layernorm(x, 2.0 * np.ones(8), 3.0 * np.ones(8))
        plain = layernorm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(gained, 2.0 * plain + 3.0)


class TestActivations:
    def test_silu_known_points(self):
        assert silu(np.array([0.0]))[0] == 0.0
        assert silu(np.array([100.0]))[0] == pytest.approx(100.0)

    def test_relu(self):
        np.testing.assert_array_equal(
            relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )


class TestRope:
    def test_rotation_preserves_norm(self):
        cos, sin = rope_angles(16, np.arange(10))
        x = np.random.default_rng(5).standard_normal((2, 10, 4, 16))
        rotated = apply_rope(x, cos, sin)
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=-1),
            np.linalg.norm(x, axis=-1),
            rtol=1e-10,
        )

    def test_position_zero_is_identity(self):
        cos, sin = rope_angles(8, np.array([0]))
        x = np.random.default_rng(6).standard_normal((1, 1, 2, 8))
        np.testing.assert_allclose(apply_rope(x, cos, sin), x)

    def test_relative_position_property(self):
        # <rope(q, m), rope(k, n)> depends only on m - n.
        dim = 16
        rng = np.random.default_rng(7)
        q = rng.standard_normal(dim)
        k = rng.standard_normal(dim)

        def dot_at(m, n):
            cos_m, sin_m = rope_angles(dim, np.array([m]))
            cos_n, sin_n = rope_angles(dim, np.array([n]))
            qm = apply_rope(q.reshape(1, 1, 1, dim), cos_m, sin_m)
            kn = apply_rope(k.reshape(1, 1, 1, dim), cos_n, sin_n)
            return float((qm * kn).sum())

        assert dot_at(5, 3) == pytest.approx(dot_at(12, 10), rel=1e-9)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_angles(7, np.arange(3))


class TestCausalMask:
    def test_lower_triangular(self):
        mask = causal_mask(4, 4)
        expected = np.tril(np.ones((4, 4), dtype=bool))
        np.testing.assert_array_equal(mask, expected)

    def test_sliding_window_limits_lookback(self):
        mask = causal_mask(6, 6, sliding_window=2)
        # Query 5 sees keys 4, 5 only.
        np.testing.assert_array_equal(
            mask[5], [False, False, False, False, True, True]
        )

    def test_window_larger_than_length_is_causal(self):
        np.testing.assert_array_equal(
            causal_mask(4, 4, sliding_window=100), causal_mask(4, 4)
        )

    def test_diagonal_always_visible(self):
        mask = causal_mask(8, 8, sliding_window=1)
        assert np.diag(mask).all()

    def test_newest_queries_are_the_full_masks_last_rows(self):
        for window in (None, 3):
            np.testing.assert_array_equal(
                causal_mask(2, 7, window), causal_mask(7, 7, window)[-2:]
            )
