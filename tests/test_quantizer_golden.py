"""Golden-equivalence tests: fused kernel vs. the frozen seed encoder.

The fused single-pass kernel in :mod:`repro.core.quantizer` must emit
exactly the arrays the seed implementation
(:mod:`repro.core.reference`) emitted, field for field, in its default
float64 compute mode — across every feature toggle and band
configuration.  The float32 deployment mode is held to its documented
tolerance instead: codes may move by at most one level and only for a
vanishing fraction of elements.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TABLE3_CONFIGURATIONS, OakenConfig
from repro.core.grouping import MIDDLE_GROUP, assign_groups
from repro.core.quantizer import (
    OakenQuantizer,
    QuantizeScratch,
    _kernel_plan,
    _outlier_coo,
)
from repro.core.reference import ReferenceOakenQuantizer
from repro.core.thresholds import profile_thresholds

from conftest import make_kv_matrix

_COO_FIELDS = (
    "dense_codes",
    "middle_lo",
    "middle_hi",
    "band_lo",
    "band_hi",
    "sparse_token",
    "sparse_pos",
    "sparse_band",
    "sparse_side",
    "sparse_mag_code",
)


def _pair(config, samples):
    thresholds = profile_thresholds(samples, config)
    return (
        ReferenceOakenQuantizer(config, thresholds),
        OakenQuantizer(config, thresholds),
    )


def _coo(x, config, thr):
    """(token, pos, band) of the fused kernel's sparse stream."""
    plan = _kernel_plan(config, (thr,), np.dtype(np.float64))
    flat, _, band = _outlier_coo(x[None], plan)
    token, pos = np.divmod(flat, x.shape[1])
    return token, pos, band


def assert_encoded_identical(expected, actual):
    for name in _COO_FIELDS:
        np.testing.assert_array_equal(
            getattr(expected, name), getattr(actual, name), err_msg=name
        )
        assert getattr(expected, name).dtype == getattr(actual, name).dtype
    if expected.sparse_fp16 is None:
        assert actual.sparse_fp16 is None
    else:
        np.testing.assert_array_equal(
            expected.sparse_fp16, actual.sparse_fp16
        )
    assert expected.shape == actual.shape


CONFIG_GRID = [
    OakenConfig(),
    OakenConfig(group_shift=False),
    OakenConfig(fused_encoding=False),
    OakenConfig(group_shift=False, fused_encoding=False),
    OakenConfig(outlier_bits=4),
] + [
    OakenConfig.from_ratio_string(spec, outlier_bits=bits)
    for spec, bits in TABLE3_CONFIGURATIONS
]


class TestGoldenEquivalence:
    @pytest.mark.parametrize("config", CONFIG_GRID)
    def test_encode_bit_identical(self, config, kv_matrix):
        reference, fused = _pair(config, [kv_matrix])
        assert_encoded_identical(
            reference.quantize(kv_matrix), fused.quantize(kv_matrix)
        )

    @pytest.mark.parametrize("config", CONFIG_GRID)
    def test_decode_bit_identical(self, config, kv_matrix):
        reference, fused = _pair(config, [kv_matrix])
        encoded = reference.quantize(kv_matrix)
        np.testing.assert_array_equal(
            reference.dequantize(encoded), fused.dequantize(encoded)
        )

    @given(seed=st.integers(0, 2000), scale=st.floats(0.05, 40.0))
    @settings(max_examples=25, deadline=None)
    def test_randomized_roundtrip_identical(self, seed, scale):
        x = make_kv_matrix(tokens=40, dim=48, seed=seed) * scale
        reference, fused = _pair(OakenConfig(), [x])
        assert_encoded_identical(reference.quantize(x), fused.quantize(x))
        np.testing.assert_array_equal(
            reference.roundtrip(x), fused.roundtrip(x)
        )

    def test_zero_outlier_rows(self, kv_samples):
        """Rows whose every element is a middle inlier."""
        reference, fused = _pair(OakenConfig(), kv_samples)
        thr = reference.thresholds
        # Values strictly between the inner magnitude edge and the
        # outer thresholds fall in the dense middle group.
        level = (thr.inner_mag[0] + thr.outer_hi[0]) / 2.0
        x = np.full((6, 32), level)
        x[::2] *= -1.0
        encoded_ref = reference.quantize(x)
        assert encoded_ref.num_outliers == 0
        assert_encoded_identical(encoded_ref, fused.quantize(x))
        np.testing.assert_array_equal(
            reference.roundtrip(x), fused.roundtrip(x)
        )

    def test_all_outlier_rows(self, kv_samples):
        """Rows fully routed to the sparse path (empty middle group)."""
        reference, fused = _pair(OakenConfig(), kv_samples)
        thr = reference.thresholds
        x = np.full((4, 32), thr.outer_hi[0] * 3.0)
        x[1] = thr.outer_lo[0] * 3.0
        x[2] = 0.0  # innermost shell touches zero
        encoded_ref = reference.quantize(x)
        assert encoded_ref.num_outliers == x.size
        assert_encoded_identical(encoded_ref, fused.quantize(x))
        np.testing.assert_array_equal(
            reference.roundtrip(x), fused.roundtrip(x)
        )

    def test_single_token(self, kv_samples):
        reference, fused = _pair(OakenConfig(), kv_samples)
        x = make_kv_matrix(tokens=1, seed=7)
        assert_encoded_identical(reference.quantize(x), fused.quantize(x))

    @pytest.mark.parametrize("mode", ["exact_f64", "deploy_f32"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_quantize_into_matches_quantize(self, kv_samples, mode, stacked):
        """The streaming entry point is the same encode, scratch reused,
        and nothing a scratch holds is part of a result: every encode
        and decode of a sequence of shapes on one scratch — cached
        plans, no rows, one too big to cache, a cached one again —
        still equals the one-shot encode and decode of its input after
        the last, on a per-tensor and on a row-stacked quantizer."""
        config = OakenConfig()
        thresholds = profile_thresholds(kv_samples, config)
        blocks = 1
        if stacked:
            values = profile_thresholds(
                [0.5 * sample for sample in kv_samples], config
            )
            thresholds = (thresholds, values)
            blocks = 2
        fused = OakenQuantizer(config, thresholds, mode)
        scratch = QuantizeScratch()
        for step in range(5):
            rows = make_kv_matrix(tokens=blocks * (1 + step % 3), seed=step)
            assert_encoded_identical(
                fused.quantize(rows), fused.quantize_into(rows, scratch)
            )
        held = []
        for step, tokens in enumerate((1, 3, 12, 0, 1024, 12)):
            rows = make_kv_matrix(tokens=blocks * tokens, seed=10 + step)
            encoded = fused.quantize_into(rows, scratch)
            held.append((rows, encoded, fused.dequantize(encoded)))
        for rows, encoded, decoded in held:
            expected = fused.quantize(rows)
            assert_encoded_identical(expected, encoded)
            assert encoded.thresholds == expected.thresholds
            want = fused.dequantize(expected)
            assert decoded.dtype == want.dtype
            assert decoded.tobytes() == want.tobytes()


class TestLabelEquivalence:
    """The gathered COO extraction replicates assign_groups exactly."""

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_coo_matches_label_matrix(self, seed):
        x = make_kv_matrix(tokens=24, dim=48, seed=seed)
        config = OakenConfig.from_ratio_string("2/2/90/3/3")
        thr = profile_thresholds([x], config)
        labels = assign_groups(x, thr).labels
        token, pos, band = _coo(x, config, thr)
        expected_token, expected_pos = np.nonzero(labels != MIDDLE_GROUP)
        np.testing.assert_array_equal(token, expected_token)
        np.testing.assert_array_equal(pos, expected_pos)
        np.testing.assert_array_equal(
            band, labels[expected_token, expected_pos]
        )

    def test_values_on_thresholds(self, kv_samples):
        """Exact threshold values route identically (boundary claims)."""
        config = OakenConfig()
        thr = profile_thresholds(kv_samples, config)
        edges = [
            thr.outer_lo[0], thr.outer_hi[0],
            thr.inner_mag[0], -thr.inner_mag[0], 0.0,
        ]
        x = np.array([edges * 4])  # one token, every edge repeated
        labels = assign_groups(x, thr).labels
        token, pos, band = _coo(x, config, thr)
        expected_token, expected_pos = np.nonzero(labels != MIDDLE_GROUP)
        np.testing.assert_array_equal(token, expected_token)
        np.testing.assert_array_equal(pos, expected_pos)
        np.testing.assert_array_equal(
            band, labels[expected_token, expected_pos]
        )


class TestFloat32Mode:
    def test_decode_within_tolerance(self, kv_samples, kv_matrix):
        """float32 mode: reconstruction within one quantization step."""
        config = OakenConfig()
        thresholds = profile_thresholds(kv_samples, config)
        exact = OakenQuantizer(config, thresholds)
        fast = OakenQuantizer(config, thresholds, mode="deploy_f32")
        a = exact.roundtrip(kv_matrix)
        b = fast.roundtrip(kv_matrix)
        # Scales are FP16-rounded in both modes; a one-level code move
        # is bounded by one middle-group step plus fp16 slack.
        encoded = exact.quantize(kv_matrix)
        span = (
            encoded.middle_hi.astype(np.float64)
            - encoded.middle_lo.astype(np.float64)
        )
        step = float(span.max()) / (2**config.inlier_bits - 1)
        assert float(np.abs(a - b).max()) <= step * 1.5 + 1e-3

    def test_codes_rarely_differ(self, kv_samples, kv_matrix):
        config = OakenConfig()
        thresholds = profile_thresholds(kv_samples, config)
        exact = OakenQuantizer(config, thresholds)
        # The legacy dtype-like spelling resolves to the same policy.
        fast = OakenQuantizer(config, thresholds, mode=np.float32)
        assert fast.mode.name == "deploy_f32"
        a = exact.quantize(kv_matrix)
        b = fast.quantize(kv_matrix)
        if a.num_outliers == b.num_outliers and np.array_equal(
            a.sparse_pos, b.sparse_pos
        ):
            mismatch = np.mean(a.dense_codes != b.dense_codes)
            assert mismatch < 1e-3

    def test_rejects_unsupported_dtype(self, kv_samples):
        config = OakenConfig()
        thresholds = profile_thresholds(kv_samples, config)
        with pytest.raises(ValueError):
            OakenQuantizer(config, thresholds, mode=np.int32)
        with pytest.raises(ValueError):
            OakenQuantizer(config, thresholds, mode="float16")
