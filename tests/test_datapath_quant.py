"""Bit-exact equivalence of the quantization datapath.

The element-streaming golden model (``tests/datapath_oracle.py``) is a
structural re-implementation of the algorithm — the Figure 9 stages one
after another instead of one fused kernel.  These tests check its
stages on their own, and assert it and the fused kernel produce
*identical* bits (codes, scales, COO streams) across configurations,
which is the functional-verification step between an RTL datapath and
its golden model.  The engine-backed quantizer's construction and
timing knobs are checked here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OakenConfig
from repro.core.grouping import MIDDLE_GROUP, GroupThresholds
from repro.core.quantizer import OakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.hardware.datapath import DatapathTiming, EngineBackedQuantizer

import datapath_oracle as oracle

PAPER_THRESHOLDS = GroupThresholds(
    outer_lo=(-8.0,), outer_hi=(8.0,), inner_mag=(0.1,)
)


def make_pair(config: OakenConfig, rng: np.random.Generator, dim: int = 96):
    """Profile thresholds on sample data and build both implementations."""
    samples = [rng.standard_normal((24, dim)) * 3.0 for _ in range(4)]
    thresholds = profile_thresholds(samples, config)
    reference = OakenQuantizer(config, thresholds)
    engine = oracle.StreamingQuantEngine(config, thresholds)
    return reference, engine


def classify(decomposer, *values):
    """Group ids the decomposer assigns ``values``."""
    return [decomposer.classify(v) for v in values]


def route(decomposer, *values):
    """``(shifted, side)`` of each routed element of ``values``."""
    routed = [decomposer.route(p, v) for p, v in enumerate(values)]
    return [e.shifted for e in routed], [e.side for e in routed]


def finder_over(decomposer, *values):
    """A min/max finder that has seen one token holding ``values``."""
    finder = oracle.MinMaxFinder(2)
    for position, value in enumerate(values):
        finder.update(decomposer.route(position, value))
    return finder


def assert_encoded_equal(expected, actual) -> None:
    """Field-by-field bit equality of two EncodedKV layouts."""
    np.testing.assert_array_equal(actual.dense_codes, expected.dense_codes)
    np.testing.assert_array_equal(actual.middle_lo, expected.middle_lo)
    np.testing.assert_array_equal(actual.middle_hi, expected.middle_hi)
    np.testing.assert_array_equal(actual.band_lo, expected.band_lo)
    np.testing.assert_array_equal(actual.band_hi, expected.band_hi)
    np.testing.assert_array_equal(actual.sparse_token, expected.sparse_token)
    np.testing.assert_array_equal(actual.sparse_pos, expected.sparse_pos)
    np.testing.assert_array_equal(actual.sparse_band, expected.sparse_band)
    np.testing.assert_array_equal(actual.sparse_side, expected.sparse_side)
    np.testing.assert_array_equal(
        actual.sparse_mag_code, expected.sparse_mag_code
    )
    if expected.sparse_fp16 is None:
        assert actual.sparse_fp16 is None
    else:
        np.testing.assert_array_equal(
            actual.sparse_fp16, expected.sparse_fp16
        )


class TestDecomposer:
    def test_middle_value_routes_dense(self):
        decomposer = oracle.Decomposer(OakenConfig(), PAPER_THRESHOLDS)
        assert classify(decomposer, 1.0) == [MIDDLE_GROUP]

    def test_extreme_value_routes_outer(self):
        decomposer = oracle.Decomposer(OakenConfig(), PAPER_THRESHOLDS)
        assert classify(decomposer, 9.5, -8.5) == [0, 0]

    def test_near_zero_routes_inner(self):
        decomposer = oracle.Decomposer(OakenConfig(), PAPER_THRESHOLDS)
        assert classify(decomposer, 0.05, -0.02) == [1, 1]

    def test_group_shift_moves_outer_toward_zero(self):
        decomposer = oracle.Decomposer(OakenConfig(), PAPER_THRESHOLDS)
        shifted, side = route(decomposer, 9.5, -8.5)
        assert side == [True, False]
        assert shifted == pytest.approx([1.5, 0.5])

    def test_two_outer_bands_outermost_claims_first(self):
        thr = GroupThresholds(
            outer_lo=(-10.0, -8.0), outer_hi=(10.0, 8.0), inner_mag=(0.1,)
        )
        cfg = OakenConfig(
            outer_ratios=(0.02, 0.02), middle_ratio=0.90,
            inner_ratios=(0.06,),
        )
        decomposer = oracle.Decomposer(cfg, thr)
        assert classify(decomposer, 11.0, 9.0, 7.0) == [0, 1, MIDDLE_GROUP]

    def test_nested_inner_shells_innermost_claims_first(self):
        thr = GroupThresholds(
            outer_lo=(-8.0,), outer_hi=(8.0,), inner_mag=(0.2, 0.05)
        )
        cfg = OakenConfig(
            outer_ratios=(0.04,), middle_ratio=0.90,
            inner_ratios=(0.03, 0.03),
        )
        decomposer = oracle.Decomposer(cfg, thr)
        assert classify(decomposer, 0.01, 0.1, 0.5) == [2, 1, MIDDLE_GROUP]


class TestMinMaxFinder:
    def test_tracks_range_per_group(self):
        decomposer = oracle.Decomposer(OakenConfig(), PAPER_THRESHOLDS)
        finder = finder_over(decomposer, 1.0, 2.0, -3.0)
        lo, hi = finder.range_of(MIDDLE_GROUP)
        assert lo < hi

    def test_empty_group_reports_zero_range(self):
        decomposer = oracle.Decomposer(OakenConfig(), PAPER_THRESHOLDS)
        finder = finder_over(decomposer, 1.0, 2.0)
        assert finder.range_of(0) == (0.0, 0.0)

    def test_reset_clears_registers(self):
        """Range registers are per-element state: the golden model's."""
        decomposer = oracle.Decomposer(OakenConfig(), PAPER_THRESHOLDS)
        finder = oracle.MinMaxFinder(2)
        finder.update(decomposer.route(0, 1.0))
        finder.reset()
        assert finder.range_of(MIDDLE_GROUP) == (0.0, 0.0)


class TestStreamingEquivalence:
    """The golden model's bits must equal the fused kernel's exactly."""

    def test_paper_default_config(self):
        rng = np.random.default_rng(7)
        reference, engine = make_pair(OakenConfig(), rng)
        x = rng.standard_normal((16, 96)) * 3.0
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    def test_no_group_shift_ablation(self):
        cfg = OakenConfig(group_shift=False)
        rng = np.random.default_rng(11)
        reference, engine = make_pair(cfg, rng)
        x = rng.standard_normal((8, 96)) * 2.0
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    def test_naive_encoding_ablation(self):
        cfg = OakenConfig(fused_encoding=False)
        rng = np.random.default_rng(13)
        reference, engine = make_pair(cfg, rng)
        x = rng.standard_normal((8, 96)) * 2.0
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    def test_five_group_config(self):
        cfg = OakenConfig.from_ratio_string("2/2/90/3/3")
        rng = np.random.default_rng(17)
        reference, engine = make_pair(cfg, rng)
        x = rng.standard_normal((8, 96)) * 2.5
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    def test_four_bit_outliers(self):
        cfg = OakenConfig(outlier_bits=4)
        rng = np.random.default_rng(19)
        reference, engine = make_pair(cfg, rng)
        x = rng.standard_normal((8, 96)) * 2.5
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    def test_single_token(self):
        rng = np.random.default_rng(23)
        reference, engine = make_pair(OakenConfig(), rng)
        x = rng.standard_normal((1, 96))
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    def test_heavy_tailed_input(self):
        rng = np.random.default_rng(29)
        reference, engine = make_pair(OakenConfig(), rng)
        x = rng.standard_t(df=2, size=(12, 96)) * 4.0
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    def test_constant_rows(self):
        """Degenerate span: every group collapses to sigma=1 codes."""
        rng = np.random.default_rng(31)
        reference, engine = make_pair(OakenConfig(), rng)
        x = np.full((4, 96), 0.5)
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        tokens=st.integers(1, 8),
        scale=st.floats(0.1, 20.0),
    )
    def test_property_equivalence(self, seed, tokens, scale):
        rng = np.random.default_rng(seed)
        reference, engine = make_pair(OakenConfig(), rng, dim=64)
        x = rng.standard_normal((tokens, 64)) * scale
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        ratio=st.sampled_from(["4/90/6", "90/10", "10/90", "2/2/90/6"]),
    )
    def test_property_equivalence_across_group_layouts(self, seed, ratio):
        cfg = OakenConfig.from_ratio_string(ratio)
        rng = np.random.default_rng(seed)
        reference, engine = make_pair(cfg, rng, dim=64)
        x = rng.standard_normal((4, 64)) * 3.0
        expected = reference.quantize(x)
        actual, _ = engine.quantize_matrix(x)
        assert_encoded_equal(expected, actual)


class TestGoldenModelTokens:
    """Per-token output only the element-streaming golden model has,
    anchored to the reference quantizer's encode of the whole matrix."""

    @pytest.mark.parametrize(
        "ratio, fused",
        [("4/90/6", True), ("4/90/6", False), ("2/2/90/3/3", True)],
    )
    def test_token_records_are_the_reference_coo_stream(self, ratio, fused):
        cfg = OakenConfig.from_ratio_string(ratio, fused_encoding=fused)
        rng = np.random.default_rng(37)
        reference, _ = make_pair(cfg, rng)
        golden = oracle.StreamingQuantEngine(cfg, reference.thresholds)
        x = rng.standard_normal((6, 96)) * 3.0
        expected = reference.quantize(x)
        for t in range(x.shape[0]):
            result = golden.quantize_token(x[t])
            np.testing.assert_array_equal(
                result.dense_codes, expected.dense_codes[t]
            )
            assert (result.middle_lo, result.middle_hi) == (
                expected.middle_lo[t], expected.middle_hi[t]
            )
            assert result.band_lo == expected.band_lo[t].tolist()
            assert result.band_hi == expected.band_hi[t].tolist()
            mine = expected.sparse_token == t
            assert result.num_outliers == int(mine.sum())
            for record, pos, band, side, mag in zip(
                result.records,
                expected.sparse_pos[mine],
                expected.sparse_band[mine],
                expected.sparse_side[mine],
                expected.sparse_mag_code[mine],
            ):
                assert (record.position, record.band, record.side) == (
                    pos, band, side
                )
                assert record.mag_code == mag
                assert (record.chunk, record.index) == divmod(
                    record.position, cfg.chunk_size
                )
                if fused:
                    assert record.fused_nibble == result.dense_codes[pos]
            if not fused:
                np.testing.assert_array_equal(
                    [r.fp16_value for r in result.records],
                    expected.sparse_fp16[mine],
                )


class TestQuantEngineValidation:
    def test_threshold_band_count_mismatch_rejected(self):
        cfg = OakenConfig()
        thr = GroupThresholds(
            outer_lo=(-8.0, -6.0), outer_hi=(8.0, 6.0), inner_mag=(0.1,)
        )
        with pytest.raises(ValueError, match="outer band"):
            EngineBackedQuantizer(cfg, thr)

    def test_rejects_3d_input(self):
        rng = np.random.default_rng(3)
        reference, _ = make_pair(OakenConfig(), rng)
        engine = EngineBackedQuantizer(
            reference.config, reference.thresholds
        )
        with pytest.raises(ValueError, match="matrix"):
            engine.quantize(np.zeros((2, 3, 4)))

    def test_timing_is_configurable(self):
        rng = np.random.default_rng(5)
        cfg = OakenConfig()
        samples = [rng.standard_normal((16, 64))]
        thr = profile_thresholds(samples, cfg)
        engine = EngineBackedQuantizer(
            cfg, thr, quant_timing=DatapathTiming(lanes=8)
        )
        assert engine.quant_timing.pass_cycles(64) == 8
        engine.quantize(rng.standard_normal((3, 64)))
        assert engine.quant_cycles == DatapathTiming(lanes=8).cycles(3, 64)
