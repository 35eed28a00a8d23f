"""Bit-exact equivalence of the dequantization datapath.

Reconstruction through the element-streaming golden model's zero-insert
shifter (fused nibble + record bits, ``tests/datapath_oracle.py``) must
match the fused dequantizer exactly — this also proves the fused
dense-and-sparse encoding is lossless with respect to the quantized
codes.  Its per-record stages (outlier index buffer, code reassembly)
are checked on their own, and the engine-backed quantizer's corruption
check through the KV cache's read path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OakenConfig
from repro.core.kvcache import LayerKVCache
from repro.core.quantizer import OakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.hardware.datapath import DequantTiming, EngineBackedQuantizer

import datapath_oracle as oracle


def make_trio(config: OakenConfig, rng: np.random.Generator, dim: int = 96):
    """The fused quantizer plus the golden model's dequant engine."""
    samples = [rng.standard_normal((24, dim)) * 3.0 for _ in range(4)]
    thresholds = profile_thresholds(samples, config)
    reference = OakenQuantizer(config, thresholds)
    dequant = oracle.StreamingDequantEngine(config, thresholds)
    return reference, dequant


class TestOutlierIndexBuffer:
    def test_lookup_by_position(self):
        buffer = oracle.OutlierIndexBuffer()
        record = oracle.COORecord(
            position=5, chunk=0, index=5, band=0, side=True, mag_code=3
        )
        buffer.load([record])
        assert buffer.lookup(5) is record
        assert buffer.lookup(4) is None
        assert len(buffer) == 1

    def test_load_replaces_previous_token(self):
        buffer = oracle.OutlierIndexBuffer()
        buffer.load(
            [oracle.COORecord(position=1, chunk=0, index=1, band=0,
                       side=False, mag_code=0)]
        )
        buffer.load([])
        assert buffer.lookup(1) is None


class TestZeroInsertShifter:
    def test_reassembles_paper_default_code(self):
        """5-bit code in a 4-bit slot: side bit rides in the record."""
        cfg = OakenConfig()
        shifter = oracle.ZeroInsertShifter(cfg)
        record = oracle.COORecord(
            position=0, chunk=0, index=0, band=0, side=True,
            mag_code=0b1011, fused_nibble=0b1011,
        )
        mag, side = shifter.reassemble_code(record, 0b1011)
        assert mag == 0b1011
        assert side is True

    def test_record_high_bits_is_side_bit(self):
        cfg = OakenConfig()
        shifter = oracle.ZeroInsertShifter(cfg)
        positive = oracle.COORecord(
            position=0, chunk=0, index=0, band=0, side=True,
            mag_code=0b0011, fused_nibble=0b0011,
        )
        negative = oracle.COORecord(
            position=0, chunk=0, index=0, band=0, side=False,
            mag_code=0b0011, fused_nibble=0b0011,
        )
        assert shifter.record_high_bits(positive) == 1
        assert shifter.record_high_bits(negative) == 0

    def test_corrupted_nibble_detected(self):
        """A flipped fused slot in a stored chunk fails an
        engine-backed cache read."""
        rng = np.random.default_rng(67)
        cfg = OakenConfig()
        thresholds = profile_thresholds(
            [rng.standard_normal((24, 32)) * 3.0], cfg
        )
        cache = LayerKVCache(
            EngineBackedQuantizer(cfg, thresholds),
            EngineBackedQuantizer(cfg, thresholds),
        )
        cache.append(*(rng.standard_normal((2, 4, 32)) * 3.0))
        chunk = cache._value_chunks[0]
        assert chunk.sparse_token.size > 0
        token = int(chunk.sparse_token[-1])
        pos = int(chunk.sparse_pos[-1])
        chunk.dense_codes[token, pos] ^= 0b0100
        with pytest.raises(
            ValueError, match=f"fused nibble mismatch at position {pos}"
        ):
            cache.read()

    def test_narrow_slot_wide_code(self):
        """2-bit slots with 5-bit codes: three high bits in the record."""
        cfg = OakenConfig(inlier_bits=2, outlier_bits=5)
        shifter = oracle.ZeroInsertShifter(cfg)
        # full code = side(1) << 4 | mag(0b1101) = 0b11101
        record = oracle.COORecord(
            position=0, chunk=0, index=0, band=0, side=True,
            mag_code=0b1101, fused_nibble=0b01,
        )
        assert shifter.record_high_bits(record) == 0b111
        mag, side = shifter.reassemble_code(record, 0b01)
        assert mag == 0b1101
        assert side is True


class TestStreamingDequantEquivalence:
    def test_paper_default_config(self):
        rng = np.random.default_rng(41)
        reference, dequant = make_trio(OakenConfig(), rng)
        x = rng.standard_normal((16, 96)) * 3.0
        encoded = reference.quantize(x)
        expected = reference.dequantize(encoded)
        actual, _ = dequant.dequantize_matrix(encoded)
        np.testing.assert_array_equal(actual, expected)

    def test_no_group_shift_ablation(self):
        cfg = OakenConfig(group_shift=False)
        rng = np.random.default_rng(43)
        reference, dequant = make_trio(cfg, rng)
        encoded = reference.quantize(rng.standard_normal((8, 96)) * 2.0)
        expected = reference.dequantize(encoded)
        actual, _ = dequant.dequantize_matrix(encoded)
        np.testing.assert_array_equal(actual, expected)

    def test_naive_encoding_ablation(self):
        cfg = OakenConfig(fused_encoding=False)
        rng = np.random.default_rng(47)
        reference, dequant = make_trio(cfg, rng)
        encoded = reference.quantize(rng.standard_normal((8, 96)) * 2.0)
        expected = reference.dequantize(encoded)
        actual, _ = dequant.dequantize_matrix(encoded)
        np.testing.assert_array_equal(actual, expected)

    def test_five_group_config(self):
        cfg = OakenConfig.from_ratio_string("2/2/90/3/3")
        rng = np.random.default_rng(53)
        reference, dequant = make_trio(cfg, rng)
        encoded = reference.quantize(rng.standard_normal((8, 96)) * 2.5)
        expected = reference.dequantize(encoded)
        actual, _ = dequant.dequantize_matrix(encoded)
        np.testing.assert_array_equal(actual, expected)

    def test_end_to_end_streaming_roundtrip(self):
        """Quantize with the golden model, dequantize with it too."""
        rng = np.random.default_rng(59)
        cfg = OakenConfig()
        samples = [rng.standard_normal((24, 96)) * 3.0 for _ in range(4)]
        thresholds = profile_thresholds(samples, cfg)
        reference = OakenQuantizer(cfg, thresholds)
        quant = oracle.StreamingQuantEngine(cfg, thresholds)
        dequant = oracle.StreamingDequantEngine(cfg, thresholds)
        x = rng.standard_normal((12, 96)) * 3.0
        encoded, _ = quant.quantize_matrix(x)
        actual, _ = dequant.dequantize_matrix(encoded)
        np.testing.assert_array_equal(actual, reference.roundtrip(x))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        tokens=st.integers(1, 8),
        scale=st.floats(0.1, 20.0),
    )
    def test_property_equivalence(self, seed, tokens, scale):
        rng = np.random.default_rng(seed)
        reference, dequant = make_trio(OakenConfig(), rng, dim=64)
        encoded = reference.quantize(
            rng.standard_normal((tokens, 64)) * scale
        )
        expected = reference.dequantize(encoded)
        actual, _ = dequant.dequantize_matrix(encoded)
        np.testing.assert_array_equal(actual, expected)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        fused=st.booleans(),
        shift=st.booleans(),
    )
    def test_property_equivalence_across_feature_toggles(
        self, seed, fused, shift
    ):
        cfg = OakenConfig(fused_encoding=fused, group_shift=shift)
        rng = np.random.default_rng(seed)
        reference, dequant = make_trio(cfg, rng, dim=64)
        encoded = reference.quantize(rng.standard_normal((4, 64)) * 3.0)
        expected = reference.dequantize(encoded)
        actual, _ = dequant.dequantize_matrix(encoded)
        np.testing.assert_array_equal(actual, expected)


class TestDequantTiming:
    def test_pass_cycles_ceiling(self):
        timing = DequantTiming(lanes=128)
        assert timing.pass_cycles(128) == 1
        assert timing.pass_cycles(129) == 2
        assert timing.pass_cycles(1) == 1

    def test_matrix_cycles_one_pass_per_token(self):
        rng = np.random.default_rng(61)
        reference, _ = make_trio(OakenConfig(), rng, dim=128)
        encoded = reference.quantize(rng.standard_normal((10, 128)))
        timing = DequantTiming()
        report = timing.report(encoded)
        assert report.total_cycles == (
            timing.fill_cycles + 10 * timing.pass_cycles(128)
        )
        assert report.tokens == 10
