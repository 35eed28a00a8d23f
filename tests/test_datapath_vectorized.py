"""Element-for-element equivalence of the datapath and its golden model.

The whole-tensor engines in :mod:`repro.hardware.datapath.vectorized`
must reproduce the scalar element-streaming Figure 9 golden pipeline
(``tests/datapath_oracle.py``) exactly — same bits, same COO stream,
same FP16 scale bounds, same modeled cycle reports — in **both**
:class:`~repro.core.modes.ComputeMode`\\ s, across the paper's whole
configuration registry (the Table 3 ratio sweep plus the feature
ablations).  ``exact_f64`` additionally anchors to the vectorized
reference quantizer; ``deploy_f32`` must stay within the mode's
documented one-code-level tolerance of the ``exact_f64`` output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TABLE3_CONFIGURATIONS, OakenConfig
from repro.core.modes import COMPUTE_MODES, DEPLOY_F32, EXACT_F64
from repro.core.quantizer import OakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.hardware.datapath import (
    EngineBackedQuantizer,
    VectorizedDequantEngine,
    VectorizedQuantEngine,
)

import datapath_oracle as oracle

MODES = sorted(COMPUTE_MODES)

#: (config, label) pairs spanning the registry: every Table 3 ratio /
#: bitwidth row plus the feature-toggle ablations.
CONFIG_REGISTRY = [
    (
        OakenConfig.from_ratio_string(spec, outlier_bits=bits),
        f"{spec}@{bits}b",
    )
    for spec, bits in TABLE3_CONFIGURATIONS
] + [
    (OakenConfig(group_shift=False), "no-group-shift"),
    (OakenConfig(fused_encoding=False), "naive-encoding"),
    (
        OakenConfig(group_shift=False, fused_encoding=False),
        "no-shift-naive",
    ),
]

CONFIGS = [c for c, _ in CONFIG_REGISTRY]
CONFIG_IDS = [label for _, label in CONFIG_REGISTRY]


def build(config, mode, dim=96, seed=0):
    """Thresholds plus all four engines for one (config, mode) pair."""
    rng = np.random.default_rng(seed)
    samples = [rng.standard_normal((24, dim)) * 3.0 for _ in range(4)]
    thresholds = profile_thresholds(samples, config)
    matrix = rng.standard_normal((19, dim)) * 2.5
    return {
        "thresholds": thresholds,
        "matrix": matrix,
        "scalar_q": oracle.StreamingQuantEngine(
            config, thresholds, mode=mode
        ),
        "scalar_d": oracle.StreamingDequantEngine(
            config, thresholds, mode=mode
        ),
        "vec_q": VectorizedQuantEngine(config, thresholds, mode=mode),
        "vec_d": VectorizedDequantEngine(config, thresholds, mode=mode),
    }


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


def assert_reports_equal(expected, actual) -> None:
    """Cycle-for-cycle equality of two CycleReports."""
    assert actual.total_cycles == expected.total_cycles
    assert actual.tokens == expected.tokens
    assert actual.elements == expected.elements
    assert set(actual.stages) == set(expected.stages)
    for name, stage in expected.stages.items():
        assert actual.stages[name].busy_cycles == stage.busy_cycles, name
        assert actual.stages[name].elements == stage.elements, name


class TestScalarVectorizedEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_quantize_bits_and_cycles_identical(self, config, mode):
        """Engine and golden model emit the same bits and cycles."""
        setup = build(config, mode)
        encoded_s, report_s = setup["scalar_q"].quantize_matrix(
            setup["matrix"]
        )
        encoded_v, report_v = setup["vec_q"].quantize_matrix(
            setup["matrix"]
        )
        assert_encoded_equal(encoded_s, encoded_v)
        assert_reports_equal(report_s, report_v)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_dequantize_rows_and_cycles_identical(self, config, mode):
        """Engine and golden model reconstruct identical rows."""
        setup = build(config, mode)
        encoded, _ = setup["scalar_q"].quantize_matrix(setup["matrix"])
        rows_s, report_s = setup["scalar_d"].dequantize_matrix(encoded)
        rows_v, report_v = setup["vec_d"].dequantize_matrix(encoded)
        np.testing.assert_array_equal(rows_s, rows_v)
        assert rows_v.dtype == np.float32
        assert_reports_equal(report_s, report_v)

    def test_exact_f64_matches_reference_quantizer(self):
        """The f64 engine inherits the golden anchor."""
        config = OakenConfig()
        setup = build(config, EXACT_F64)
        reference = OakenQuantizer(config, setup["thresholds"])
        encoded_v, _ = setup["vec_q"].quantize_matrix(setup["matrix"])
        assert_encoded_equal(reference.quantize(setup["matrix"]), encoded_v)
        rows_v, _ = setup["vec_d"].dequantize_matrix(encoded_v)
        np.testing.assert_array_equal(
            reference.dequantize(encoded_v), rows_v
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_deploy_f32_within_one_code_level(self, config):
        """float32 stage mode honours the mode's tolerance contract."""
        setup64 = build(config, EXACT_F64)
        setup32 = build(config, DEPLOY_F32)
        encoded64, _ = setup64["vec_q"].quantize_matrix(
            setup64["matrix"]
        )
        encoded32, _ = setup32["vec_q"].quantize_matrix(
            setup32["matrix"]
        )
        # Outlier selection may move a borderline element between
        # groups; when it does not, dense codes drift by at most
        # DEPLOY_F32.code_tolerance levels.
        if np.array_equal(encoded64.sparse_pos, encoded32.sparse_pos):
            drift = np.abs(
                encoded64.dense_codes.astype(np.int32)
                - encoded32.dense_codes.astype(np.int32)
            )
            outliers = np.zeros(encoded64.dense_codes.shape, dtype=bool)
            outliers[encoded64.sparse_token, encoded64.sparse_pos] = True
            assert drift[~outliers].max(initial=0) <= (
                DEPLOY_F32.code_tolerance
            )

    def test_empty_and_single_token_edges(self):
        """Degenerate shapes stream through both identically."""
        config = OakenConfig()
        setup = build(config, EXACT_F64)
        for matrix in (
            np.zeros((0, 96)),
            setup["matrix"][:1],
            np.full((3, 96), 0.5),
        ):
            encoded_s, report_s = setup["scalar_q"].quantize_matrix(
                matrix
            )
            encoded_v, report_v = setup["vec_q"].quantize_matrix(matrix)
            assert_encoded_equal(encoded_s, encoded_v)
            assert_reports_equal(report_s, report_v)

    def test_vectorized_detects_corrupted_nibble(self):
        """The zero-insert shifter keeps the golden model's check."""
        config = OakenConfig()
        setup = build(config, EXACT_F64)
        encoded, _ = setup["vec_q"].quantize_matrix(setup["matrix"])
        assert encoded.sparse_token.size > 0
        token = int(encoded.sparse_token[0])
        pos = int(encoded.sparse_pos[0])
        encoded.dense_codes[token, pos] ^= 0x3
        with pytest.raises(ValueError, match="fused nibble mismatch"):
            setup["vec_d"].dequantize_matrix(encoded)


class TestEngineBackedTiers:
    def test_vectorized_default_matches_scalar_tier(self):
        """The adapter agrees with the golden model's engines
        bit-for-bit and cycle-for-cycle."""
        config = OakenConfig()
        rng = np.random.default_rng(3)
        samples = [rng.standard_normal((24, 64)) * 2.0]
        thresholds = profile_thresholds(samples, config)
        matrix = rng.standard_normal((9, 64))
        fast = EngineBackedQuantizer(config, thresholds)
        encoded, quant_report = oracle.StreamingQuantEngine(
            config, thresholds
        ).quantize_matrix(matrix)
        rows, dequant_report = oracle.StreamingDequantEngine(
            config, thresholds
        ).dequantize_matrix(encoded)
        np.testing.assert_array_equal(fast.roundtrip(matrix), rows)
        assert fast.quant_cycles == quant_report.total_cycles > 0
        assert fast.dequant_cycles == dequant_report.total_cycles > 0

    def test_engine_modes_thread_through(self):
        """The adapter resolves and forwards its ComputeMode."""
        config = OakenConfig()
        rng = np.random.default_rng(4)
        thresholds = profile_thresholds(
            [rng.standard_normal((24, 64))], config
        )
        adapter = EngineBackedQuantizer(
            config, thresholds, mode="deploy_f32"
        )
        assert adapter.mode is DEPLOY_F32
        assert adapter.compute_dtype == np.float32
        assert adapter._quant.mode is DEPLOY_F32
        assert adapter._dequant.mode is DEPLOY_F32


class TestDegenerateConfigs:
    def test_middle_only_config_matches_scalar(self):
        """A zero-sparse-band ablation streams through both."""
        config = OakenConfig(
            outer_ratios=(), middle_ratio=1.0, inner_ratios=()
        )
        for mode in MODES:
            setup = build(config, mode)
            encoded_s, report_s = setup["scalar_q"].quantize_matrix(
                setup["matrix"]
            )
            encoded_v, report_v = setup["vec_q"].quantize_matrix(
                setup["matrix"]
            )
            assert_encoded_equal(encoded_s, encoded_v)
            assert_reports_equal(report_s, report_v)
            assert encoded_v.sparse_token.size == 0
            rows_s, _ = setup["scalar_d"].dequantize_matrix(encoded_s)
            rows_v, _ = setup["vec_d"].dequantize_matrix(encoded_v)
            np.testing.assert_array_equal(rows_s, rows_v)
