"""Element-for-element equivalence of the fused kernel and the datapath.

The fused kernel of :class:`~repro.core.quantizer.OakenQuantizer` is
``src/``'s one Oaken arithmetic, and the Figure 9 engines are its
pricing (:meth:`~repro.hardware.datapath.DatapathTiming.report`).  The
scalar element-streaming golden model (``tests/datapath_oracle.py``)
implements every Figure 9 stage one element at a time; the kernel must
reproduce it exactly — same bits, same COO stream, same FP16 scale
bounds — and the reports its cycle counters, in **both**
:class:`~repro.core.modes.ComputeMode`\\ s, across the paper's whole
configuration registry (the Table 3 ratio sweep plus the feature
ablations).  ``deploy_f32`` must also stay within the mode's documented
one-code-level tolerance of the ``exact_f64`` output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TABLE3_CONFIGURATIONS, OakenConfig
from repro.core.modes import COMPUTE_MODES, DEPLOY_F32, EXACT_F64
from repro.core.quantizer import OakenQuantizer
from repro.core.reference import ReferenceOakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.hardware.datapath import (
    DatapathTiming,
    DequantTiming,
    EngineBackedQuantizer,
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
    """Thresholds, the kernel and both golden engines for one
    (config, mode) pair."""
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
        "kernel": OakenQuantizer(config, thresholds, mode),
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
    """Cycle-for-cycle equality of two CycleReports, stage order too
    (``occupancy()`` ties resolve to the first stage recorded)."""
    assert actual.total_cycles == expected.total_cycles
    assert actual.tokens == expected.tokens
    assert actual.elements == expected.elements
    assert list(actual.stages) == list(expected.stages)
    for name, stage in expected.stages.items():
        assert actual.stages[name].busy_cycles == stage.busy_cycles, name
        assert actual.stages[name].elements == stage.elements, name


def assert_rows_identical(expected, actual) -> None:
    """Bit equality of two float32 row blocks (signed zeros included)."""
    assert actual.dtype == expected.dtype == np.float32
    assert actual.tobytes() == expected.tobytes()


class TestKernelOracleEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_quantize_bits_and_cycles_identical(self, config, mode):
        """The kernel and the golden model emit the same bits; the
        quantization engine's report of them its cycles."""
        setup = build(config, mode)
        encoded_s, report_s = setup["scalar_q"].quantize_matrix(
            setup["matrix"]
        )
        encoded_k = setup["kernel"].quantize(setup["matrix"])
        assert_encoded_equal(encoded_s, encoded_k)
        assert_reports_equal(report_s, DatapathTiming().report(encoded_k))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_dequantize_rows_and_cycles_identical(self, config, mode):
        """The kernel and the golden model reconstruct identical rows."""
        setup = build(config, mode)
        encoded, _ = setup["scalar_q"].quantize_matrix(setup["matrix"])
        rows_s, report_s = setup["scalar_d"].dequantize_matrix(encoded)
        rows_k = setup["kernel"].dequantize(encoded)
        assert_rows_identical(rows_s, rows_k)
        assert_reports_equal(report_s, DequantTiming().report(encoded))

    def test_exact_f64_matches_the_frozen_seed(self):
        """The engine-backed quantizer inherits the golden anchor."""
        config = OakenConfig()
        setup = build(config, EXACT_F64)
        seed = ReferenceOakenQuantizer(config, setup["thresholds"])
        engine = EngineBackedQuantizer(config, setup["thresholds"])
        encoded = engine.quantize(setup["matrix"])
        assert_encoded_equal(seed.quantize(setup["matrix"]), encoded)
        assert_rows_identical(
            seed.dequantize(encoded), engine.dequantize(encoded)
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_deploy_f32_within_one_code_level(self, config):
        """float32 stage mode honours the mode's tolerance contract."""
        setup64 = build(config, EXACT_F64)
        setup32 = build(config, DEPLOY_F32)
        encoded64 = setup64["kernel"].quantize(setup64["matrix"])
        encoded32 = setup32["kernel"].quantize(setup32["matrix"])
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

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_and_single_token_edges(self, mode):
        """Degenerate shapes stream through both identically."""
        config = OakenConfig()
        setup = build(config, mode)
        for matrix in (
            np.zeros((0, 96)),
            setup["matrix"][:1],
            np.full((3, 96), 0.5),
        ):
            encoded_s, report_s = setup["scalar_q"].quantize_matrix(
                matrix
            )
            encoded_k = setup["kernel"].quantize(matrix)
            assert_encoded_equal(encoded_s, encoded_k)
            assert_reports_equal(
                report_s, DatapathTiming().report(encoded_k)
            )
            rows_s, dequant_s = setup["scalar_d"].dequantize_matrix(
                encoded_k
            )
            assert_rows_identical(
                rows_s, setup["kernel"].dequantize(encoded_k)
            )
            assert_reports_equal(
                dequant_s, DequantTiming().report(encoded_k)
            )

    def test_adapter_detects_corrupted_nibble(self):
        """The zero-insert shifter keeps the golden model's check."""
        config = OakenConfig()
        setup = build(config, EXACT_F64)
        engine = EngineBackedQuantizer(config, setup["thresholds"])
        encoded = engine.quantize(setup["matrix"])
        assert encoded.sparse_token.size > 0
        token = int(encoded.sparse_token[0])
        pos = int(encoded.sparse_pos[0])
        encoded.dense_codes[token, pos] ^= 0x3
        with pytest.raises(
            ValueError, match=f"fused nibble mismatch at position {pos}"
        ):
            engine.dequantize(encoded)
        # The plain kernel's hot path does not check.
        setup["kernel"].dequantize(encoded)


class TestEngineBackedQuantizer:
    @pytest.mark.parametrize("mode", MODES)
    def test_adapter_matches_oracle_bits_and_cycles(self, mode):
        """The adapter agrees with the golden model's engines
        bit-for-bit and cycle-for-cycle."""
        config = OakenConfig()
        rng = np.random.default_rng(3)
        samples = [rng.standard_normal((24, 64)) * 2.0]
        thresholds = profile_thresholds(samples, config)
        matrix = rng.standard_normal((9, 64))
        engine = EngineBackedQuantizer(config, thresholds, mode=mode)
        encoded, quant_report = oracle.StreamingQuantEngine(
            config, thresholds, mode=mode
        ).quantize_matrix(matrix)
        rows, dequant_report = oracle.StreamingDequantEngine(
            config, thresholds, mode=mode
        ).dequantize_matrix(encoded)
        assert_rows_identical(rows, engine.roundtrip(matrix))
        assert engine.quant_cycles == quant_report.total_cycles > 0
        assert engine.dequant_cycles == dequant_report.total_cycles > 0

    def test_engine_modes_thread_through(self):
        """The adapter resolves its ComputeMode into the kernel plan."""
        config = OakenConfig()
        rng = np.random.default_rng(4)
        thresholds = profile_thresholds(
            [rng.standard_normal((24, 64))], config
        )
        adapter = EngineBackedQuantizer(
            config, thresholds, mode="deploy_f32"
        )
        assert isinstance(adapter, OakenQuantizer)
        assert adapter.mode is DEPLOY_F32
        assert adapter.compute_dtype == np.float32
        plain = OakenQuantizer(config, thresholds, "deploy_f32")
        assert adapter._plan is plain._plan


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
            encoded_k = setup["kernel"].quantize(setup["matrix"])
            assert_encoded_equal(encoded_s, encoded_k)
            assert_reports_equal(
                report_s, DatapathTiming().report(encoded_k)
            )
            assert encoded_k.sparse_token.size == 0
            rows_s, _ = setup["scalar_d"].dequantize_matrix(encoded_s)
            assert_rows_identical(
                rows_s, setup["kernel"].dequantize(encoded_k)
            )
