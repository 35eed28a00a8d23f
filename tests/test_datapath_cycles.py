"""Cycle accounting of the datapath models.

Checks the double-buffered pipeline math of the quantization engine,
the per-stage occupancy counters, and — the cross-validation the
analytic models rest on — that the structural engines' throughput
agrees with :mod:`repro.hardware.engines` within the fill/turnaround
terms.  (``tests/test_datapath_vectorized.py`` holds every counter
equal to the element-streaming golden model's.)
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import OakenConfig
from repro.core.quantizer import OakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.hardware.datapath import (
    CycleReport,
    DatapathTiming,
    DequantTiming,
    VectorizedDequantEngine,
    VectorizedQuantEngine,
)
from repro.hardware.engines import DequantEngine, QuantEngine


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(71)
    cfg = OakenConfig()
    samples = [rng.standard_normal((32, 128)) * 3.0 for _ in range(4)]
    thresholds = profile_thresholds(samples, cfg)
    return cfg, thresholds, rng


class TestCycleReport:
    def test_stage_counters_accumulate(self):
        report = CycleReport()
        report.stage("decomposer").record(32, 1)
        report.stage("decomposer").record(32, 1)
        assert report.stage("decomposer").elements == 64
        assert report.stage("decomposer").busy_cycles == 2

    def test_occupancy_fractions(self):
        report = CycleReport(total_cycles=100)
        report.stage("quantizer").record(64, 25)
        assert report.occupancy()["quantizer"] == pytest.approx(0.25)

    def test_occupancy_zero_total_safe(self):
        report = CycleReport()
        report.stage("quantizer").record(1, 1)
        assert report.occupancy()["quantizer"] == 0.0

    def test_time_scales_with_clock(self):
        report = CycleReport(total_cycles=2_000_000)
        assert report.time_s(1.0) == pytest.approx(2e-3)
        assert report.time_s(2.0) == pytest.approx(1e-3)


class TestQuantPipelineMath:
    def test_total_cycles_formula(self, setup):
        cfg, thresholds, rng = setup
        timing = DatapathTiming(lanes=32, scale_latency_cycles=4)
        engine = VectorizedQuantEngine(cfg, thresholds, timing=timing)
        tokens, dim = 10, 128
        _, report = engine.quantize_matrix(
            rng.standard_normal((tokens, dim))
        )
        pass_cycles = math.ceil(dim / 32)
        fill = 2 * pass_cycles + 4
        interval = max(pass_cycles, 4)
        expected = fill + (tokens - 1) * interval
        assert report.total_cycles == expected

    def test_doubling_lanes_roughly_halves_cycles(self, setup):
        cfg, thresholds, rng = setup
        x = rng.standard_normal((32, 128))
        narrow = VectorizedQuantEngine(
            cfg, thresholds, timing=DatapathTiming(lanes=16)
        )
        wide = VectorizedQuantEngine(
            cfg, thresholds, timing=DatapathTiming(lanes=32)
        )
        _, slow = narrow.quantize_matrix(x)
        _, fast = wide.quantize_matrix(x)
        ratio = slow.total_cycles / fast.total_cycles
        assert 1.5 < ratio <= 2.1

    def test_stage_occupancy_covers_all_figure9_modules(self, setup):
        cfg, thresholds, rng = setup
        engine = VectorizedQuantEngine(cfg, thresholds)
        _, report = engine.quantize_matrix(rng.standard_normal((4, 128)))
        assert set(report.stages) == {
            "decomposer",
            "minmax_finder",
            "scale_calculator",
            "quantizer",
            "zero_remove_shifter",
        }

    def test_zero_remove_shifter_sees_only_outliers(self, setup):
        cfg, thresholds, rng = setup
        engine = VectorizedQuantEngine(cfg, thresholds)
        x = rng.standard_normal((8, 128)) * 3.0
        encoded, report = engine.quantize_matrix(x)
        assert (
            report.stage("zero_remove_shifter").elements
            == encoded.num_outliers
        )

    def test_empty_matrix_zero_cycles(self, setup):
        cfg, thresholds, _ = setup
        engine = VectorizedQuantEngine(cfg, thresholds)
        _, report = engine.quantize_matrix(np.zeros((0, 128)))
        assert report.total_cycles == 0


class TestAgreementWithAnalyticModels:
    """The analytic engines assume lanes elements/cycle steady state;
    the structural pipeline must converge to that rate for long
    streams (fill and turnaround amortize away)."""

    def test_quant_engine_steady_state_rate(self, setup):
        cfg, thresholds, rng = setup
        timing = DatapathTiming(lanes=32, freq_ghz=1.0)
        engine = VectorizedQuantEngine(cfg, thresholds, timing=timing)
        tokens, dim = 64, 128
        x = rng.standard_normal((tokens, dim))
        _, report = engine.quantize_matrix(x)
        analytic = QuantEngine(lanes=32, freq_ghz=1.0, num_cores=1)
        structural_s = report.time_s(timing.freq_ghz)
        analytic_s = analytic.time_s(tokens * dim)
        # Both converge to lanes elements/cycle; they differ only in
        # their fixed fill terms (structural: 2 passes + turnaround,
        # analytic: a flat pipeline constant).
        assert structural_s == pytest.approx(analytic_s, rel=0.15)

    def test_dequant_engine_steady_state_rate(self, setup):
        cfg, thresholds, rng = setup
        timing = DequantTiming(lanes=128, freq_ghz=1.0)
        engine = VectorizedDequantEngine(cfg, thresholds, timing=timing)
        reference = OakenQuantizer(cfg, thresholds)
        tokens, dim = 64, 128
        encoded = reference.quantize(rng.standard_normal((tokens, dim)))
        _, report = engine.dequantize_matrix(encoded)
        analytic = DequantEngine(lanes=128, freq_ghz=1.0, num_cores=1)
        structural_s = report.time_s(timing.freq_ghz)
        analytic_s = analytic.time_s(tokens * dim)
        assert structural_s == pytest.approx(analytic_s, rel=0.05)

    def test_engine_latency_hidden_behind_attention_window(self, setup):
        """Paper Section 5.3: per-token quantization occupies a tiny
        fraction of the generation iteration it overlaps."""
        cfg, thresholds, rng = setup
        engine = VectorizedQuantEngine(cfg, thresholds)
        # One token's KV for one layer: kv_dim elements.
        _, report = engine.quantize_matrix(rng.standard_normal((1, 128)))
        engine_s = report.time_s(1.0)
        # Generation iterations at batch>=16 are hundreds of
        # microseconds; one token's quantization is tens of ns.
        assert engine_s < 1e-6
