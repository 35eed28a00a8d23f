"""Cycle accounting of the datapath models.

Checks the double-buffered pipeline math of the quantization engine,
the per-stage occupancy counters, and that every engine pass reports
and the engine-backed quantizer accumulates exactly its timing's
closed-form ``cycles(tokens, dim)`` — the engines' one cycle model —
over a grid of lane widths, latencies, token counts and widths.
(``tests/test_datapath_oracle.py`` holds every counter equal to the
element-streaming golden model's independent count.)
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
    EngineBackedQuantizer,
)
from repro.hardware.overheads import get_system
from repro.hardware.perf import generation_iteration
from repro.models.config import get_model

import datapath_oracle as oracle

#: Token counts of the grid: empty, one, and enough to reach steady state.
GRID_TOKENS = (0, 1, 9)

#: Widths of the grid: below one lane group, non-multiples of every
#: lane width, and an exact multiple.
GRID_DIMS = (1, 33, 128, 200)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(71)
    cfg = OakenConfig()
    samples = [rng.standard_normal((32, 128)) * 3.0 for _ in range(4)]
    thresholds = profile_thresholds(samples, cfg)
    return cfg, thresholds, rng


def quantize_report(cfg, thresholds, x, timing=None):
    """``(encoded, report)`` of one quantization-engine pass."""
    timing = timing if timing is not None else DatapathTiming()
    encoded = OakenQuantizer(cfg, thresholds).quantize(x)
    return encoded, timing.report(encoded)


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
    # 64: the turnaround paces the stream; 200: the element pass does.
    @pytest.mark.parametrize("dim", (64, 128, 200))
    def test_total_cycles_formula(self, setup, dim):
        cfg, thresholds, rng = setup
        timing = DatapathTiming(lanes=32, scale_latency_cycles=4)
        tokens = 10
        _, report = quantize_report(
            cfg, thresholds, rng.standard_normal((tokens, dim)), timing
        )
        pass_cycles = math.ceil(dim / 32)
        fill = 2 * pass_cycles + 4
        interval = max(pass_cycles, 4)
        expected = fill + (tokens - 1) * interval
        assert report.total_cycles == expected

    def test_doubling_lanes_roughly_halves_cycles(self, setup):
        cfg, thresholds, rng = setup
        x = rng.standard_normal((32, 128))
        _, slow = quantize_report(
            cfg, thresholds, x, DatapathTiming(lanes=16)
        )
        _, fast = quantize_report(
            cfg, thresholds, x, DatapathTiming(lanes=32)
        )
        ratio = slow.total_cycles / fast.total_cycles
        assert 1.5 < ratio <= 2.1

    def test_stage_occupancy_covers_all_figure9_modules(self, setup):
        cfg, thresholds, rng = setup
        _, report = quantize_report(
            cfg, thresholds, rng.standard_normal((4, 128))
        )
        # In recording order: occupancy() ties resolve to the first.
        assert list(report.stages) == [
            "decomposer",
            "minmax_finder",
            "scale_calculator",
            "quantizer",
            "zero_remove_shifter",
        ]

    def test_zero_remove_shifter_sees_only_outliers(self, setup):
        cfg, thresholds, rng = setup
        x = rng.standard_normal((8, 128)) * 3.0
        encoded, report = quantize_report(cfg, thresholds, x)
        assert (
            report.stage("zero_remove_shifter").elements
            == encoded.num_outliers
        )

    def test_empty_matrix_zero_cycles(self, setup):
        cfg, thresholds, _ = setup
        _, report = quantize_report(cfg, thresholds, np.zeros((0, 128)))
        assert report.total_cycles == 0


class TestClosedFormCycles:
    """Every engine pass reports, and the engine-backed quantizer
    accumulates, exactly its timing's ``cycles()``."""

    @pytest.mark.parametrize("tokens", GRID_TOKENS)
    @pytest.mark.parametrize("scale_latency", (1, 4, 16))
    @pytest.mark.parametrize("lanes", (8, 32, 128))
    def test_quant_engine_reports_timing_cycles(
        self, setup, lanes, scale_latency, tokens
    ):
        cfg, thresholds, rng = setup
        timing = DatapathTiming(
            lanes=lanes, scale_latency_cycles=scale_latency
        )
        engine = EngineBackedQuantizer(
            cfg, thresholds, quant_timing=timing
        )
        for dim in GRID_DIMS:
            before = engine.quant_cycles
            encoded = engine.quantize(
                rng.standard_normal((tokens, dim)) * 3.0
            )
            expected = timing.cycles(tokens, dim)
            assert timing.report(encoded).total_cycles == expected
            assert engine.quant_cycles - before == expected

    @pytest.mark.parametrize("tokens", GRID_TOKENS)
    @pytest.mark.parametrize("fill", (0, 16))
    @pytest.mark.parametrize("lanes", (8, 32, 128))
    def test_dequant_engine_reports_timing_cycles(
        self, setup, lanes, fill, tokens
    ):
        cfg, thresholds, rng = setup
        timing = DequantTiming(lanes=lanes, fill_cycles=fill)
        engine = EngineBackedQuantizer(
            cfg, thresholds, dequant_timing=timing
        )
        for dim in GRID_DIMS:
            encoded = engine.quantize(
                rng.standard_normal((tokens, dim)) * 3.0
            )
            before = engine.dequant_cycles
            engine.dequantize(encoded)
            expected = timing.cycles(tokens, dim)
            assert timing.report(encoded).total_cycles == expected
            assert engine.dequant_cycles - before == expected

    def test_steady_state_interval_is_one_pass(self):
        """Past the fill, each further token costs one element pass —
        ``lanes`` elements per cycle — whenever the pass outlasts the
        σ-calculator turnaround."""
        quant = DatapathTiming()
        dequant = DequantTiming()
        for dim in (128, 200, 8192):
            assert quant.cycles(65, dim) - quant.cycles(64, dim) == (
                math.ceil(dim / quant.lanes)
            )
            assert dequant.cycles(65, dim) - dequant.cycles(64, dim) == (
                math.ceil(dim / dequant.lanes)
            )


class TestEmptyPassIsFree:
    """A zero-token pass costs nothing in either direction."""

    def test_timings(self):
        assert DatapathTiming().cycles(0, 128) == 0
        assert DequantTiming().cycles(0, 128) == 0
        assert DequantTiming(fill_cycles=16).cycles(1, 128) == 17

    def test_dequant_engines(self, setup):
        cfg, thresholds, _ = setup
        encoded = OakenQuantizer(cfg, thresholds).quantize(
            np.zeros((0, 128))
        )
        _, report = oracle.StreamingDequantEngine(
            cfg, thresholds
        ).dequantize_matrix(encoded)
        assert report.total_cycles == 0
        assert DequantTiming().report(encoded).total_cycles == 0


class TestLatencyHiddenUnderAttention:
    """Paper Section 5.3: the engines' work per iteration is a small
    fraction of the attention it overlaps.  At batch 64 on Llama2-7B,
    one layer's iteration quantizes 64 new KV vectors of 8,192 elements
    (keys and values) while attention reads the whole history."""

    TOKENS = 64
    KV_DIM = 8192

    def test_engine_latency_hidden_under_attention(self):
        cycles = DatapathTiming().cycles(self.TOKENS, self.KV_DIM)
        # Attention window at 1 GHz for ~10 ms of reads.
        window_cycles = int(10e-3 * 1e9)
        assert cycles < window_cycles / 100

    def test_engine_latency_hidden_behind_attention_window(self):
        arch = get_model("llama2-7b").arch
        assert 2 * arch.kv_dim == self.KV_DIM
        timing = DatapathTiming()
        engine_s = timing.cycles(self.TOKENS, self.KV_DIM) / (
            timing.freq_ghz * 1e9
        )
        iteration = generation_iteration(
            get_system("oaken-lpddr"), arch, self.TOKENS, 1024
        )
        per_layer_attn_s = iteration.attn_s / arch.n_layers
        assert engine_s < per_layer_attn_s / 10
