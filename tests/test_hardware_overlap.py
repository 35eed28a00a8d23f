"""Tests of the Section 5.3 overlap scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.datapath import DatapathTiming, DequantTiming
from repro.hardware.overlap import (
    OverlapConfig,
    simulate_overlap,
)

MB = 1024.0 * 1024.0
KB = 1024.0

#: A Llama2-7B-ish request at 1K context: ~158 MB of quantized KV
#: history (1024 tokens x 512 KB FP16/token x 4.82/16), 512 KB of
#: fresh FP16 KV for the new token, tens of µs of attention compute.
KV_READ = 158 * MB
NEW_KV = 512 * KB
ATTN_S = 30e-6


class TestValidation:
    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="batch"):
            simulate_overlap(0, KV_READ, NEW_KV, ATTN_S)

    def test_rejects_negative_workload(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate_overlap(4, -1.0, NEW_KV, ATTN_S)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError, match="positive"):
            OverlapConfig(dequant_gbps=0.0)


class TestOverlapClaim:
    """Section 5.3: engine latency hides behind DMA + attention."""

    def test_dequant_streams_with_dma(self):
        """At batch 32 each core's DMA share (~31 GB/s) is far below
        the engine's 77 GB/s lane rate, so dequantization finishes
        with the last DMA byte — zero added latency."""
        report = simulate_overlap(32, KV_READ, NEW_KV, ATTN_S)
        for event in report.events_of("dequant"):
            dma = next(
                e for e in report.events_of("dma_read")
                if e.core == event.core
            )
            assert event.end_s == pytest.approx(dma.end_s)

    def test_exposure_is_sub_percent_at_batch(self):
        """Figure 12(b): (de)quantization is a few percent of the
        iteration at realistic batch sizes — here it is well below
        that envelope because only the quantization tail is exposed."""
        report = simulate_overlap(64, KV_READ, NEW_KV, ATTN_S)
        assert report.exposed_s / report.makespan_s < 0.05

    def test_hidden_fraction_near_one_at_batch(self):
        report = simulate_overlap(64, KV_READ, NEW_KV, ATTN_S)
        assert report.hidden_fraction > 0.95

    def test_small_batch_exposes_dequant(self):
        """The documented failure regime: at batch 1 the lone core's
        DMA share is the full 990 GB/s, which outruns the 77 GB/s
        engine — dequantization stalls attention."""
        report = simulate_overlap(1, KV_READ, NEW_KV, ATTN_S)
        assert report.exposed_s > 0.5 * report.ideal_makespan_s

    def test_slow_engine_gets_exposed(self):
        """A dequant engine slower than the per-core DMA share stalls
        attention — the failure mode Oaken's wide engine avoids."""
        slow = OverlapConfig(dequant_gbps=0.5)
        fast = OverlapConfig()
        report_slow = simulate_overlap(
            16, KV_READ, NEW_KV, ATTN_S, config=slow
        )
        report_fast = simulate_overlap(
            16, KV_READ, NEW_KV, ATTN_S, config=fast
        )
        assert report_slow.exposed_s > 5 * max(
            report_fast.exposed_s, 1e-9
        )
        assert report_slow.hidden_fraction < (
            report_fast.hidden_fraction
        )

    def test_slow_engines_stay_exposed_across_batch(self):
        """GPU-like software (de)quantization cannot ride the DMA
        window at any batch size."""
        slow = OverlapConfig(dequant_gbps=0.4, quant_gbps=0.05)
        for batch in (4, 32):
            report = simulate_overlap(
                batch, KV_READ, NEW_KV, ATTN_S, config=slow
            )
            assert report.hidden_fraction < 0.5


class TestEngineSizing:
    """The default per-core rates are the Figure 9 datapaths' rates:
    lanes x clock x bytes per element on each engine's stream side."""

    def test_quant_rate_is_the_quant_datapath(self):
        timing = DatapathTiming()
        fp16_bytes = 2.0
        assert OverlapConfig().quant_gbps == (
            timing.lanes * timing.freq_ghz * fp16_bytes
        )
        assert OverlapConfig().quant_gbps == 64.0

    def test_dequant_rate_is_the_dequant_datapath(self):
        """77 GB/s is 128 lanes x 1 GHz x 4.82 stored bits (77.12)."""
        timing = DequantTiming()
        compressed_gbps = timing.lanes * timing.freq_ghz * 4.82 / 8.0
        assert OverlapConfig().dequant_gbps == pytest.approx(
            compressed_gbps, rel=5e-3
        )

    def test_dequant_engine_wider_than_quant_engine(self):
        """The dequant engine must keep pace with attention reads, so
        its datapath is wider (Figure 9b sizing)."""
        assert DequantTiming().lanes > DatapathTiming().lanes

    def test_dequant_outruns_per_core_memory_share(self):
        """At serving batch sizes the per-core DMA share (bandwidth /
        batch) sits far below one engine's compressed rate — the
        sizing that makes Section 5.3's overlap work."""
        per_core_share_gbps = 1100.0 / 16  # LPDDR at batch 16
        assert OverlapConfig().dequant_gbps > per_core_share_gbps


class TestScheduleShape:
    def test_dma_reads_share_one_window(self):
        """Fair-share arbitration: every core's read spans the same
        batch-wide DMA window."""
        report = simulate_overlap(8, KV_READ, NEW_KV, ATTN_S)
        reads = report.events_of("dma_read")
        window = 8 * KV_READ / (990.0 * 1e9)
        for event in reads:
            assert event.start_s == 0.0
            assert event.end_s == pytest.approx(window)

    def test_engine_work_fits_inside_dma_window(self):
        """The hiding mechanism: at batch 32 the summed dequant work
        (at engine rate) finishes inside the shared DMA window."""
        report = simulate_overlap(32, KV_READ, NEW_KV, ATTN_S)
        window = 32 * KV_READ / (990.0 * 1e9)
        for event in report.events_of("dequant"):
            assert event.end_s <= window * (1 + 1e-9)

    def test_makespan_bounded_by_dma_plus_tail(self):
        """The iteration cannot beat the aggregate DMA total, and ends
        at most one request's tail (attention + quant + write) later
        when engines keep pace."""
        batch = 32
        report = simulate_overlap(batch, KV_READ, NEW_KV, ATTN_S)
        dma_total = batch * KV_READ / (990.0 * 1e9)
        assert report.makespan_s >= dma_total
        tail = ATTN_S + NEW_KV / (64.0 * 1e9) + NEW_KV / (50.0 * 1e9)
        assert report.makespan_s == pytest.approx(
            dma_total + tail, rel=1e-6
        )

    def test_dequant_only_workload_fully_hidden_at_batch(self):
        """With no new-token KV and a batch-wide DMA window longer
        than the engine stream, nothing is exposed at all."""
        report = simulate_overlap(32, KV_READ, 0.0, ATTN_S)
        assert report.exposed_s == pytest.approx(0.0, abs=1e-12)
        assert report.hidden_fraction > 0.99

    def test_timeline_events_ordered_per_core(self):
        report = simulate_overlap(4, KV_READ, NEW_KV, ATTN_S)
        for core in range(4):
            events = sorted(
                (e for e in report.timeline if e.core == core),
                key=lambda e: (e.start_s, e.end_s),
            )
            for earlier, later in zip(events, events[1:]):
                assert later.start_s >= earlier.start_s - 1e-12


class TestOverlapProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        batch=st.integers(1, 64),
        kv_mb=st.floats(1.0, 512.0),
        attn_us=st.floats(0.0, 500.0),
    )
    def test_makespan_at_least_ideal(self, batch, kv_mb, attn_us):
        report = simulate_overlap(
            batch, kv_mb * MB, NEW_KV, attn_us * 1e-6
        )
        assert report.makespan_s >= report.ideal_makespan_s - 1e-12
        assert 0.0 <= report.hidden_fraction <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(batch=st.integers(1, 32))
    def test_makespan_monotone_in_batch(self, batch):
        """Never faster with more requests; strictly slower once the
        batch-wide DMA window (not the engine stream) paces the
        iteration (990/77 ~= 13 requests)."""
        smaller = simulate_overlap(batch, KV_READ, NEW_KV, ATTN_S)
        larger = simulate_overlap(batch + 1, KV_READ, NEW_KV, ATTN_S)
        assert larger.makespan_s >= smaller.makespan_s
        if batch >= 13:
            assert larger.makespan_s > smaller.makespan_s

    @settings(max_examples=20, deadline=None)
    @given(batch=st.integers(2, 64))
    def test_hiding_improves_with_batch(self, batch):
        """A longer shared DMA window hides more engine work."""
        small = simulate_overlap(batch, KV_READ, NEW_KV, ATTN_S)
        large = simulate_overlap(batch * 2, KV_READ, NEW_KV, ATTN_S)
        assert large.hidden_fraction >= small.hidden_fraction - 1e-9
