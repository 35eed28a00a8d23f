"""Tests for the MMU cache layout."""

import numpy as np
import pytest

from repro.core.config import OakenConfig
from repro.core.quantizer import OakenQuantizer
from repro.hardware.cache_layout import (
    OakenCacheLayout,
    naive_interleaved_schedule,
    read_bandwidth_efficiency,
)
from repro.hardware.memory import LPDDR_256GB, MemorySpec
from repro.hardware.mmu import MemoryManagementUnit

from conftest import make_kv_matrix


@pytest.fixture()
def layout():
    mmu = MemoryManagementUnit(capacity_bytes=1 << 22, page_bytes=4096)
    return OakenCacheLayout(mmu, num_heads=4)


@pytest.fixture(scope="module")
def encoded():
    x = make_kv_matrix(tokens=64, dim=64, seed=3)
    quantizer = OakenQuantizer.from_samples([x], OakenConfig())
    return quantizer.quantize(x)


class TestCacheLayout:
    def test_placement_accounting(self, layout, encoded):
        report = layout.place(0, 0, encoded)
        assert report.tokens == 64
        assert report.heads == 4
        # 16 elements per head at 4 bits = 8 bytes per dense entry.
        assert report.dense_bytes == 64 * 4 * 8
        assert report.sparse_bytes == encoded.num_outliers * 1
        assert report.pages_used == layout.mmu.pages_in_use

    def test_indivisible_heads_rejected(self, layout):
        x = make_kv_matrix(
            tokens=4, dim=30, seed=0, outlier_channels=(3, 17, 25)
        )
        quantizer = OakenQuantizer.from_samples([x], OakenConfig())
        with pytest.raises(ValueError):
            layout.place(0, 0, quantizer.quantize(x))

    def test_invalid_heads_rejected(self):
        mmu = MemoryManagementUnit(1 << 20)
        with pytest.raises(ValueError):
            OakenCacheLayout(mmu, num_heads=0)

    def test_read_schedule_is_bursty(self, layout, encoded):
        layout.place(0, 0, encoded)
        schedule = layout.read_schedule(0, 0, 0)
        # 64 dense entries of 8 bytes coalesce into about one burst per
        # 4 KiB page plus a handful of sparse bursts.
        assert 0 < len(schedule) <= 6
        total = sum(size for _, size in schedule)
        assert total >= 64 * 8

    def test_sequential_layout_beats_naive(self, layout, encoded):
        layout.place(0, 0, encoded)
        schedule = layout.read_schedule(0, 0, 0)
        efficiency = read_bandwidth_efficiency(schedule, LPDDR_256GB)
        naive = naive_interleaved_schedule(
            tokens=64, entry_bytes=8, num_heads=4
        )
        naive_efficiency = read_bandwidth_efficiency(
            naive, LPDDR_256GB
        )
        # The MMU's page-sequential layout approaches peak bandwidth;
        # interleaved per-token reads waste most of it (Section 5.2).
        assert efficiency > 0.4
        assert naive_efficiency < 0.2
        assert efficiency > 3 * naive_efficiency

    def test_efficiency_empty_schedule(self):
        assert read_bandwidth_efficiency([], LPDDR_256GB) == 0.0

    def test_heads_isolated(self, layout, encoded):
        layout.place(0, 0, encoded)
        spans = []
        for head in range(4):
            for addr, size in layout.read_schedule(0, 0, head):
                spans.append((addr, addr + size))
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

