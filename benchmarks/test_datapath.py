"""Datapath verification bench: the engines vs the golden model.

Not a paper table — this is the functional-verification step between
the Figure 9 engine datapaths and the algorithm.  The bench streams a
realistic KV slab through the engine-backed quantizer (the fused
kernel, priced in engine cycles), asserts bit-exact agreement with the
frozen seed kernels, reports per-stage occupancy from the engines'
cycle reports, and times the engine-backed passes (pytest-benchmark).
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import save_result

from repro.core.config import OakenConfig
from repro.core.reference import ReferenceOakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.experiments.common import TextTable
from repro.hardware.datapath import EngineBackedQuantizer


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2025)
    cfg = OakenConfig()
    dim = 128
    samples = [rng.standard_normal((64, dim)) * 3.0 for _ in range(8)]
    thresholds = profile_thresholds(samples, cfg)
    slab = rng.standard_normal((64, dim)) * 3.0
    return cfg, thresholds, slab


def test_datapath_verification_report(benchmark, workload, results_dir):
    cfg, thresholds, slab = workload
    golden = ReferenceOakenQuantizer(cfg, thresholds)
    engine = EngineBackedQuantizer(cfg, thresholds)

    encoded = benchmark.pedantic(
        engine.quantize, args=(slab,), iterations=1, rounds=1
    )
    reference = golden.quantize(slab)
    np.testing.assert_array_equal(
        encoded.dense_codes, reference.dense_codes
    )
    restored = engine.dequantize(encoded)
    np.testing.assert_array_equal(restored, golden.dequantize(reference))
    quant_cycles = engine.quant_timing.report(encoded)
    dequant_cycles = engine.dequant_timing.report(encoded)

    table = TextTable(
        ["engine", "tokens", "cycles", "ns @1GHz",
         "busiest stage", "occupancy"],
        title="Datapath verification: streaming engines vs golden model",
    )
    for name, report in (
        ("quantization", quant_cycles),
        ("dequantization", dequant_cycles),
    ):
        occupancy = report.occupancy()
        busiest = max(occupancy, key=occupancy.get)
        table.add_row(
            [
                name,
                report.tokens,
                report.total_cycles,
                f"{report.time_s(1.0) * 1e9:.0f}",
                busiest,
                f"{occupancy[busiest]:.2f}",
            ]
        )
    table.add_note(
        "bit-exact vs vectorized OakenQuantizer on a 64x128 KV slab "
        f"({encoded.num_outliers} outliers, "
        f"{encoded.effective_bitwidth():.2f} effective bits)"
    )
    save_result(results_dir, "datapath_verification", table.render())


def test_quant_engine_benchmark(benchmark, workload):
    cfg, thresholds, slab = workload
    engine = EngineBackedQuantizer(cfg, thresholds)

    encoded = benchmark(engine.quantize, slab)
    np.testing.assert_array_equal(
        encoded.dense_codes,
        ReferenceOakenQuantizer(cfg, thresholds).quantize(slab).dense_codes,
    )


def test_dequant_engine_benchmark(benchmark, workload):
    cfg, thresholds, slab = workload
    golden = ReferenceOakenQuantizer(cfg, thresholds)
    encoded = golden.quantize(slab)
    engine = EngineBackedQuantizer(cfg, thresholds)

    rows = benchmark(engine.dequantize, encoded)
    np.testing.assert_array_equal(rows, golden.dequantize(encoded))
