"""Datapath verification bench: structural engines vs golden model.

Not a paper table — this is the functional-verification step between
the Figure 9 engine datapaths and the algorithm.  The bench streams a
realistic KV slab through the structural engines, asserts bit-exact
agreement with the vectorized quantizer, reports per-stage occupancy,
and times the engines (pytest-benchmark) so regressions in the
datapath model show up.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import save_result

from repro.core.config import OakenConfig
from repro.core.quantizer import OakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.experiments.common import TextTable
from repro.hardware.datapath import (
    VectorizedDequantEngine,
    VectorizedQuantEngine,
)


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
    golden = OakenQuantizer(cfg, thresholds)
    quant = VectorizedQuantEngine(cfg, thresholds)
    dequant = VectorizedDequantEngine(cfg, thresholds)

    encoded, quant_cycles = benchmark.pedantic(
        quant.quantize_matrix, args=(slab,), iterations=1, rounds=1
    )
    reference = golden.quantize(slab)
    np.testing.assert_array_equal(
        encoded.dense_codes, reference.dense_codes
    )
    restored, dequant_cycles = dequant.dequantize_matrix(encoded)
    np.testing.assert_array_equal(restored, golden.dequantize(reference))

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
    engine = VectorizedQuantEngine(cfg, thresholds)

    encoded, _ = benchmark(engine.quantize_matrix, slab)
    np.testing.assert_array_equal(
        encoded.dense_codes,
        OakenQuantizer(cfg, thresholds).quantize(slab).dense_codes,
    )


def test_dequant_engine_benchmark(benchmark, workload):
    cfg, thresholds, slab = workload
    golden = OakenQuantizer(cfg, thresholds)
    encoded = golden.quantize(slab)
    engine = VectorizedDequantEngine(cfg, thresholds)

    rows, _ = benchmark(engine.dequantize_matrix, encoded)
    np.testing.assert_array_equal(rows, golden.dequantize(encoded))
