#!/usr/bin/env python
"""Hardware design-space exploration: engine width vs area vs exposure.

Why did the paper size the quantization engine at 32 lanes and the
dequantization engine at 128?  This example sweeps the engine datapath
widths, prices each point with the Table 4 area model (engine area
scales with lane count), and measures the resulting (de)quantization
exposure with the Section 5.3 overlap scheduler — reproducing the
design reasoning: the chosen widths are the knee where exposure
vanishes for a fraction of a percent of core area.

Run:  python examples/hw_design_space.py
"""

from repro.core.config import OakenConfig
from repro.experiments.common import TextTable
from repro.hardware.area import (
    DEQUANT_ENGINE_AREA_MM2,
    QUANT_ENGINE_AREA_MM2,
    AreaModel,
)
from repro.hardware.datapath import DatapathTiming, DequantTiming
from repro.hardware.overlap import OverlapConfig, simulate_overlap

MB = 1024.0 * 1024.0
KB = 1024.0

#: Llama2-7B-ish per-request iteration at 1K context.
KV_READ = 158 * MB
NEW_KV = 512 * KB
ATTN_S = 30e-6

#: The paper's engine widths: the Figure 9 datapaths' defaults.
PAPER_QUANT_LANES = DatapathTiming().lanes
PAPER_DEQUANT_LANES = DequantTiming().lanes

#: Stored bits per element at the 4/90/6 split; sets the compressed-
#: side byte rate of a dequant lane.
STORED_BITS = 4.82


def engine_rates(quant_lanes: int, dequant_lanes: int) -> OverlapConfig:
    """Per-core engine stream rates at 1 GHz for given lane counts."""
    return OverlapConfig(
        dequant_gbps=dequant_lanes * STORED_BITS / 8.0,
        quant_gbps=quant_lanes * 2.0,
    )


def engine_area_mm2(quant_lanes: int, dequant_lanes: int) -> float:
    """Engine area scaled linearly from the Table 4 reference widths."""
    base = AreaModel(OakenConfig()).core_report()
    quant = base.areas_mm2["quant_engine"] * (
        quant_lanes / PAPER_QUANT_LANES
    )
    dequant = base.areas_mm2["dequant_engine"] * (
        dequant_lanes / PAPER_DEQUANT_LANES
    )
    return quant + dequant


def main() -> None:
    base_core = AreaModel(OakenConfig()).core_report().core_area_mm2
    fixed = base_core - engine_area_mm2(
        PAPER_QUANT_LANES, PAPER_DEQUANT_LANES
    )
    print("engine design space (Llama2-7B iteration, 1K context):")
    print(f"  Table 4 reference: quant {PAPER_QUANT_LANES} lanes "
          f"({QUANT_ENGINE_AREA_MM2} mm2), dequant "
          f"{PAPER_DEQUANT_LANES} lanes ({DEQUANT_ENGINE_AREA_MM2} mm2)")

    table = TextTable(
        ["q_lanes", "dq_lanes", "engine_mm2", "area_ovh_%",
         "exposed%@b16", "exposed%@b64"]
    )
    sweep = (
        (8, 16), (16, 32), (32, 64), (32, 128), (64, 128), (64, 256),
    )
    knee = None
    for quant_lanes, dequant_lanes in sweep:
        config = engine_rates(quant_lanes, dequant_lanes)
        area = engine_area_mm2(quant_lanes, dequant_lanes)
        core = fixed + area
        exposures = []
        for batch in (16, 64):
            report = simulate_overlap(
                batch, KV_READ, NEW_KV, ATTN_S, config=config
            )
            exposures.append(
                100.0 * report.exposed_s / report.makespan_s
            )
        marker = ""
        if (quant_lanes, dequant_lanes) == (
            PAPER_QUANT_LANES, PAPER_DEQUANT_LANES
        ):
            marker = "  <- paper"
            knee = exposures
        table.add_row(
            [
                quant_lanes,
                dequant_lanes,
                f"{area:.3f}",
                f"{100 * area / core:.2f}{marker}",
                f"{exposures[0]:.2f}",
                f"{exposures[1]:.2f}",
            ]
        )
    print()
    print(table.render())
    assert knee is not None and max(knee) < 1.0
    print("\nreading: narrower engines leave dequantization on the "
          "critical path at moderate batch; wider ones buy nothing "
          "(the DMA window already hides everything) while growing "
          "the 8.21% engine area. The paper's 32/128 sits at the "
          "knee.")


if __name__ == "__main__":
    main()
