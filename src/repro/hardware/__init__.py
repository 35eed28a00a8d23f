"""Cycle-approximate hardware simulation of Oaken and its baselines.

The paper's performance results are bandwidth/capacity phenomena, so the
simulator is an analytic roofline model with explicit memory semantics
rather than an RTL-level simulator (the substitution is documented in
DESIGN.md):

* :mod:`repro.hardware.memory` — HBM/LPDDR specs with a burst-
  efficiency model (small scattered transfers waste bandwidth; the MMU's
  page layout is what keeps Oaken near peak).
* :mod:`repro.hardware.mmu` — a functional page-based memory management
  unit with separate dense and sparse management tables, reproducing
  Section 5.2's design (virtual-to-physical mapping, per-entry transfer
  sizes, burst-order reads).
* :mod:`repro.hardware.datapath` — functional, bit-exact models of
  the Figure 9 quantization/dequantization engines in the DMA unit
  (decomposer, min/max finder, σ-calculator, zero-remove/zero-insert
  shifters, OR-merge) with per-stage cycle reports, verified against
  the algorithm and a scalar element-streaming golden model — the
  RTL-vs-golden-model check.  Their timing objects' ``cycles()`` is
  the engines' one cycle model.
* :mod:`repro.hardware.interconnect` — transaction-level model of the
  cores/controllers fabric (Section 5.1): round-robin arbitration,
  broadcast weight reads vs private KV streams, burst overheads.
* :mod:`repro.hardware.accelerator` — device catalog: NVIDIA A100 (x1
  and x2), Oaken-HBM, Oaken-LPDDR, LPU, Tender (Table 1 and Section 6.1
  configurations).
* :mod:`repro.hardware.overheads` — per-method software/hardware
  overhead profiles (online sorting, mixed-precision gather, channel
  reordering, GPU warp divergence) and effective KV bitwidths.
* :mod:`repro.hardware.overlap` — list-scheduled model of Section
  5.3's overlap policy: measures how much (de)quantization time lands
  on the critical path instead of assuming it.
* :mod:`repro.hardware.parallel` — explicit pipeline-parallel model of
  the 2-GPU baselines (stage partitioning, GPipe bubbles, microbatch
  weight-restream trade-off, per-stage capacity).
* :mod:`repro.hardware.perf` — the iteration-level timing model,
  written once as an array kernel: prefill and generation phase
  latencies, OOM/paging capacity semantics, throughput integration
  over a generation run, and the scalar entry points over it.
* :mod:`repro.hardware.sweep` — the kernel's grid front-end: whole
  (model x system x batch) sweeps by registry name.
* :mod:`repro.hardware.area` — the TSMC-28nm area/power accounting of
  Table 4.
"""

from repro.hardware.accelerator import (
    DEVICES,
    DeviceSpec,
    get_device,
)
from repro.hardware.area import AreaModel, AreaReport, area_grid
from repro.hardware.cache_layout import (
    OakenCacheLayout,
    naive_interleaved_schedule,
    read_bandwidth_efficiency,
)
from repro.hardware.interconnect import (
    FabricReport,
    MemoryFabric,
    TrafficClass,
    generation_fabric_report,
)
from repro.hardware.memory import HBM_80GB, HOST_DDR, LPDDR_256GB, MemorySpec
from repro.hardware.mmu import MemoryManagementUnit, PageTableKind
from repro.hardware.overlap import (
    OverlapConfig,
    OverlapReport,
    simulate_overlap,
)
from repro.hardware.parallel import (
    PipelineBreakdown,
    PipelinePlan,
    partition_layers,
    pipeline_generation_iteration,
    pipeline_max_batch,
)
from repro.hardware.overheads import (
    SERVING_SYSTEMS,
    MethodProfile,
    ServingSystem,
    get_system,
)
from repro.hardware.perf import (
    GenerationRun,
    IterationBreakdown,
    generation_iteration,
    max_supported_batch,
    prefill_time,
    simulate_generation_run,
)
from repro.hardware.sweep import (
    GenerationGrid,
    GridPoint,
    capacity_grid,
    grid_points,
    iteration_grid,
    simulate_generation_grid,
)

__all__ = [
    "AreaModel",
    "AreaReport",
    "DEVICES",
    "DeviceSpec",
    "FabricReport",
    "GenerationRun",
    "HBM_80GB",
    "HOST_DDR",
    "MemoryFabric",
    "TrafficClass",
    "generation_fabric_report",
    "IterationBreakdown",
    "LPDDR_256GB",
    "MemoryManagementUnit",
    "MemorySpec",
    "OakenCacheLayout",
    "MethodProfile",
    "OverlapConfig",
    "OverlapReport",
    "simulate_overlap",
    "PageTableKind",
    "PipelineBreakdown",
    "PipelinePlan",
    "partition_layers",
    "pipeline_generation_iteration",
    "pipeline_max_batch",
    "SERVING_SYSTEMS",
    "ServingSystem",
    "generation_iteration",
    "naive_interleaved_schedule",
    "read_bandwidth_efficiency",
    "get_device",
    "get_system",
    "max_supported_batch",
    "prefill_time",
    "simulate_generation_run",
    "GenerationGrid",
    "GridPoint",
    "area_grid",
    "capacity_grid",
    "grid_points",
    "iteration_grid",
    "simulate_generation_grid",
]
