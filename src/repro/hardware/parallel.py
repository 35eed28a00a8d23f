"""Explicit pipeline-parallel execution model (Section 6.1's 2-GPU setup).

The paper runs OPT-30B, Mixtral-8x7B, and Llama2-70B on *two* A100s
"employing pipeline parallelism to keep computation capability and
memory bandwidth consistent, while scaling capacity to 160 GB".  The
device catalog approximates that with a monolithic double-capacity
device (``a100x2``); this module models the pipeline explicitly so the
approximation can be validated and its costs quantified:

* decoder layers partition into balanced stages, one device each;
* each generation iteration sends every microbatch through every stage
  in order — with ``M`` microbatches and ``S`` stages the iteration
  takes ``sum_s(t_s) + (M - 1) * max_s(t_s)``, the classic GPipe
  schedule with its ``(S-1)/(S+M-1)`` bubble;
* microbatching is not free on weight-streaming hardware: each stage
  re-streams its weight slice once per microbatch pass, so more
  microbatches shrink the bubble but inflate weight traffic — the
  trade-off the ablation bench sweeps;
* capacity is per stage: a stage holds its layer share of weights and
  of every resident request's KV cache.

The cross-check the tests enforce: a one-stage "pipeline" must agree
exactly with :func:`repro.hardware.perf.generation_iteration`, and the
balanced two-stage pipeline's max batch must match the monolithic
double-capacity approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.modes import EXACT_F64
from repro.hardware.overheads import ServingSystem
from repro.hardware.perf import (
    _iteration_arrays,
    _pair_params,
    kv_bytes_per_request,
    weight_bytes,
)
from repro.models.config import ArchShape


def partition_layers(n_layers: int, num_stages: int) -> Tuple[int, ...]:
    """Balanced contiguous layer split (front stages take remainders).

    Args:
        n_layers: decoder layer count.
        num_stages: pipeline depth.

    Returns:
        Per-stage layer counts summing to ``n_layers``.
    """
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if n_layers < num_stages:
        raise ValueError(
            f"cannot split {n_layers} layers over {num_stages} stages"
        )
    base = n_layers // num_stages
    remainder = n_layers % num_stages
    return tuple(
        base + (1 if stage < remainder else 0)
        for stage in range(num_stages)
    )


@dataclass(frozen=True)
class PipelinePlan:
    """One pipeline configuration.

    Attributes:
        layer_split: per-stage layer counts.
        microbatches: microbatches per iteration (GPipe M).
    """

    layer_split: Tuple[int, ...]
    microbatches: int = 1

    def __post_init__(self) -> None:
        if self.microbatches < 1:
            raise ValueError("microbatches must be >= 1")
        if not self.layer_split or any(k < 1 for k in self.layer_split):
            raise ValueError("every stage needs at least one layer")

    @property
    def num_stages(self) -> int:
        return len(self.layer_split)

    @property
    def total_layers(self) -> int:
        return sum(self.layer_split)

    @classmethod
    def balanced(
        cls, arch: ArchShape, num_stages: int, microbatches: int = 1
    ) -> "PipelinePlan":
        """Balanced split of a model's decoder stack."""
        return cls(
            layer_split=partition_layers(arch.n_layers, num_stages),
            microbatches=microbatches,
        )


@dataclass
class StageTiming:
    """Per-microbatch timing of one pipeline stage.

    Attributes:
        stage: stage index.
        layers: decoder layers resident on this stage.
        nonattn_s: weight-stream/compute roofline time.
        attn_s: KV read/compute roofline time.
        exposed_overhead_s: (de)quantization time on the critical path.
    """

    stage: int
    layers: int
    nonattn_s: float
    attn_s: float
    exposed_overhead_s: float

    @property
    def total_s(self) -> float:
        return self.nonattn_s + self.attn_s + self.exposed_overhead_s


@dataclass
class PipelineBreakdown:
    """One generation iteration through the pipeline.

    Attributes:
        plan: the pipeline configuration.
        batch: total resident requests.
        stage_times: per-microbatch stage timings.
        iteration_s: end-to-end iteration latency.
        bottleneck_stage: index of the slowest stage.
        bubble_fraction: idle fraction of the bottleneck device
            (``(S-1)/(S+M-1)`` for balanced stages).
    """

    plan: PipelinePlan
    batch: int
    stage_times: List[StageTiming]
    iteration_s: float
    bottleneck_stage: int
    bubble_fraction: float

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated tokens per second at this iteration latency."""
        if self.iteration_s <= 0:
            return 0.0
        return self.batch / self.iteration_s


def pipeline_generation_iteration(
    system: ServingSystem,
    arch: ArchShape,
    batch: int,
    context: int,
    plan: PipelinePlan,
) -> PipelineBreakdown:
    """One generation iteration through an explicit pipeline.

    Args:
        system: serving system (its ``device_for`` result is used as
            the per-stage device — the paper keeps per-stage bandwidth
            and compute identical to one device).
        arch: model architecture.
        batch: resident requests this iteration.
        context: per-request context length.
        plan: stage split and microbatch count.

    Returns:
        A :class:`PipelineBreakdown`.
    """
    if plan.total_layers != arch.n_layers:
        raise ValueError(
            f"plan covers {plan.total_layers} layers, model has "
            f"{arch.n_layers}"
        )
    if batch < 1:
        raise ValueError("batch must be >= 1")
    microbatch = max(1, math.ceil(batch / plan.microbatches))
    # One kernel call with the stages as the point axis: the iteration
    # roofline with every layer-proportional quantity scaled by the
    # stage's layer share (embeddings are amortized proportionally — a
    # deliberate approximation the module docstring calls out).
    arrays = _iteration_arrays(
        _pair_params(system, arch, EXACT_F64.compute_dtype),
        microbatch,
        context,
        ragged=False,
        layer_share=np.array(plan.layer_split) / arch.n_layers,
    )
    stage_times = [
        StageTiming(
            stage=stage,
            layers=layers,
            nonattn_s=float(arrays["nonattn_s"][stage]),
            attn_s=float(arrays["attn_s"][stage]),
            exposed_overhead_s=float(arrays["exposed_overhead_s"][stage]),
        )
        for stage, layers in enumerate(plan.layer_split)
    ]
    per_stage = [s.total_s for s in stage_times]
    slowest = max(per_stage)
    iteration = sum(per_stage) + (plan.microbatches - 1) * slowest
    bottleneck = per_stage.index(slowest)
    busy = plan.microbatches * slowest
    bubble = (
        max(0.0, 1.0 - busy / iteration) if iteration > 0 else 0.0
    )
    return PipelineBreakdown(
        plan=plan,
        batch=batch,
        stage_times=stage_times,
        iteration_s=iteration,
        bottleneck_stage=bottleneck,
        bubble_fraction=bubble,
    )


def pipeline_max_batch(
    system: ServingSystem,
    arch: ArchShape,
    total_context: int,
    plan: PipelinePlan,
) -> int:
    """Largest batch whose per-stage KV share fits on every stage.

    Each stage holds its layer share of the weights and of every
    request's KV cache; the pipeline's capacity is the minimum across
    stages (balanced splits make this ~the monolithic double-capacity
    approximation).
    """
    if plan.total_layers != arch.n_layers:
        raise ValueError(
            f"plan covers {plan.total_layers} layers, model has "
            f"{arch.n_layers}"
        )
    device = system.device_for(arch)
    # Per-stage budget uses the *single* device's memory: the plan
    # replaces the monolithic approximation, not the device.
    single = device.memory.capacity_bytes / (
        2.0 if device.name.endswith("x2") else 1.0
    )
    per_request = kv_bytes_per_request(system, arch, total_context)
    fits = []
    for layers in plan.layer_split:
        share = layers / arch.n_layers
        budget = single * (1.0 - device.reserved_fraction)
        budget -= weight_bytes(arch, system.weight_bits) * share
        if budget <= 0:
            return 0
        fits.append(int(budget // (per_request * share)))
    return min(fits)
