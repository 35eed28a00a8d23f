"""The frozen Python-float analytic model: the test oracle.

Until PR 16 this formula was ``repro.hardware.perf``'s scalar path,
held equal to the array kernel by ``test_analytic_vectorized.py``.
Production now evaluates only the kernel; these functions are that
scalar path moved here verbatim (minus the compute-mode fork: the
oracle is the exact float64 model) so the kernel, the grid front-end
and the serving pricer keep an independent spelling to be ``==`` to.
Do not edit the arithmetic: operand order is the contract.
"""

from typing import Optional

from repro.hardware.overheads import ServingSystem
from repro.hardware.perf import (
    GenerationRun,
    IterationBreakdown,
    kv_bytes_per_token,
    weight_bytes,
)
from repro.models.config import ArchShape

_CHECKPOINTS = 16


def max_supported_batch(
    system: ServingSystem,
    arch: ArchShape,
    total_context: int,
) -> int:
    """Largest batch whose full-context KV cache fits in memory."""
    device = system.device_for(arch)
    kv_bits = system.kv_bits(arch)
    budget = device.memory.capacity_bytes * (
        1.0 - device.reserved_fraction
    )
    budget -= weight_bytes(arch, system.weight_bits)
    if budget <= 0:
        return 0
    per_request = kv_bytes_per_token(arch, kv_bits) * arch.attended_length(
        total_context
    )
    return int(budget // per_request)


def generation_iteration(
    system: ServingSystem,
    arch: ArchShape,
    batch: int,
    context: int,
    ragged: bool = False,
) -> IterationBreakdown:
    """Latency breakdown of one generation iteration."""
    device = system.device_for(arch)
    profile = system.profile
    kv_bits = system.kv_bits(arch)

    efficiency = (
        profile.ragged_batch_efficiency if ragged else 1.0
    )
    # --- batchable path ---------------------------------------------------
    w_bytes = weight_bytes(arch, system.weight_bits)
    t_weight = device.weight_stream_time_s(w_bytes)
    flops_nonattn = arch.flops_per_token_nonattn() * batch
    t_compute = flops_nonattn / (device.effective_flops * efficiency)
    nonattn = max(t_weight, t_compute)

    # --- attention path ---------------------------------------------------
    attended = arch.attended_length(context)
    kv_read = batch * attended * kv_bytes_per_token(arch, kv_bits)
    t_attn_read = device.attention_read_time_s(kv_read)
    flops_attn = arch.flops_per_token_attn(context) * batch
    t_attn_compute = flops_attn / device.effective_flops
    t_attn = max(t_attn_read, t_attn_compute)

    # --- (de)quantization -------------------------------------------------
    new_kv_bytes = batch * kv_bytes_per_token(arch, 16.0)
    if profile.overlapped:
        # Hardware engines stream at fixed rates; both directions
        # overlap with DMA/attention of other requests (Section 5.3),
        # so only work exceeding the attention window is exposed.
        quant_s = (
            new_kv_bytes / (profile.engine_quant_gbps * 1e9)
            if profile.engine_quant_gbps
            else 0.0
        )
        dequant_s = (
            kv_read / (profile.engine_dequant_gbps * 1e9)
            if profile.engine_dequant_gbps
            else 0.0
        )
        exposed = max(0.0, quant_s + dequant_s - 0.9 * t_attn)
    else:
        # Software: dequantization inflates every KV read; online
        # quantization is per-generated-value compute on the critical
        # path.
        dequant_s = (profile.dequant_slowdown - 1.0) * t_attn_read
        quant_values = batch * arch.kv_elements_per_token()
        quant_s = (
            quant_values * profile.quant_flops_per_value
            / device.effective_flops
        )
        exposed = quant_s + dequant_s

    total = nonattn + t_attn + exposed
    util = (
        (flops_nonattn + flops_attn) / (total * device.peak_flops)
        if total > 0
        else 0.0
    )
    return IterationBreakdown(
        nonattn_s=nonattn,
        attn_s=t_attn,
        quant_s=quant_s,
        dequant_s=dequant_s,
        exposed_overhead_s=exposed,
        compute_util=util,
    )


def prefill_time(
    system: ServingSystem,
    arch: ArchShape,
    batch: int,
    prompt_tokens: int,
) -> float:
    """Prefill-phase latency: compute-bound parallel token processing."""
    device = system.device_for(arch)
    # Causal attention over the prompt sums to roughly
    # prompt * attn_flops(prompt / 2) per request.
    flops = batch * prompt_tokens * (
        arch.flops_per_token_nonattn()
        + arch.flops_per_token_attn(max(1, prompt_tokens // 2))
    )
    t_compute = flops / device.effective_flops
    t_weight = device.weight_stream_time_s(
        weight_bytes(arch, system.weight_bits)
    )
    return max(t_compute, t_weight)


def simulate_generation_run(
    system: ServingSystem,
    arch: ArchShape,
    batch: int,
    input_tokens: int = 1024,
    output_tokens: int = 1024,
    ragged: bool = False,
) -> GenerationRun:
    """Simulate a batched run and return its throughput.

    Paged (GPU) systems clip the resident batch to what fits and keep
    serving — throughput saturates.  Dedicated accelerators OOM when
    the requested batch cannot fit (Figure 4's missing bars).
    """
    total_context = input_tokens + output_tokens
    fit = max_supported_batch(system, arch, total_context)
    device = system.device_for(arch)
    if fit < 1:
        return GenerationRun(
            system=system.name, batch=batch, effective_batch=0,
            oom=True, tokens_per_s=0.0,
        )
    if batch > fit and not device.paged_serving:
        return GenerationRun(
            system=system.name, batch=batch, effective_batch=0,
            oom=True, tokens_per_s=0.0,
        )
    effective = min(batch, fit)

    t_prefill = prefill_time(system, arch, effective, input_tokens)
    step = max(1, output_tokens // _CHECKPOINTS)
    t_generation = 0.0
    steps = 0
    mid_breakdown: Optional[IterationBreakdown] = None
    for offset in range(0, output_tokens, step):
        context = input_tokens + offset
        breakdown = generation_iteration(
            system, arch, effective, context, ragged=ragged
        )
        span = min(step, output_tokens - offset)
        t_generation += breakdown.total_s * span
        steps += span
        if offset <= output_tokens // 2 < offset + span:
            mid_breakdown = breakdown
    total_time = t_prefill + t_generation
    tokens = effective * output_tokens
    return GenerationRun(
        system=system.name,
        batch=batch,
        effective_batch=effective,
        oom=False,
        tokens_per_s=tokens / total_time,
        prefill_s=t_prefill,
        generation_s=t_generation,
        breakdown=mid_breakdown,
    )
