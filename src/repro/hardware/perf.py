"""Iteration-level performance model (prefill + generation phases).

The model follows the paper's characterization (Section 3):

* **Non-attention operations** (QKV generation, projection, FFN) are
  *batchable*: weights stream from memory once per iteration and are
  reused across the batch, so their latency is the max of the weight
  stream time and the batched compute time (a roofline).
* **Attention operations** are *un-batchable*: every request reads its
  own KV cache, so their latency is the total KV bytes moved over the
  attention-path bandwidth — this is the term quantization shrinks.
* **(De)quantization** either rides the DMA stream (Oaken's engines,
  overlapped with attention of other requests, Section 5.3) or sits on
  the critical path (GPU software implementations).

Capacity semantics: a batch's KV cache must fit alongside the weights.
Paged GPU stacks degrade gracefully (the effective concurrent batch
saturates — Figure 11's flat GPU curves); dedicated accelerators
hard-OOM (Figure 4's missing bars).

The formula is written once, as array operations over a point axis
(:func:`_iteration_arrays`, :func:`_prefill_arrays`,
:func:`_generation_arrays`).  The scalar entry points below, the grid
front-end in :mod:`repro.hardware.sweep` and the pipeline stages of
:mod:`repro.hardware.parallel` all evaluate that kernel, in either
:class:`~repro.core.modes.ComputeMode`: ``exact_f64`` equals the
frozen Python-float oracle kept in ``tests/analytic_oracle.py`` bit
for bit, ``deploy_f32`` runs the identical operation sequence in
float32 stage registers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.modes import (
    ComputeModeLike,
    EXACT_F64,
    resolve_compute_mode,
)
from repro.hardware.overheads import ServingSystem
from repro.models.config import ArchShape

#: Generation-phase context checkpoints used to integrate iteration
#: latency over a run (latency is affine in context, so sparse
#: checkpoints are exact enough).
_CHECKPOINTS = 16

#: Consecutive contexts priced by one kernel call behind
#: :func:`generation_iteration`.  A serving replay's mean context
#: advances about one token per iteration, so a block is priced once
#: and then read by index.
_BLOCK_CONTEXTS = 64

#: Priced blocks kept (least recently used dropped first); a block is
#: ``_BLOCK_CONTEXTS`` rows of six float64.
_MAX_BLOCKS = 4096

#: Stand-in window length for "no sliding window" (never binds: far
#: larger than any context the analytic model prices).
_NO_WINDOW = 2**62


@dataclass
class IterationBreakdown:
    """Latency components of one generation iteration (seconds).

    Attributes:
        nonattn_s: batchable (weight-streaming/compute) time.
        attn_s: KV-cache read + score/context compute time.
        quant_s: online quantization time (raw, before overlap).
        dequant_s: dequantization time (raw, before overlap).
        exposed_overhead_s: the part of quant+dequant actually added to
            the critical path after overlap.
        compute_util: fraction of peak FLOPs used over the iteration.
    """

    nonattn_s: float
    attn_s: float
    quant_s: float = 0.0
    dequant_s: float = 0.0
    exposed_overhead_s: float = 0.0
    compute_util: float = 0.0

    @property
    def total_s(self) -> float:
        return self.nonattn_s + self.attn_s + self.exposed_overhead_s


#: Kernel output columns, in :class:`IterationBreakdown` field order.
_BREAKDOWN_FIELDS = (
    "nonattn_s", "attn_s", "quant_s", "dequant_s",
    "exposed_overhead_s", "compute_util",
)


def weight_bytes(arch: ArchShape, weight_bits: float = 16.0) -> float:
    """Stored model weight bytes."""
    return arch.weight_bytes(weight_bits)


def kv_bytes_per_token(arch: ArchShape, kv_bits: float) -> float:
    """KV bytes appended per generated token at a given bitwidth."""
    return arch.kv_bytes_per_token(kv_bits)


def _require_at_least(minimum: int, **values) -> None:
    """The model's one input check: hostile counts raise, they are
    never priced (a negative batch would report negative tokens/s)."""
    for name, value in values.items():
        if np.any(value < minimum):
            raise ValueError(
                f"{name} must be >= {minimum}, got {np.min(value)}"
            )


# ----------------------------------------------------------------------
# capacity
# ----------------------------------------------------------------------


def kv_budget_bytes(system: ServingSystem, arch: ArchShape) -> float:
    """Device bytes left for KV cache beside the weights (may be <= 0)."""
    device = system.device_for(arch)
    budget = device.memory.capacity_bytes * (
        1.0 - device.reserved_fraction
    )
    return budget - weight_bytes(arch, system.weight_bits)


def kv_bytes_per_request(
    system: ServingSystem, arch: ArchShape, total_context: int
) -> float:
    """KV bytes one request holds at its full context."""
    _require_at_least(1, total_context=total_context)
    return kv_bytes_per_token(
        arch, system.kv_bits(arch)
    ) * arch.attended_length(total_context)


def max_supported_batch(
    system: ServingSystem,
    arch: ArchShape,
    total_context: int,
) -> int:
    """Largest batch whose full-context KV cache fits in memory."""
    per_request = kv_bytes_per_request(system, arch, total_context)
    budget = kv_budget_bytes(system, arch)
    if budget <= 0:
        return 0
    return int(budget // per_request)


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------


class _PairParams:
    """Per-(system, arch) constants, extracted once in float64."""

    __slots__ = (
        "w_bytes", "weight_denom", "eff_flops", "peak_flops",
        "ragged_eff", "fnon", "attn_coeff", "kv_bytes_q", "kv_bytes_16",
        "attn_denom", "kv_elems", "window", "overlapped",
        "quant_rate", "dequant_rate", "slowdown_m1", "quant_fpv",
        "paged",
    )

    def __init__(self, system: ServingSystem, arch: ArchShape):
        device = system.device_for(arch)
        profile = system.profile
        bandwidth = device.memory.bandwidth_bytes_per_s
        self.w_bytes = weight_bytes(arch, system.weight_bits)
        self.weight_denom = bandwidth * device.weight_bw_efficiency
        self.eff_flops = device.effective_flops
        self.peak_flops = device.peak_flops
        self.ragged_eff = profile.ragged_batch_efficiency
        self.fnon = arch.flops_per_token_nonattn()
        # flops_per_token_attn(ctx) == attn_coeff * attended(ctx); the
        # product of exactly representable integers re-associates
        # without rounding, so hoisting the coefficient is exact.
        self.attn_coeff = 2.0 * 2.0 * arch.n_heads * arch.head_dim
        self.kv_bytes_q = kv_bytes_per_token(arch, system.kv_bits(arch))
        self.kv_bytes_16 = kv_bytes_per_token(arch, 16.0)
        self.attn_denom = bandwidth * device.attn_bw_efficiency
        self.kv_elems = arch.kv_elements_per_token()
        self.window = (
            _NO_WINDOW if arch.sliding_window is None
            else arch.sliding_window
        )
        self.overlapped = bool(profile.overlapped)
        self.quant_rate = (
            profile.engine_quant_gbps * 1e9
            if profile.engine_quant_gbps else 0.0
        )
        self.dequant_rate = (
            profile.engine_dequant_gbps * 1e9
            if profile.engine_dequant_gbps else 0.0
        )
        self.slowdown_m1 = profile.dequant_slowdown - 1.0
        self.quant_fpv = profile.quant_flops_per_value
        self.paged = bool(device.paged_serving)


class _KernelParams:
    """Column arrays of :class:`_PairParams` rows in one working dtype.

    The f64 -> f32 cast happens *here*, once per column — the
    deploy_f32 "stage register" rule: constants are derived at full
    precision, then rounded once, then all per-point math runs in the
    working dtype.  The weight stream time is itself a constant of the
    pair (and the stage's layer share), so its two operands stay
    float64 and the kernel rounds their quotient.
    """

    _FLOAT_FIELDS = (
        "eff_flops", "peak_flops", "ragged_eff", "fnon", "attn_coeff",
        "kv_bytes_q", "kv_bytes_16", "attn_denom", "quant_rate",
        "dequant_rate", "slowdown_m1", "quant_fpv",
    )
    _FIXED_FIELDS = (
        ("w_bytes", np.float64), ("weight_denom", np.float64),
        ("kv_elems", np.int64), ("window", np.int64),
        ("overlapped", bool), ("paged", bool),
    )

    def __init__(self, rows: Sequence[_PairParams], dtype: np.dtype):
        self.dtype = dtype
        for name in self._FLOAT_FIELDS:
            setattr(self, name, np.array(
                [getattr(r, name) for r in rows], dtype=dtype
            ))
        for name, fixed in self._FIXED_FIELDS:
            setattr(self, name, np.array(
                [getattr(r, name) for r in rows], dtype=fixed
            ))


def _ints(values) -> np.ndarray:
    """An int or int sequence as a (>= 1-d) int64 point-axis array."""
    return np.atleast_1d(np.asarray(values, dtype=np.int64))


def _iteration_arrays(
    p: _KernelParams,
    batch,
    context,
    ragged: bool,
    layer_share=1.0,
) -> Dict[str, np.ndarray]:
    """One generation iteration over a point axis.

    ``batch`` and ``context`` are ints or integer arrays that broadcast
    against the parameter columns: a grid varies the parameters and
    the batch at one context, the serving pricer varies the context
    for one pair and batch.  ``layer_share`` (a float, or a float64
    array that makes pipeline stages the point axis) scales every
    layer-proportional quantity, which is how a pipeline stage is
    priced; multiplying by ``1.0`` is exact, so the monolithic model
    is the one-stage case.  Operand order is pinned by the oracle
    (integer products stay integer until the same cast point, float
    multiplies associate identically).
    """
    batch, context = _ints(batch), _ints(context)
    _require_at_least(1, batch=batch, context=context)
    dt = p.dtype
    one = dt.type(1.0)
    zero = dt.type(0.0)
    share = np.asarray(layer_share, dtype=dt)
    b = batch.astype(dt)
    efficiency = p.ragged_eff if ragged else one
    # --- batchable path (roofline) ---------------------------------
    t_weight = (p.w_bytes * layer_share / p.weight_denom).astype(
        dt, copy=False
    )
    flops_nonattn = p.fnon * b * share
    t_compute = flops_nonattn / (p.eff_flops * efficiency)
    nonattn = np.maximum(t_weight, t_compute)
    # --- attention path --------------------------------------------
    attended = np.minimum(context, p.window)
    kv_read = (batch * attended).astype(dt) * p.kv_bytes_q * share
    t_attn_read = kv_read / p.attn_denom
    flops_attn = (p.attn_coeff * attended.astype(dt)) * b * share
    t_attn_compute = flops_attn / p.eff_flops
    t_attn = np.maximum(t_attn_read, t_attn_compute)
    # --- (de)quantization ------------------------------------------
    # Hardware engines stream at fixed rates; both directions overlap
    # with DMA/attention of other requests (Section 5.3), so only work
    # exceeding the attention window is exposed.
    new_kv_bytes = b * p.kv_bytes_16 * share
    with np.errstate(divide="ignore", invalid="ignore"):
        quant_ov = np.where(
            p.quant_rate > 0.0, new_kv_bytes / p.quant_rate, zero
        )
        dequant_ov = np.where(
            p.dequant_rate > 0.0, kv_read / p.dequant_rate, zero
        )
    exposed_ov = np.maximum(
        zero, quant_ov + dequant_ov - dt.type(0.9) * t_attn
    )
    # Software: dequantization inflates every KV read; online
    # quantization is per-generated-value compute on the critical path.
    dequant_sw = p.slowdown_m1 * t_attn_read
    quant_values = (batch * p.kv_elems).astype(dt) * share
    quant_sw = quant_values * p.quant_fpv / p.eff_flops
    exposed_sw = quant_sw + dequant_sw
    quant_s = np.where(p.overlapped, quant_ov, quant_sw)
    dequant_s = np.where(p.overlapped, dequant_ov, dequant_sw)
    exposed = np.where(p.overlapped, exposed_ov, exposed_sw)
    total = nonattn + t_attn + exposed
    util = (flops_nonattn + flops_attn) / (total * p.peak_flops)
    # IterationBreakdown.total_s sums its (Python float) components in
    # float64 regardless of mode; the exported total mirrors that.  The
    # dt-precision ``total`` above still feeds util.
    total_f64 = (
        nonattn.astype(np.float64)
        + t_attn.astype(np.float64)
        + exposed.astype(np.float64)
    )
    return {
        "nonattn_s": nonattn,
        "attn_s": t_attn,
        "quant_s": quant_s,
        "dequant_s": dequant_s,
        "exposed_overhead_s": exposed,
        "compute_util": util,
        "total_s": total_f64,
    }


def _prefill_arrays(
    p: _KernelParams, batch, prompt_tokens: int
) -> np.ndarray:
    """Prefill latency per point: compute-bound parallel token
    processing, floored by one weight stream."""
    batch = _ints(batch)
    _require_at_least(1, batch=batch)
    _require_at_least(0, prompt_tokens=prompt_tokens)
    dt = p.dtype
    # Causal attention over the prompt sums to roughly
    # prompt * attn_flops(prompt / 2) per request.
    half = max(1, prompt_tokens // 2)
    attended = np.minimum(np.int64(half), p.window)
    flops = (batch * prompt_tokens).astype(dt) * (
        p.fnon + p.attn_coeff * attended.astype(dt)
    )
    t_compute = flops / p.eff_flops
    t_weight = (p.w_bytes / p.weight_denom).astype(dt, copy=False)
    return np.maximum(t_compute, t_weight)


def _generation_arrays(
    p: _KernelParams,
    batch,
    fit,
    input_tokens: int,
    output_tokens: int,
    ragged: bool,
) -> Dict[str, np.ndarray]:
    """A batched run per point: prefill, then the iteration kernel
    integrated over ``_CHECKPOINTS`` contexts.

    Paged (GPU) systems clip the resident batch to what fits and keep
    serving — throughput saturates.  Dedicated accelerators OOM when
    the requested batch cannot fit (Figure 4's missing bars).  The
    checkpoints accumulate **sequentially**: vectorization is across
    points, never across the summation order.
    """
    batch, fit = _ints(batch), _ints(fit)
    _require_at_least(1, batch=batch)
    _require_at_least(
        0, input_tokens=input_tokens, output_tokens=output_tokens
    )
    dt = p.dtype
    oom = (fit < 1) | ((batch > fit) & ~p.paged)
    effective = np.minimum(batch, fit)
    # OOM rows are masked by every reader; price them at batch 1 so
    # the kernel's input check sees only servable points.
    priced = np.where(oom, 1, effective)

    prefill = _prefill_arrays(p, priced, input_tokens)
    step = max(1, output_tokens // _CHECKPOINTS)
    t_generation = np.zeros(len(batch), dtype=dt)
    mid: Dict[str, np.ndarray] = {}
    half_point = output_tokens // 2
    for offset in range(0, output_tokens, step):
        arrays = _iteration_arrays(
            p, priced, input_tokens + offset, ragged
        )
        span = min(step, output_tokens - offset)
        t_generation += arrays["total_s"] * span
        if offset <= half_point < offset + span:
            mid = arrays
    tokens = effective * output_tokens
    return {
        "oom": oom,
        "effective_batch": effective,
        "tokens_per_s": tokens.astype(dt) / (prefill + t_generation),
        "prefill_s": prefill,
        "generation_s": t_generation,
        "breakdown": mid,
    }


# ----------------------------------------------------------------------
# scalar entry points
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _pair_params(
    system: ServingSystem, arch: ArchShape, dtype: np.dtype
) -> _KernelParams:
    """One-row kernel parameters, keyed by the pair's *value*: two
    systems sharing a name but not a field never share an entry."""
    return _KernelParams([_PairParams(system, arch)], dtype)


@functools.lru_cache(maxsize=_MAX_BLOCKS)
def _price_block(
    system: ServingSystem,
    arch: ArchShape,
    dtype: np.dtype,
    batch: int,
    ragged: bool,
    block: int,
) -> np.ndarray:
    """Breakdown rows for contexts ``block * B + 1 .. (block + 1) * B``.

    Blocks start at context 1, so a context below 1 lands in a block
    the kernel rejects — and a rejected block is never cached.
    """
    contexts = np.arange(
        block * _BLOCK_CONTEXTS + 1, (block + 1) * _BLOCK_CONTEXTS + 1
    )
    arrays = _iteration_arrays(
        _pair_params(system, arch, dtype), batch, contexts, ragged
    )
    # Context-independent columns come back one wide; widen on stack.
    rows = np.stack(
        [
            np.broadcast_to(arrays[name], contexts.shape)
            for name in _BREAKDOWN_FIELDS
        ],
        axis=1,
    ).astype(np.float64, copy=False)
    rows.setflags(write=False)
    return rows


def generation_iteration(
    system: ServingSystem,
    arch: ArchShape,
    batch: int,
    context: int,
    ragged: bool = False,
    mode: ComputeModeLike = None,
    steps: int = 1,
) -> IterationBreakdown:
    """Latency breakdown of one generation iteration.

    Args:
        system: serving system (device + method profile).
        arch: model architecture (paper dimensions).
        batch: concurrent requests (>= 1).
        context: current per-request context length (tokens in cache,
            >= 1).
        ragged: apply the mixed-prompt-length compute penalty
            (trace-driven workloads, Figure 14).
        mode: ComputeMode policy; ``exact_f64`` by default.
        steps: consecutive iterations to price (>= 1), at contexts
            ``context .. context + steps - 1``.

    Returns:
        An :class:`IterationBreakdown`: of floats for one step, of
        float64 arrays over the steps otherwise (the same values, row
        for row, as ``steps`` one-step calls).
    """
    dtype = resolve_compute_mode(mode, default=EXACT_F64).compute_dtype
    block, index = divmod(context - 1, _BLOCK_CONTEXTS)
    rows = _price_block(system, arch, dtype, batch, ragged, block)
    if steps == 1:
        return IterationBreakdown(*rows[index].tolist())
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    last = (context + steps - 2) // _BLOCK_CONTEXTS
    if last > block:
        rows = np.concatenate([rows] + [
            _price_block(system, arch, dtype, batch, ragged, later)
            for later in range(block + 1, last + 1)
        ])
    return IterationBreakdown(*rows[index:index + steps].T)


def prefill_time(
    system: ServingSystem,
    arch: ArchShape,
    batch: int,
    prompt_tokens: int,
    mode: ComputeModeLike = None,
) -> float:
    """Prefill-phase latency: compute-bound parallel token processing."""
    dtype = resolve_compute_mode(mode, default=EXACT_F64).compute_dtype
    return _price_prefill(system, arch, dtype, batch, prompt_tokens)


@functools.lru_cache(maxsize=_MAX_BLOCKS)
def _price_prefill(
    system: ServingSystem, arch: ArchShape, dtype: np.dtype, batch: int,
    prompt_tokens: int,
) -> float:
    """One prefill point, kept by value like :func:`_price_block`: a
    serving replay admits the same (batch, prompt) pairs again and
    again (half its admissions at full benchmark size).  A rejected
    point raises and is never cached."""
    return float(
        _prefill_arrays(
            _pair_params(system, arch, dtype), batch, prompt_tokens
        )[0]
    )


@dataclass
class GenerationRun:
    """Result of simulating a full 1K:1K-style generation run.

    Attributes:
        system: serving-system name.
        batch: requested batch size.
        effective_batch: batch actually resident (paged systems clip).
        oom: True when the platform cannot run the batch at all.
        tokens_per_s: generation throughput (generated tokens / total
            time, the paper's Figure 11 metric).
        prefill_s / generation_s: phase times.
        breakdown: mid-run iteration breakdown (reporting).
    """

    system: str
    batch: int
    effective_batch: int
    oom: bool
    tokens_per_s: float
    prefill_s: float = 0.0
    generation_s: float = 0.0
    breakdown: Optional[IterationBreakdown] = None


@dataclass
class GenerationColumns:
    """Column arrays of :func:`_generation_arrays` over a point axis.

    ``breakdown`` holds the mid-run iteration's kernel columns (empty
    when no iteration ran).
    """

    oom: np.ndarray
    effective_batch: np.ndarray
    tokens_per_s: np.ndarray
    prefill_s: np.ndarray
    generation_s: np.ndarray
    breakdown: Dict[str, np.ndarray]

    def run_at(self, i: int, system: str, batch: int) -> GenerationRun:
        """Point ``i`` as a scalar :class:`GenerationRun`."""
        if self.oom[i]:
            return GenerationRun(
                system=system, batch=batch, effective_batch=0,
                oom=True, tokens_per_s=0.0,
            )
        return GenerationRun(
            system=system,
            batch=batch,
            effective_batch=int(self.effective_batch[i]),
            oom=False,
            tokens_per_s=float(self.tokens_per_s[i]),
            prefill_s=float(self.prefill_s[i]),
            generation_s=float(self.generation_s[i]),
            breakdown=IterationBreakdown(
                *(
                    float(self.breakdown[name][i])
                    for name in _BREAKDOWN_FIELDS
                )
            ) if self.breakdown else None,
        )


def simulate_generation_run(
    system: ServingSystem,
    arch: ArchShape,
    batch: int,
    input_tokens: int = 1024,
    output_tokens: int = 1024,
    ragged: bool = False,
    mode: ComputeModeLike = None,
) -> GenerationRun:
    """Simulate a batched run and return its throughput."""
    dtype = resolve_compute_mode(mode, default=EXACT_F64).compute_dtype
    fit = max_supported_batch(system, arch, input_tokens + output_tokens)
    columns = _generation_arrays(
        _pair_params(system, arch, dtype), batch, fit,
        input_tokens, output_tokens, ragged,
    )
    return GenerationColumns(**columns).run_at(0, system.name, batch)
