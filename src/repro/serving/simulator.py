"""Trace-driven serving simulation (Figure 14's methodology).

Follows the paper's setup: requests sampled from a trace are replayed
through the continuous-batching scheduler; each iteration is priced by
the hardware model at the batch's mean context length; admissions pay a
prefill pass.  The reported metric is **generation throughput** —
generated tokens divided by the busy makespan — matching Figure 14's
y-axis.

This module owns the cache-replay engine, the iteration costing rule
and the single-node reports; the event loop that drives them is the
cluster's (:mod:`repro.serving.cluster`), of which
:func:`simulate_trace` is the one-replica, no-fault configuration.

Two capacity regimes:

* **Analytic mode** (default, unchanged): the residency cap is clipped
  by :func:`~repro.hardware.perf.max_supported_batch`, which prices KV
  storage at the system's *analytic* ``kv_bits`` estimate.
* **Cache-replay mode** (opt-in via :class:`CacheReplayConfig`): the
  scheduler drives a real :class:`~repro.engine.KVCachePool` holding a
  miniature quantized cache per resident request — any registry method,
  through the unified :mod:`repro.engine` API.  Admission control uses
  the pool's *measured* effective bitwidth, batched multi-sequence
  appends and reads run every generation iteration (one fused encode
  and decode across the resident set), and per-request KV rows stream
  through the actual quantization kernels.  Iteration pricing stays
  analytic (the hardware model), so throughput numbers remain
  comparable across modes.  With ``engine_cycles=True`` the replay's
  caches run on the Figure 9 datapath engine models instead of the
  plain fused kernels, and the replay report carries accumulated
  end-to-end engine cycles for the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.traces import TraceRequest
from repro.hardware.overheads import ServingSystem
from repro.hardware.perf import (
    generation_iteration,
    kv_budget_bytes,
    prefill_time,
)
from repro.models.config import ArchShape
from repro.serving.request import Request


@dataclass
class CacheReplayConfig:
    """Opt-in token-level cache replay for trace simulation.

    The replay holds a miniature per-request quantized cache (real
    kernels, scaled-down dimensions) in a
    :class:`~repro.engine.KVCachePool` and lets its measured footprint
    drive admission control.

    Attributes:
        method: registry method name (``oaken`` or any baseline).
        num_layers: miniature cache decoder layers.
        dim: miniature KV width per layer.
        calibration_tokens: synthetic calibration rows for methods
            with an offline phase.
        prompt_rows: KV rows actually appended per admitted request (a
            bounded stand-in for its prompt; footprint estimates scale
            per token, so a sample suffices).
        seed: synthetic KV stream seed.
        mode: :class:`~repro.core.modes.ComputeMode` name for the
            replay's cache kernels.  Serving replays ``deploy_f32`` by
            default — the float32 deployment policy anchored to the
            datapath's float32 golden model; ``"exact_f64"`` restores
            the bit-exact bench configuration.
        engine_cycles: route the replay's caches through
            :class:`~repro.hardware.datapath.adapter.EngineBackedQuantizer`
            instead of the plain (stacked) fused quantizers, so every KV
            row the trace streams through the pool is priced in Figure 9
            engine cycles — the same kernels, the same bytes — and the
            replay report carries accumulated end-to-end engine cycles
            (``engine_*`` keys).  Requires ``method="oaken"`` (the
            engines model the paper datapath).
        device_budget_mb: enable the tiered KV memory hierarchy with
            this device-tier budget (MiB) for the miniature pool.  The
            pool then runs behind a
            :class:`~repro.engine.tiering.TieredKVStore`: cold pages
            spill to the modeled host tier instead of admissions being
            refused (evict-and-spill), unlocking
            longer-than-device-budget contexts, and the replay report
            carries ``tier_*`` hit/miss/evict/transfer-cycle counters.
            ``None`` (default) keeps the flat reject/queue admission.
        eviction: tiered-mode eviction policy, ``"lru"`` or ``"plru"``.
        page_bytes: tiered-mode page size.  Defaults to 1 KiB — the
            miniature caches are a few KiB per sequence, so 4 KiB
            hardware pages would be a single-page-per-stream
            degenerate case at replay scale.
        prefetch_pages: sequential spilled pages promoted alongside a
            missed page (tiered mode; 0 disables prefetch).
        arena: back the replay pool's resident set with the
            structure-of-arrays arena
            (:class:`~repro.engine.KVCachePool` with ``arena=True``):
            every sequence lives as a row-slice in flat per-layer
            buffers, removing per-chunk Python objects from the
            append/read hot path.  Reads are bit-identical either way;
            the report gains ``arena_*`` occupancy counters.  Only
            fused pools adopt the arena, so this composes with
            ``method="oaken"`` (including ``engine_cycles``) and is a
            structural no-op for adapter baselines.
        charge_transfer_cycles: charge the tiered hierarchy's modeled
            transfer time (``tier_transfer_cycles`` at the transfer
            model's clock) into scheduler iteration time, so spill
            pressure slows the replayed makespan instead of being
            reported-but-free.  Off by default: the historical replay
            treats transfers as fully overlapped, and every committed
            number keeps meaning that unless the flag is raised.  A
            no-op without ``device_budget_mb``.
    """

    method: str = "oaken"
    num_layers: int = 2
    dim: int = 32
    calibration_tokens: int = 64
    prompt_rows: int = 8
    seed: int = 0
    mode: str = "deploy_f32"
    engine_cycles: bool = False
    device_budget_mb: Optional[float] = None
    eviction: str = "lru"
    page_bytes: int = 1024
    prefetch_pages: int = 1
    arena: bool = False
    charge_transfer_cycles: bool = False

    def __post_init__(self):
        from repro.engine.tiering import EVICTION_POLICIES

        for name in ("num_layers", "dim", "calibration_tokens",
                     "prompt_rows", "page_bytes"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.prefetch_pages < 0:
            raise ValueError(
                f"prefetch_pages must be >= 0, got {self.prefetch_pages}"
            )
        budget = self.device_budget_mb
        if budget is not None and not (math.isfinite(budget) and budget > 0):
            raise ValueError(
                f"device_budget_mb must be a finite number > 0 when set, "
                f"got {budget}"
            )
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction!r}; choose from "
                f"{EVICTION_POLICIES}"
            )


class _CacheReplay:
    """Drives a real :class:`KVCachePool` under the scheduler.

    One miniature cache per resident request: an admission stores a
    sample of prompt KV rows in one pool step; every generation
    iteration streams one row per resident per layer through one pool
    step (one fused encode and one fused decode across the batch —
    across its layers too on the arena); retirement frees the
    sequence.  Admission control
    projects the device's KV budget (capacity minus weights) against
    per-request KV priced at the **measured** pool bitwidth — the
    analytic ``system.kv_bits`` estimate is never consulted.
    """

    def __init__(
        self,
        config: CacheReplayConfig,
        system: ServingSystem,
        arch: ArchShape,
    ):
        from repro.engine import (
            KVCachePool,
            SyntheticKVStream,
            shared_backend_factory,
        )

        self.config = config
        self.arch = arch
        # Synthetic KV with the paper's channel-concentrated outlier
        # structure, so measured bitwidths reflect realistic outlier
        # rates.
        self._stream = SyntheticKVStream(config.dim, seed=config.seed)
        calibration = self._stream.calibration(
            config.num_layers, config.calibration_tokens
        )
        self._engine_quantizers: List = []
        if config.engine_cycles:
            factory = self._engine_backed_factory(calibration)
        else:
            factory = shared_backend_factory(
                config.method,
                calibration=calibration,
                mode=config.mode,
            )
        self.tiering = None
        if config.device_budget_mb is not None:
            from repro.engine import TieredKVStore

            self.tiering = TieredKVStore(
                device_budget_bytes=config.device_budget_mb * 2.0**20,
                page_bytes=config.page_bytes,
                policy=config.eviction,
                prefetch_pages=config.prefetch_pages,
            )
        self.pool = KVCachePool(
            factory, tiering=self.tiering, arena=config.arena
        )
        self.budget_bytes = max(0.0, kv_budget_bytes(system, arch))
        self._contexts: Dict[int, int] = {}
        # Prefix sharing: one live *anchor* request per prefix group,
        # whose committed prompt rows later group members fork instead
        # of re-encoding.  ``_groups`` remembers membership (insertion
        # order = admission order, which makes anchor promotion on
        # retire deterministic); ``_prompt_rows_of`` bounds how deep a
        # fork may reach (only the prompt sample is shared content —
        # decode rows are per-request).
        self._anchors: Dict[int, int] = {}
        self._groups: Dict[int, int] = {}
        self._prompt_rows_of: Dict[int, int] = {}
        self.batched_reads = 0
        self.batched_appends = 0
        self.replayed_tokens = 0
        self._charged_transfer_cycles = 0.0
        # Prime the measurement by quantizing a calibration probe
        # through a throwaway backend, so the very first arrival wave
        # is already projected at a *measured* bitwidth rather than
        # admitted blind.
        probe = factory()
        probe.append(0, calibration[0][0], calibration[0][1])
        self._last_kv_bits = probe.effective_bitwidth()
        # The probe streamed rows through the shared engine-backed
        # quantizers; snapshot its cycles so the report counts only
        # cycles the replayed trace itself spent.
        self._probe_quant_cycles = sum(
            q.quant_cycles for q in self._engine_quantizers
        )
        self._probe_dequant_cycles = sum(
            q.dequant_cycles for q in self._engine_quantizers
        )

    def _engine_backed_factory(self, calibration):
        """A shared-quantizer factory over the hardware datapath models.

        Mirrors :func:`~repro.engine.shared_backend_factory` for the
        fused oaken cache, but the per-layer quantizers are
        :class:`~repro.hardware.datapath.adapter.EngineBackedQuantizer`
        instances: every quantize/dequantize the pool issues (including
        the batched multi-sequence paths) runs the fused kernel per
        tensor and accumulates the Figure 9 engines' modeled cycles,
        which :meth:`report` sums into end-to-end engine cycles.
        """
        from repro.core.config import OakenConfig
        from repro.core.thresholds import profile_thresholds
        from repro.engine.backend import FusedCacheBackend
        from repro.hardware.datapath.adapter import EngineBackedQuantizer

        if self.config.method != "oaken":
            raise ValueError(
                "engine_cycles replays model the paper datapath and "
                f"require method='oaken', got {self.config.method!r}"
            )
        cfg = OakenConfig()
        key_quantizers = []
        value_quantizers = []
        for keys, values in calibration:
            key_quantizers.append(
                EngineBackedQuantizer(
                    cfg,
                    profile_thresholds([keys], cfg),
                    mode=self.config.mode,
                )
            )
            value_quantizers.append(
                EngineBackedQuantizer(
                    cfg,
                    profile_thresholds([values], cfg),
                    mode=self.config.mode,
                )
            )
        self._engine_quantizers = key_quantizers + value_quantizers

        def factory():
            return FusedCacheBackend(key_quantizers, value_quantizers)

        return factory

    def _draw_layers(self, n: int):
        """``n`` fresh rows per tensor per layer: per-layer lists of
        [n, D] keys and values, drawn layer by layer, keys first."""
        draws = [
            self._stream.draw(n) for _ in range(2 * self.config.num_layers)
        ]
        return draws[0::2], draws[1::2]

    # -- admission -----------------------------------------------------

    def measured_kv_bits(self) -> float:
        """Pool-measured bits/element.

        Refreshed by :meth:`step` once per iteration (and primed from
        the calibration probe), so admission-gate calls read the
        cached measurement instead of rescanning the pool per queued
        request.
        """
        return self._last_kv_bits

    def _refresh_measurement(self) -> None:
        """One pool measurement: peak bytes + measured bitwidth."""
        _, bits = self.pool.measure()
        if bits > 0.0:
            self._last_kv_bits = bits

    def _live_anchor(self, request: Request) -> Optional[int]:
        """The group anchor ``request`` could fork from, if any.

        Liveness is judged by the reservation table rather than the
        pool, so an anchor approved earlier in the *same* arrival wave
        (reserved but not yet admitted) already counts — the wave is
        exactly where charging the shared prompt once matters most.
        """
        if request.prefix_group < 0 or request.shared_tokens <= 0:
            return None
        anchor = self._anchors.get(request.prefix_group)
        if anchor is None or anchor == request.request_id:
            return None
        if anchor not in self._contexts:
            return None
        return anchor

    def admission_gate(self, request: Request) -> bool:
        """Admit while measured-footprint projections fit the budget.

        Approval *reserves* the request's projected context in
        ``_contexts`` immediately: the scheduler admits every approved
        request in the same iteration, so later gate calls within one
        arrival wave must already see the earlier approvals — the pool
        itself is only populated after the iteration plan returns.
        An empty reservation table always admits (refusing the sole
        request would deadlock the replay).

        When the request can fork a live group anchor, its shared
        prompt tokens are already charged under the anchor's
        reservation, so the projection counts only the unshared
        remainder — the admission-capacity face of the pool's
        charge-shared-bytes-once accounting.

        With the tiered store enabled (``device_budget_mb``) the gate
        never refuses: memory pressure is absorbed by evict-and-spill
        rather than backpressure, so residency is bounded only by the
        scheduler's batch cap and the cost of pressure shows up as
        ``tier_*`` transfer counters instead of queueing delay.
        """
        incoming = request.input_tokens + request.output_tokens
        if self._live_anchor(request) is not None:
            shared = min(request.shared_tokens, request.input_tokens)
            incoming = max(1, incoming - shared)
        if self.tiering is not None:
            self._contexts[request.request_id] = incoming
            return True
        if not self._contexts:
            self._contexts[request.request_id] = incoming
            return True
        kv_bits = self.measured_kv_bits()
        if kv_bits <= 0.0:
            self._contexts[request.request_id] = incoming
            return True
        per_token = self.arch.kv_bytes_per_token(kv_bits)
        projected = 0.0
        for context in self._contexts.values():
            projected += per_token * self.arch.attended_length(context)
        projected += per_token * self.arch.attended_length(incoming)
        if projected > self.budget_bytes:
            return False
        self._contexts[request.request_id] = incoming
        return True

    # -- lifecycle -----------------------------------------------------

    def admit(self, request: Request) -> None:
        """Allocate a cache and stream a prompt sample through it.

        When the request names a prefix group with a live anchor, the
        shared fraction of its prompt sample is **forked** from the
        anchor's committed rows (copy-on-write aliasing, no re-encode)
        and only the unshared remainder is streamed through the
        kernels; otherwise the whole sample is encoded fresh and the
        request becomes its group's anchor for later arrivals.
        """
        rid = request.request_id
        rows = min(self.config.prompt_rows, max(1, request.input_tokens))
        shared_rows = 0
        anchor = self._live_anchor(request)
        if anchor is not None and anchor in self.pool:
            frac = request.shared_tokens / max(1, request.input_tokens)
            shared_rows = min(
                int(rows * frac), self._prompt_rows_of.get(anchor, 0)
            )
        if shared_rows > 0:
            self.pool.fork(anchor, rid, shared_rows)
        else:
            self.pool.allocate(rid)
        fresh = rows - shared_rows
        if fresh > 0:
            keys, values = self._draw_layers(fresh)
            self.pool.step([(rid, keys, values)], read=False)
        incoming = request.input_tokens + request.output_tokens
        if shared_rows > 0:
            incoming = max(
                1,
                incoming - min(request.shared_tokens,
                               request.input_tokens),
            )
        self._contexts[rid] = incoming
        self._prompt_rows_of[rid] = rows
        if request.prefix_group >= 0:
            self._groups[rid] = request.prefix_group
            if self._anchors.get(request.prefix_group) not in self.pool:
                self._anchors[request.prefix_group] = rid
        # Only freshly encoded rows count as replayed: forked rows are
        # aliased, never re-streamed — that is the feature.
        self.replayed_tokens += fresh

    def step(
        self,
        resident: Sequence[Request],
        resident_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """One generation iteration: one pool step over every layer.

        The iteration's fresh rows are drawn as one [B, D] block per
        tensor per layer and handed to
        :meth:`~repro.engine.KVCachePool.step` as per-sequence row
        views, so the per-sequence Python loop (and its per-row RNG
        calls) never runs here.  A refused step raises
        :class:`~repro.engine.CacheCapacityError` with every layer of
        every resident as it was.  ``resident_ids``, when the
        scheduler's :class:`~repro.serving.scheduler.IterationPlan`
        provides it, skips rebuilding the id list from the request
        objects.
        """
        if not resident:
            return
        seq_ids = (
            list(resident_ids)
            if resident_ids is not None
            else [r.request_id for r in resident]
        )
        batch = len(seq_ids)
        keys, values = self._draw_layers(batch)
        self.pool.step(
            [
                (
                    seq_id,
                    [layer[i : i + 1] for layer in keys],
                    [layer[i : i + 1] for layer in values],
                )
                for i, seq_id in enumerate(seq_ids)
            ]
        )
        self.batched_appends += self.config.num_layers
        self.batched_reads += self.config.num_layers
        self.replayed_tokens += batch
        # Refresh the measured footprint (peak bytes, effective
        # bitwidth) while the pool is populated; admission gating and
        # the final report both consume these measurements.
        self._refresh_measurement()

    def _forget(self, rid: int) -> None:
        """Drop ``rid``'s sharing bookkeeping; promote anchors.

        If ``rid`` anchored a prefix group, the earliest-admitted
        surviving member takes over (its forked chunks keep the shared
        storage alive in the pool, so later arrivals can still fork);
        a group with no survivors loses its anchor entirely.
        """
        self._contexts.pop(rid, None)
        self._prompt_rows_of.pop(rid, None)
        group = self._groups.pop(rid, None)
        if group is None or self._anchors.get(group) != rid:
            return
        for member, member_group in self._groups.items():
            if member_group == group and member in self.pool:
                self._anchors[group] = member
                return
        self._anchors.pop(group, None)

    def transfer_penalty_s(self) -> float:
        """Tier-transfer seconds accrued since the last call.

        Converts the :class:`~repro.engine.tiering.TieredKVStore`'s
        cumulative modeled ``transfer_cycles`` delta to seconds at the
        transfer model's clock.  The delta covers everything since the
        previous charge — admissions and the iteration's own
        spill/promote traffic alike — so the scheduler can fold it into
        one iteration's step time without double counting.  Zero unless
        ``charge_transfer_cycles`` is set and the replay is tiered.
        """
        if self.tiering is None or not self.config.charge_transfer_cycles:
            return 0.0
        total = self.tiering.transfer_cycles
        delta = total - self._charged_transfer_cycles
        self._charged_transfer_cycles = total
        return max(0.0, delta) / self.tiering.transfer.clock_hz

    def retire(self, requests: Sequence[Request]) -> None:
        """Free retired sequences' caches."""
        for request in requests:
            self.pool.free(request.request_id)
            self._forget(request.request_id)

    def abort(self, request: Request) -> None:
        """Back out a partially admitted request.

        The cluster replay calls this when :meth:`admit` raises a
        retryable :class:`~repro.engine.CacheCapacityError` partway
        through streaming the prompt sample: whatever state the
        admission left behind (an allocated cache, a context
        reservation) is released so the request can be requeued on
        another replica with no residue here.
        """
        if request.request_id in self.pool:
            self.pool.free(request.request_id)
        self._forget(request.request_id)

    def report(self) -> Dict[str, float]:
        """Replay measurements attached to the serving report."""
        summary = self.pool.summary()
        out = {
            "method": self.config.method,
            "mode": self.config.mode,
            "measured_kv_bits": self.measured_kv_bits(),
            "peak_pool_bytes": summary["peak_bytes"],
            "batched_reads": float(self.batched_reads),
            "batched_appends": float(self.batched_appends),
            "batched_decodes": float(self.pool.batched_decodes),
            "batched_encodes": float(self.pool.batched_encodes),
            "batched_roundtrips": float(self.pool.batched_roundtrips),
            "replayed_tokens": float(self.replayed_tokens),
            "forks": float(self.pool.forks),
            "shared_bytes_saved": summary["shared_bytes_saved"],
        }
        if self.pool.arena_enabled:
            out["arena"] = 1.0
            for key in (
                "arena_rows_live",
                "arena_rows_dead",
                "arena_compactions",
                "arena_capacity_bytes",
            ):
                out[key] = summary[key]
        if self._engine_quantizers:
            quant = sum(
                q.quant_cycles for q in self._engine_quantizers
            ) - self._probe_quant_cycles
            dequant = sum(
                q.dequant_cycles for q in self._engine_quantizers
            ) - self._probe_dequant_cycles
            out["engine_quant_cycles"] = float(quant)
            out["engine_dequant_cycles"] = float(dequant)
            out["engine_cycles"] = float(quant + dequant)
            out["engine_cycles_per_token"] = (
                (quant + dequant) / self.replayed_tokens
                if self.replayed_tokens
                else 0.0
            )
        if self.tiering is not None:
            out["eviction"] = self.tiering.policy_name
            out["device_budget_mb"] = float(
                self.config.device_budget_mb or 0.0
            )
            for key, value in self.tiering.summary().items():
                out[f"tier_{key}"] = value
            out["tier_transfer_cycles_per_token"] = (
                self.tiering.transfer_cycles / self.replayed_tokens
                if self.replayed_tokens
                else 0.0
            )
        return out


def validate_trace(trace: Sequence[TraceRequest]) -> None:
    """Reject empty, arrival-unsorted or malformed traces.

    The replay's queueing-delay accounting assumes arrival order: an
    unsorted trace silently mis-attributes waiting time (a late
    arrival at the FIFO head stalls earlier ones).  Generators in
    :mod:`repro.data.traces` always emit sorted traces; hand-built
    ones must too.  Every request must also be one the scheduler can
    replay: a finite arrival (a NaN never becomes admissible and
    blocks the FIFO behind it), at least one prompt token, at least
    one output token (the scheduler retires a request after the token
    that reaches ``output_tokens``, so it always generates one), and
    ``shared_tokens`` within ``[0, input_tokens]``.
    """
    if not trace:
        raise ValueError("empty trace")
    for index, item in enumerate(trace):
        problem = None
        if not math.isfinite(item.arrival_s):
            problem = f"arrival_s must be finite, got {item.arrival_s}"
        elif item.input_tokens < 1:
            problem = f"input_tokens must be >= 1, got {item.input_tokens}"
        elif item.output_tokens < 1:
            problem = (
                f"output_tokens must be >= 1, got {item.output_tokens}"
            )
        elif not 0 <= item.shared_tokens <= item.input_tokens:
            problem = (
                f"shared_tokens must lie in [0, input_tokens="
                f"{item.input_tokens}], got {item.shared_tokens}"
            )
        if problem is not None:
            raise ValueError(f"request {index}: {problem}")
        previous = trace[index - 1].arrival_s if index else -math.inf
        if item.arrival_s < previous:
            raise ValueError(
                "trace must be sorted by arrival time: request "
                f"{index} arrives at {item.arrival_s:.6f}s after "
                f"request {index - 1} at {previous:.6f}s; sort the "
                "trace by arrival_s before replaying"
            )


def iteration_time_s(
    system: ServingSystem,
    arch: ArchShape,
    plan,
    prefill_chunk: Optional[int] = None,
) -> float:
    """Price one scheduler iteration with the hardware model.

    The costing rule of the one serving event loop
    (:mod:`repro.serving.cluster`, which :func:`simulate_trace` runs
    at one replica): admissions pay a prefill pass (chunked or
    monolithic, with the systolic ragged-batch padding penalty), and
    the generation iteration is priced at the resident batch's mean
    context length.
    """
    step_time = 0.0
    if prefill_chunk is not None:
        # Chunked prefill: this iteration's prompt-token slice is
        # fused with the generation batch; only its incremental
        # compute is added (weights already stream once).
        if plan.prefill_tokens:
            device = system.device_for(arch)
            chunk_flops = plan.prefill_tokens * (
                arch.flops_per_token_nonattn()
                + arch.flops_per_token_attn(
                    max(1, plan.prefill_tokens)
                )
            )
            step_time += chunk_flops / device.effective_flops
    elif plan.admitted:
        # Monolithic admission prefill.  Systolic platforms
        # (ragged_batch_efficiency < 1) pad every prompt in the
        # admission batch to the longest one (Figure 14's Tender
        # penalty); others process at the mean length.
        prompts = [r.input_tokens for r in plan.admitted]
        if system.profile.ragged_batch_efficiency < 1.0:
            prompt = max(prompts)
            scale = 1.0 / system.profile.ragged_batch_efficiency
        else:
            prompt = int(sum(prompts) / len(prompts))
            scale = 1.0
        step_time += scale * prefill_time(
            system, arch, len(plan.admitted), max(1, prompt)
        )
    if plan.resident:
        breakdown = generation_iteration(
            system,
            arch,
            batch=len(plan.resident),
            context=max(1, int(plan.mean_context)),
            ragged=plan.ragged,
        )
        step_time += breakdown.total_s
    return step_time


@dataclass
class ServingReport:
    """Outcome of one trace replay.

    Attributes:
        system: serving-system name.
        batch: scheduler residency cap requested.
        effective_batch: cap after capacity clipping.
        oom: True when even a single request cannot fit.
        generation_throughput: generated tokens / busy time (Figure
            14's metric).
        total_time_s: makespan of the replay.
        generated_tokens: total tokens produced.
        mean_latency_s: mean end-to-end request latency.
        p95_latency_s: 95th-percentile request latency.
        mean_ttft_s: mean time-to-first-token.
        p95_ttft_s: 95th-percentile time-to-first-token.
        mean_tpot_s: mean per-output-token time after the first.
        replay: cache-replay measurements (measured_kv_bits,
            peak_pool_bytes, batched_reads, ...) when token-level
            replay was enabled; None in analytic mode.
    """

    system: str
    batch: int
    effective_batch: int
    oom: bool
    generation_throughput: float
    total_time_s: float = 0.0
    generated_tokens: int = 0
    mean_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    mean_ttft_s: float = 0.0
    p95_ttft_s: float = 0.0
    mean_tpot_s: float = 0.0
    replay: Optional[Dict[str, float]] = None


def simulate_trace(
    system: ServingSystem,
    arch: ArchShape,
    trace: Sequence[TraceRequest],
    max_batch: int,
    prefill_chunk: Optional[int] = None,
    replay: Optional[CacheReplayConfig] = None,
) -> ServingReport:
    """Replay ``trace`` on ``system`` with residency cap ``max_batch``.

    This is the cluster event loop (:mod:`repro.serving.cluster`) at
    one replica under an empty fault plan; the report is a field
    mapping of that run's :class:`~repro.serving.cluster.ClusterReport`
    plus the replica's replay measurements.

    Capacity semantics mirror the figure sweeps: in analytic mode the
    residency cap is clipped to what the device can hold at the
    trace's worst-case context length (a cap below 1 is an OOM); in
    cache-replay mode the cap stays at ``max_batch`` and admissions
    are gated by the measured footprint of a real
    :class:`~repro.engine.KVCachePool` instead.

    Args:
        system: the (device, method) pairing.
        arch: model architecture (paper dimensions).
        trace: arrival-sorted requests.
        max_batch: requested scheduler residency cap.
        prefill_chunk: enable Sarathi-style chunked prefill with this
            per-iteration prompt-token budget; admissions then share
            iterations with generation instead of stalling the batch
            (improves tail latency at equal total work).
        replay: enable token-level cache replay — per-request
            miniature quantized caches (any registry method via
            :mod:`repro.engine`), batched multi-sequence appends and
            reads each iteration, measured-footprint admission
            control.

    Returns:
        A :class:`ServingReport`.
    """
    # cluster imports this module's replay and costing pieces, so the
    # loop is imported here rather than at module level.
    from repro.serving.cluster import ClusterConfig, _ClusterSim
    from repro.serving.faults import FaultPlan

    validate_trace(trace)
    sim = _ClusterSim(
        system, arch, trace,
        ClusterConfig(
            replicas=1, max_batch=max_batch, prefill_chunk=prefill_chunk,
            replay=replay,
        ),
        FaultPlan([]),
    )
    run = sim.run()  # all-zero totals when the model does not fit
    replica = sim.replicas[0]
    measurements = None
    if replica.cache is not None:
        measurements = replica.cache.report()
        if not run.oom:
            measurements["gate_refusals"] = float(
                replica.scheduler.gate_refusals
            )
    return ServingReport(
        system=system.name,
        batch=max_batch,
        effective_batch=0 if run.oom else replica.effective_cap,
        oom=run.oom,
        generation_throughput=run.generation_throughput,
        total_time_s=run.total_time_s,
        generated_tokens=run.generated_tokens,
        mean_latency_s=run.mean_latency_s,
        p95_latency_s=run.p95_latency_s,
        mean_ttft_s=run.mean_ttft_s,
        p95_ttft_s=run.p95_ttft_s,
        mean_tpot_s=run.mean_tpot_s,
        replay=measurements,
    )


def simulate_synthesized_batches(
    system: ServingSystem,
    arch: ArchShape,
    trace: Sequence[TraceRequest],
    batch: int,
    replay: Optional[CacheReplayConfig] = None,
) -> ServingReport:
    """The paper's Figure 14 methodology: closed synthesized batches.

    Requests sampled from the trace are grouped into batches of
    ``batch`` (all arriving together); each batch runs to completion
    with continuous batching inside the group, and the metric is the
    average generation throughput across batches ("We repeat this
    process across multiple batches, measuring the average
    performance").  Output lengths are clipped to the trace's 90th
    percentile within each batch, mirroring the bounded generation
    windows the methodology samples.

    Args:
        system: the (device, method) pairing.
        arch: model architecture.
        trace: sampled requests (length statistics are what matters).
        batch: synthesized batch size.
        replay: optional token-level cache replay, forwarded to each
            batch's :func:`simulate_trace`.

    Returns:
        A :class:`ServingReport` aggregated over all batches.
    """
    if not trace:
        raise ValueError("empty trace")
    outputs = np.array([r.output_tokens for r in trace])
    clip = int(np.percentile(outputs, 90))
    groups = [
        trace[start : start + batch]
        for start in range(0, len(trace) - batch + 1, batch)
    ]
    if not groups:
        groups = [trace]
    total_tokens = 0
    total_busy = 0.0
    effective = 0
    for group in groups:
        closed = [
            TraceRequest(
                arrival_s=0.0,
                input_tokens=item.input_tokens,
                output_tokens=min(item.output_tokens, clip),
                prefix_group=item.prefix_group,
                shared_tokens=item.shared_tokens,
            )
            for item in group
        ]
        report = simulate_trace(system, arch, closed, batch,
                                replay=replay)
        if report.oom:
            return ServingReport(
                system=system.name, batch=batch, effective_batch=0,
                oom=True, generation_throughput=0.0,
            )
        total_tokens += report.generated_tokens
        total_busy += report.total_time_s
        effective = report.effective_batch
    throughput = total_tokens / total_busy if total_busy > 0 else 0.0
    return ServingReport(
        system=system.name,
        batch=batch,
        effective_batch=effective,
        oom=False,
        generation_throughput=throughput,
        total_time_s=total_busy,
        generated_tokens=total_tokens,
    )
