"""The five named workloads: frozen parameters, set-up, one repetition.

Nothing here imports ``repro`` at module import: :func:`set_up` drops
every ``repro`` module and imports the package afresh, so that a
set-up — import, input generation, warm-up — can be timed several
times in one process and work a later change moves into import time
or module-level tables shows in ``setup_s``.

The program under test receives only generated inputs: ``seed`` feeds
the trace generator, ``CacheReplayConfig.seed`` (the synthetic KV
stream) and the fault plan, and nothing else.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, Callable, Dict, List, Optional

MODEL = "llama2-13b"
SYSTEM = "oaken-hbm"
METHOD = "oaken"
MODE = "deploy_f32"

#: Fraction of the full size that ``--quick`` runs, and the fraction
#: of the chosen size that the set-up's warm-up repetition runs.
QUICK_FRACTION = 0.2
WARMUP_FRACTION = 1.0 / 3.0


def _count(full: int, fraction: float) -> int:
    return max(1, round(full * fraction))


def _clip_outputs(trace, cap: int):
    """Bound every generation window at ``cap`` tokens.

    The paper's Figure 14 methodology clips sampled output lengths the
    same way (``simulate_synthesized_batches``).  Here the cap sits
    near the mean, so most requests decode exactly ``cap`` tokens and
    a minority fewer: batch occupancy and per-sequence history length
    — what host time per token depends on — then vary little from
    seed to seed, while arrivals, prompts, shared prefixes, KV values
    and faults still do.
    """
    return [
        dataclasses.replace(r, output_tokens=min(r.output_tokens, cap))
        for r in trace
    ]


#: Waves arrive faster than a batch drains, so the queue never empties
#: and residency sits at ``max_batch``: an offline batch on the host.
SATURATING_GAP_S = 0.25
OUTPUT_CAP = 128


def _burst_trace(traces, seed: int, fraction: float):
    return _clip_outputs(
        traces.generate_burst_trace(
            "conversation", num_bursts=_count(10, fraction),
            burst_size=16, burst_gap_s=SATURATING_GAP_S, seed=seed,
        ),
        OUTPUT_CAP,
    )


def _rag_trace(traces, seed: int, fraction: float):
    return _clip_outputs(
        traces.generate_rag_trace(
            "conversation", num_bursts=_count(8, fraction), burst_size=8,
            burst_gap_s=SATURATING_GAP_S, seed=seed,
        ),
        OUTPUT_CAP,
    )


LONGCTX_OUTPUT_TOKENS = 288
#: Device budget per mean output token, chosen so the resident working
#: set is about 2.2x the device tier (0.125 MiB at 512 output tokens).
LONGCTX_BUDGET_MB_PER_TOKEN = 0.125 / 512


def _longctx_tokens(fraction: float) -> int:
    return max(16, round(LONGCTX_OUTPUT_TOKENS * fraction))


def _longctx_trace(traces, seed: int, fraction: float):
    tokens = _longctx_tokens(fraction)
    return _clip_outputs(
        traces.generate_longcontext_trace(
            "burstgpt", num_requests=6, output_tokens=tokens, seed=seed,
        ),
        tokens,
    )


def _longctx_replay(fraction: float) -> Dict[str, Any]:
    return {
        "device_budget_mb": (
            LONGCTX_BUDGET_MB_PER_TOKEN * _longctx_tokens(fraction)
        ),
        "eviction": "lru",
    }


def _multiturn_trace(traces, seed: int, fraction: float):
    return _clip_outputs(
        traces.generate_multiturn_trace(
            "conversation", num_sessions=_count(30, fraction), seed=seed,
        ),
        OUTPUT_CAP,
    )


def _plain_trace(traces, seed: int, fraction: float):
    return _clip_outputs(
        traces.generate_trace(
            "conversation", _count(5000, fraction), seed=seed,
        ),
        OUTPUT_CAP,
    )


@dataclasses.dataclass(frozen=True)
class Spec:
    """Frozen parameters of one workload.

    ``replay`` maps a size fraction to the ``CacheReplayConfig``
    keyword arguments (``None``: analytic mode, no pool exists);
    ``cluster`` holds the ``ClusterConfig`` keyword arguments
    (``None``: the single-node ``simulate_trace`` path).
    """

    trace: Callable[[Any, int, float], List]
    max_batch: int
    replay: Optional[Callable[[float], Dict[str, Any]]]
    cluster: Optional[Dict[str, Any]] = None


SPECS: Dict[str, Spec] = {
    "replay-burst-arena": Spec(
        trace=_burst_trace, max_batch=64,
        replay=lambda fraction: {"arena": True},
    ),
    "replay-rag-shared": Spec(
        trace=_rag_trace, max_batch=32,
        replay=lambda fraction: {},
    ),
    "replay-longctx-tiered": Spec(
        trace=_longctx_trace, max_batch=8, replay=_longctx_replay,
    ),
    "cluster-replay-faults": Spec(
        trace=_multiturn_trace, max_batch=8,
        replay=lambda fraction: {"arena": True},
        cluster={"replicas": 4, "policy": "prefix_affinity"},
    ),
    "cluster-scale-analytic": Spec(
        trace=_plain_trace, max_batch=16, replay=None,
        cluster={"replicas": 8, "policy": "least_loaded"},
    ),
}


@dataclasses.dataclass
class Prepared:
    """What a set-up hands to the timed region."""

    name: str
    requests: int
    output_tokens: int
    repetition: Callable[[], Any]
    replay_kwargs: Optional[Dict[str, Any]]
    is_cluster: bool


def _drop_repro_modules() -> None:
    for name in [
        m for m in sys.modules if m == "repro" or m.startswith("repro.")
    ]:
        del sys.modules[name]


def set_up(name: str, seed: int, quick: bool) -> Prepared:
    """Import the program, generate the inputs, run the warm-up.

    The warm-up of a ``replay-*`` workload is one repetition on a
    one-third-size trace; that of a ``cluster-*`` workload is the
    fault-free replay whose makespan fixes the fault horizon, as
    ``repro cluster --faults`` does.
    """
    spec = SPECS[name]
    _drop_repro_modules()
    from repro.data import traces
    from repro.hardware.overheads import get_system
    from repro.models.config import get_model
    from repro.serving import cluster as cluster_mod
    from repro.serving import simulator
    from repro.serving.faults import generate_fault_plan

    arch = get_model(MODEL).arch
    system = get_system(SYSTEM)
    fraction = QUICK_FRACTION if quick else 1.0
    trace = spec.trace(traces, seed, fraction)

    def replay_config(size: float):
        if spec.replay is None:
            return None
        return simulator.CacheReplayConfig(
            method=METHOD, mode=MODE, seed=seed, **spec.replay(size)
        )

    replay = replay_config(fraction)
    if spec.cluster is None:
        warm = fraction * WARMUP_FRACTION
        simulator.simulate_trace(
            system, arch, spec.trace(traces, seed, warm),
            spec.max_batch, replay=replay_config(warm),
        )

        # The function is looked up on the module at every call, so a
        # traced repetition sees the tracer's wrapper and the next
        # untraced one sees the original again.
        def repetition():
            return simulator.simulate_trace(
                system, arch, trace, spec.max_batch, replay=replay
            )
    else:
        config = cluster_mod.ClusterConfig(
            max_batch=spec.max_batch, replay=replay, **spec.cluster,
        )
        clean = cluster_mod.simulate_cluster(system, arch, trace, config)
        faults = generate_fault_plan(
            config.replicas, max(1.0, clean.total_time_s), seed=seed
        )

        def repetition():
            return cluster_mod.simulate_cluster(
                system, arch, trace, config, faults
            )

    return Prepared(
        name=name,
        requests=len(trace),
        output_tokens=sum(r.output_tokens for r in trace),
        repetition=repetition,
        replay_kwargs=(
            None if spec.replay is None else spec.replay(fraction)
        ),
        is_cluster=spec.cluster is not None,
    )


def outcome(prepared: Prepared, report) -> Dict[str, float]:
    """Deterministic statistics of one repetition's report.

    Everything here is simulated time or a count, so it must repeat
    exactly: :mod:`run` fails the run when two repetitions differ.
    ``requests_ok`` counts requests finished exactly once.
    """
    out: Dict[str, float] = {
        "generated_tokens": report.generated_tokens,
        "sim_tok_s": report.generation_throughput,
        "sim_ttft_p95_s": report.p95_ttft_s,
        "sim_tpot_mean_s": report.mean_tpot_s,
        "sim_makespan_s": report.total_time_s,
    }
    if prepared.is_cluster:
        out["requests_ok"] = report.completed
        out["requests_failed"] = (
            report.failed + report.lost + report.duplicate_completions
        )
        for key in ("failovers", "requeues", "retries",
                    "detected_failures"):
            out[key] = getattr(report, key)
        bits = [
            row["measured_kv_bits"] for row in report.per_replica
            if "measured_kv_bits" in row
        ]
        if bits:
            out["kv_bits"] = sum(bits) / len(bits)
    else:
        # ServingReport carries no finished count; every request
        # generates exactly its output tokens, so the token total
        # equals the trace's only when every request finished.
        finished = (
            not report.oom
            and report.generated_tokens == prepared.output_tokens
        )
        out["requests_ok"] = prepared.requests if finished else 0
        out["requests_failed"] = 0 if finished else prepared.requests
        if report.replay is not None:
            out["kv_bits"] = report.replay["measured_kv_bits"]
            out["peak_pool_bytes"] = report.replay["peak_pool_bytes"]
    return out
