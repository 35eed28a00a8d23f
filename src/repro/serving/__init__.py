"""Request-level serving simulation on top of the hardware model.

* :mod:`repro.serving.request` — request lifecycle states.
* :mod:`repro.serving.scheduler` — token-level continuous batching
  (Section 5.3): prefill admission, per-iteration generation, slot
  recycling when requests finish.
* :mod:`repro.serving.simulator` — trace-driven end-to-end simulation
  producing the Figure 14 generation-throughput metric: the cache
  replay engine, the iteration costing rule, and ``simulate_trace``
  (the cluster loop at one replica, no faults).
* :mod:`repro.serving.faults` — seeded fault-injection plans (crashes,
  brownouts, admission blackouts) for resilience replays.
* :mod:`repro.serving.cluster` — the one serving event loop, as a
  fault-tolerant N-replica cluster replay: routing policies, heartbeat
  failure detection, retry/backoff requeue, exactly-once completion
  accounting.
"""

from repro.serving.cluster import (
    ClusterConfig,
    ClusterReport,
    ROUTER_POLICIES,
    simulate_cluster,
)
from repro.serving.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    admission_blackout,
    brownout,
    crash_and_recover,
    crash_forever,
    generate_fault_plan,
)
from repro.serving.request import Request, RequestPhase
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.simulator import (
    CacheReplayConfig,
    ServingReport,
    simulate_synthesized_batches,
    simulate_trace,
    validate_trace,
)

__all__ = [
    "CacheReplayConfig",
    "ClusterConfig",
    "ClusterReport",
    "ContinuousBatchScheduler",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "ROUTER_POLICIES",
    "Request",
    "RequestPhase",
    "ServingReport",
    "admission_blackout",
    "brownout",
    "crash_and_recover",
    "crash_forever",
    "generate_fault_plan",
    "simulate_cluster",
    "simulate_synthesized_batches",
    "simulate_trace",
    "validate_trace",
]
