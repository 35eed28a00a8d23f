"""Fault-tolerant multi-replica serving replay.

An event-driven cluster of N serving replicas, each wrapping its own
:class:`~repro.serving.scheduler.ContinuousBatchScheduler` (and, in
cache-replay mode, its own :class:`~repro.engine.KVCachePool` behind
the measured-footprint admission gate).  A router places arrivals by
policy; a seeded :class:`~repro.serving.faults.FaultPlan` drives
replica crashes, brownouts, transient admission-failure windows and
recoveries at scheduled simulation times.

The robustness machinery the plan exercises:

* **Heartbeat failure detection** — a monitor beats every
  ``heartbeat_interval_s``; a replica that misses
  ``heartbeat_misses`` consecutive beats is marked dead and its
  orphaned requests (queued *and* resident — their KV state died with
  the replica) are requeued onto survivors.
* **Retry/backoff requeue** — a request that cannot be placed (every
  replica dead, rejecting, or over its queue limit) backs off
  exponentially (``backoff_base_s`` doubling up to ``backoff_cap_s``)
  and retries; after ``retry_budget`` failed placements it terminates
  in the explicit ``failed`` state.  **Nothing is ever silently
  dropped**: every request ends completed-exactly-once or failed, and
  the report carries ``lost`` / ``duplicate_completions`` counters
  (both must be zero) so the contract is checkable, not assumed.
* **Graceful degradation** — backpressure sheds placements to the
  retry queue instead of hot-looping rejects, and brownouts stretch
  iteration times rather than dropping work.

Correctness contracts (regression-tested):

1. One replica, no faults → the cluster report's token, timing and
   latency totals equal
   :func:`~repro.serving.simulator.simulate_trace`'s **by
   construction**: ``simulate_trace`` *is* this loop, configured with
   one replica and an empty fault plan, and its report is a field
   mapping of this one.
2. Under any fault plan, every request terminates completed exactly
   once or explicitly failed.
3. Identical seeds (trace, fault plan, replay) → bit-identical
   reports.  All hashing uses :func:`zlib.crc32` (never ``hash()``,
   which is salted per process) and all time is simulation time.

Event ordering at equal timestamps is fixed — ARRIVAL < FAULT <
HEARTBEAT < RETRY < STEP_DONE, then insertion order.  Arrivals
sharing a timestamp are admitted as **one wave**: every one of them is
routed and queued before any replica they touched plans a step, so a
step planned at time *t* sees every arrival at *t* (a closed batch is
admitted together, not first-request-alone).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.traces import TraceRequest
from repro.engine.errors import CacheCapacityError
from repro.hardware.overheads import ServingSystem
from repro.hardware.perf import max_supported_batch
from repro.models.config import ArchShape
from repro.serving.faults import FaultKind, FaultPlan
from repro.serving.request import Request
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.simulator import (
    CacheReplayConfig,
    _CacheReplay,
    iteration_time_s,
    validate_trace,
)

# Per-replica telemetry keys read straight from _CacheReplay.report().
_REPLAY_TELEMETRY = (
    "measured_kv_bits", "replayed_tokens", "forks", "shared_bytes_saved",
)

ROUTER_POLICIES = ("least_loaded", "prefix_affinity", "consistent_hash")

# Heap event priorities at equal timestamps; see module docstring.
_ARRIVAL, _FAULT, _HEARTBEAT, _RETRY, _STEP_DONE = range(5)


@dataclass
class ClusterConfig:
    """Cluster replay knobs.

    Attributes:
        replicas: number of serving replicas.
        max_batch: per-replica scheduler residency cap.
        policy: router policy — ``least_loaded`` (fewest in-flight
            requests, index tie-break), ``prefix_affinity`` (requests
            sharing a ``prefix_group`` home to the same replica so
            shared-prompt KV locality survives routing), or
            ``consistent_hash`` (crc32 virtual-node ring keyed by
            request id; placement is stable under membership churn).
        heartbeat_interval_s: monitor beat period.
        heartbeat_misses: consecutive missed beats before a replica is
            declared dead and its orphans requeued.
        retry_budget: placement attempts before a request fails
            terminally.
        backoff_base_s: first retry delay; doubles per attempt.
        backoff_cap_s: exponential-backoff ceiling.
        queue_limit: per-replica queued-request cap for backpressure;
            a replica at the limit is ineligible for placement and the
            request sheds to the retry queue.  None disables.
        replay: opt-in token-level cache replay per replica (replica
            ``i`` runs at ``replay.seed + i`` so replica 0 matches the
            single-replica simulator bit-for-bit).
        pool_capacity_bytes: when set (with ``replay``), bounds each
            replica's :class:`~repro.engine.KVCachePool` so oversized
            admissions raise
            :class:`~repro.engine.CacheCapacityError` and exercise the
            typed capacity-requeue path.  With the tiered hierarchy
            also enabled (``replay.device_budget_mb``) this bounds the
            *total* device+host footprint; device-tier pressure alone
            spills instead of rejecting.
        prefill_chunk: Sarathi-style chunked prefill budget, forwarded
            to every replica's scheduler.
    """

    replicas: int = 2
    max_batch: int = 8
    policy: str = "least_loaded"
    heartbeat_interval_s: float = 0.25
    heartbeat_misses: int = 3
    retry_budget: int = 4
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    queue_limit: Optional[int] = None
    replay: Optional[CacheReplayConfig] = None
    pool_capacity_bytes: Optional[float] = None
    prefill_chunk: Optional[int] = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.policy not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router policy {self.policy!r}; choose from "
                f"{ROUTER_POLICIES}"
            )
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if self.retry_budget < 1:
            raise ValueError("retry_budget must be >= 1")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 when set")


class _ClusterRequest:
    """Cluster-level bookkeeping for one trace request.

    Tracks the exactly-once contract (``completions`` must end at 1
    for completed requests, 0 for failed ones) and the retry budget.
    The per-placement :class:`~repro.serving.request.Request` object
    is recreated on every placement — a failover restarts prefill from
    scratch, because the crashed replica's KV state is gone.
    """

    __slots__ = (
        "index", "trace", "state", "attempts", "completions",
        "replica", "live", "finished", "terminal_s",
    )

    def __init__(self, index: int, trace: TraceRequest):
        self.index = index
        self.trace = trace
        self.state = "pending"  # pending | placed | completed | failed
        self.attempts = 0
        self.completions = 0
        self.replica: Optional[int] = None
        self.live: Optional[Request] = None
        self.finished: Optional[Request] = None
        self.terminal_s = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in ("completed", "failed")

    def fresh_request(self) -> Request:
        self.live = Request(
            request_id=self.index,
            arrival_s=self.trace.arrival_s,
            input_tokens=self.trace.input_tokens,
            output_tokens=self.trace.output_tokens,
            prefix_group=self.trace.prefix_group,
            shared_tokens=self.trace.shared_tokens,
        )
        return self.live


class _Replica:
    """One serving replica: scheduler, optional cache pool, telemetry."""

    def __init__(self, rid: int, config: ClusterConfig,
                 system: ServingSystem, arch: ArchShape,
                 effective_cap: int):
        self.rid = rid
        self.config = config
        self.system = system
        self.arch = arch
        self.effective_cap = effective_cap
        self.alive = True
        self.detected_dead = False
        self.rejecting = False
        self.brownout_factor = 1.0
        self.stepping = False
        self.epoch = 0  # bumped per crash; stale STEP_DONEs are dropped
        self.misses = 0
        self.crashed_at: Optional[float] = None
        # telemetry
        self.busy_s = 0.0
        self.generated = 0
        self.steps = 0
        self.completed = 0
        self.crashes = 0
        self.downtime_s = 0.0
        self.scheduler: ContinuousBatchScheduler = None  # set below
        self.cache: Optional[_CacheReplay] = None
        self._boot()

    def _boot(self) -> None:
        """Fresh scheduler + cache pool (initial boot and recovery)."""
        if self.config.replay is not None:
            replay = dataclasses.replace(
                self.config.replay, seed=self.config.replay.seed + self.rid
            )
            self.cache = _CacheReplay(replay, self.system, self.arch)
            if self.config.pool_capacity_bytes is not None:
                self.cache.pool.capacity_bytes = (
                    self.config.pool_capacity_bytes
                )
        self.scheduler = ContinuousBatchScheduler(
            self.effective_cap,
            prefill_chunk=self.config.prefill_chunk,
            admission_gate=self._admission_gate,
        )

    def _admission_gate(self, request: Request) -> bool:
        """Admission-window block composed with the cache-replay gate."""
        if self.rejecting:
            return False
        if self.cache is not None:
            return self.cache.admission_gate(request)
        return True

    @property
    def load(self) -> int:
        """In-flight requests (resident + queued) — routing weight."""
        return len(self.scheduler.resident) + self.scheduler.pending

    def accepting(self, queue_limit: Optional[int]) -> bool:
        """Whether the router may place new work here.

        A crashed-but-undetected replica still *accepts* placements —
        that is the point of heartbeat detection: the router cannot
        know yet, and those requests become the orphans the detector
        later requeues.
        """
        if self.detected_dead or self.rejecting:
            return False
        if queue_limit is not None and (
            self.scheduler.pending >= queue_limit
        ):
            return False
        return True

    def crash(self, now: float) -> None:
        self.alive = False
        self.stepping = False
        self.epoch += 1
        self.crashes += 1
        self.crashed_at = now

    def recover(self, now: float) -> None:
        if self.crashed_at is not None:
            self.downtime_s += now - self.crashed_at
            self.crashed_at = None
        self.alive = True
        self.detected_dead = False
        self.misses = 0
        self.brownout_factor = 1.0
        self._boot()  # rejoins empty: schedulers and KV do not survive

    def harvest_orphans(self) -> List[Request]:
        """Pull every queued/resident request out of a dead replica."""
        orphans = list(self.scheduler.queued) + list(
            self.scheduler.resident
        )
        for request in orphans:
            self.scheduler.evict(request.request_id)
            if self.cache is not None:
                self.cache.abort(request)
        return orphans

    def telemetry(
        self, replay: Optional[Dict[str, float]]
    ) -> Dict[str, float]:
        """Per-replica report row; ``replay`` is this replica's
        :meth:`_CacheReplay.report` (None in analytic mode)."""
        out = {
            "replica": self.rid,
            "generated_tokens": float(self.generated),
            "busy_s": self.busy_s,
            "steps": float(self.steps),
            "completed": float(self.completed),
            "tokens_per_s": (
                self.generated / self.busy_s if self.busy_s > 0 else 0.0
            ),
            "crashes": float(self.crashes),
            "downtime_s": self.downtime_s,
        }
        if replay is not None:
            for key in _REPLAY_TELEMETRY:
                out[key] = replay[key]
            # Tiered replays only, final incarnation only: a crash
            # reboots the replica's pool and store (KV does not
            # survive), so these count the pages the surviving
            # incarnation placed.  The per-token ratio is a
            # whole-replay figure, not replica telemetry.
            out.update(
                (key, value) for key, value in replay.items()
                if key == "eviction" or (
                    key.startswith("tier_")
                    and key != "tier_transfer_cycles_per_token"
                )
            )
        return out


class _Router:
    """Placement policies over the replica set.

    All hashing is :func:`zlib.crc32` so placement is stable across
    processes (``hash()`` is salted and would break the bit-identical
    rerun contract).
    """

    _VNODES = 16

    def __init__(self, policy: str, replicas: List[_Replica]):
        self.policy = policy
        self.replicas = replicas
        # Consistent-hash ring: _VNODES virtual nodes per replica.
        ring: List[Tuple[int, int]] = []
        for replica in replicas:
            for vnode in range(self._VNODES):
                point = zlib.crc32(f"{replica.rid}:{vnode}".encode())
                ring.append((point, replica.rid))
        self.ring = sorted(ring)

    def place(self, creq: _ClusterRequest,
              queue_limit: Optional[int]) -> Optional[_Replica]:
        eligible = [
            r for r in self.replicas if r.accepting(queue_limit)
        ]
        if not eligible:
            return None
        if self.policy == "least_loaded":
            return min(eligible, key=lambda r: (r.load, r.rid))
        if self.policy == "prefix_affinity":
            group = creq.trace.prefix_group
            if group >= 0:
                home = zlib.crc32(
                    f"group:{group}".encode()
                ) % len(self.replicas)
                for replica in eligible:
                    if replica.rid == home:
                        return replica
            # No group (or home ineligible): least-loaded fallback.
            return min(eligible, key=lambda r: (r.load, r.rid))
        # consistent_hash: walk the ring clockwise from the request's
        # point to the first eligible replica.
        key = zlib.crc32(f"req:{creq.index}".encode())
        okay = {r.rid for r in eligible}
        start = 0
        while start < len(self.ring) and self.ring[start][0] < key:
            start += 1
        for offset in range(len(self.ring)):
            _, rid = self.ring[(start + offset) % len(self.ring)]
            if rid in okay:
                return self.replicas[rid]
        return None


@dataclass
class ClusterReport:
    """Aggregated outcome of one cluster replay.

    ``duplicate_completions`` and ``lost`` are contract counters: any
    nonzero value is a bug in the replay, and the fault-injection
    smoke test asserts both are zero under a seeded crash plan.
    """

    system: str
    replicas: int
    policy: str
    oom: bool
    completed: int = 0
    failed: int = 0
    generated_tokens: int = 0
    total_time_s: float = 0.0
    busy_s: float = 0.0
    generation_throughput: float = 0.0
    tokens_per_s: float = 0.0
    mean_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    mean_ttft_s: float = 0.0
    p95_ttft_s: float = 0.0
    mean_tpot_s: float = 0.0
    mean_queue_delay_s: float = 0.0
    p95_queue_delay_s: float = 0.0
    p99_queue_delay_s: float = 0.0
    retries: int = 0
    requeues: int = 0
    failovers: int = 0
    rejections: int = 0
    capacity_rejections: int = 0
    detected_failures: int = 0
    downtime_s: float = 0.0
    duplicate_completions: int = 0
    lost: int = 0
    # Tiered KV hierarchy aggregates, summed across replicas (each
    # replica's final incarnation) when the replay runs with
    # ``device_budget_mb``; all zero otherwise.
    tier_hits: int = 0
    tier_misses: int = 0
    tier_evictions: int = 0
    tier_spilled_bytes: float = 0.0
    tier_promoted_bytes: float = 0.0
    tier_transfer_cycles: float = 0.0
    # Prefix-sharing aggregates, summed across replicas' surviving
    # incarnations in cache-replay mode; zero in analytic mode.
    forks: int = 0
    shared_bytes_saved: float = 0.0
    per_replica: List[Dict[str, float]] = field(default_factory=list)

    def as_dict(self) -> Dict:
        """JSON-ready dict (the seed-identity contract compares these)."""
        return dataclasses.asdict(self)


class _ClusterSim:
    """The event loop behind :func:`simulate_cluster`."""

    def __init__(self, system: ServingSystem, arch: ArchShape,
                 trace: Sequence[TraceRequest], config: ClusterConfig,
                 faults: FaultPlan):
        self.system = system
        self.arch = arch
        self.config = config
        self.faults = faults
        self.requests = [
            _ClusterRequest(i, item) for i, item in enumerate(trace)
        ]
        worst = max(r.input_tokens + r.output_tokens for r in trace)
        if config.replay is None:
            fit = max_supported_batch(system, arch, worst)
            self.oom = fit < 1
            # An OOM cluster never steps; its replicas only need a
            # cap the scheduler accepts.
            effective_cap = 1 if self.oom else min(config.max_batch, fit)
        else:
            effective_cap = config.max_batch
            self.oom = False
        self.replicas = [
            _Replica(rid, config, system, arch, effective_cap)
            for rid in range(config.replicas)
        ]
        if config.replay is not None:
            self.oom = all(
                r.cache.budget_bytes <= 0.0 for r in self.replicas
            )
        self.router = _Router(config.policy, self.replicas)
        self.heap: List[tuple] = []
        self._seq = itertools.count()
        self._heartbeat_pending = False
        self._open = len(self.requests)  # requests not yet terminal
        self.now = 0.0
        # counters
        self.retries = 0
        self.requeues = 0
        self.failovers = 0
        self.rejections = 0
        self.capacity_rejections = 0
        self.detected_failures = 0
        self.duplicate_completions = 0
        # terminal-order metric streams (deterministic given the seed)
        self.latencies: List[float] = []
        self.ttfts: List[float] = []
        self.tpots: List[float] = []
        self.queue_delays: List[float] = []

    # -- event plumbing ------------------------------------------------

    def _push(self, time_s: float, priority: int, payload: tuple) -> None:
        heapq.heappush(
            self.heap, (time_s, priority, next(self._seq), payload)
        )

    def _backoff(self, attempts: int) -> float:
        return min(
            self.config.backoff_base_s * (2.0 ** (attempts - 1)),
            self.config.backoff_cap_s,
        )

    def _terminate(self, creq: _ClusterRequest, state: str,
                   now: float) -> None:
        """Move ``creq`` to its terminal ``state`` (completed/failed)."""
        creq.state = state
        creq.terminal_s = now
        self._open -= 1

    def _ensure_heartbeat(self, now: float) -> None:
        if (
            self.faults.enabled
            and not self._heartbeat_pending
            and self._open > 0
        ):
            self._heartbeat_pending = True
            self._push(
                now + self.config.heartbeat_interval_s, _HEARTBEAT, ()
            )

    # -- placement / requeue -------------------------------------------

    def _burn_attempt(self, creq: _ClusterRequest, now: float) -> None:
        """Spend one placement attempt: back off and retry, or fail."""
        creq.attempts += 1
        if creq.attempts >= self.config.retry_budget:
            self._terminate(creq, "failed", now)
            return
        self._push(
            now + self._backoff(creq.attempts), _RETRY, (creq.index,)
        )

    def _route(self, creq: _ClusterRequest,
               now: float) -> Optional[_Replica]:
        """Queue one pending request on the replica the router picks.

        Returns that replica without starting a step on it (the caller
        does, once everything arriving at ``now`` is queued), or None
        when nothing is eligible and the request backs off toward
        failure.
        """
        if creq.terminal:
            return None
        target = self.router.place(creq, self.config.queue_limit)
        if target is None:
            self.rejections += 1
            self._burn_attempt(creq, now)
            return None
        creq.state = "placed"
        creq.replica = target.rid
        target.scheduler.submit(creq.fresh_request())
        return target

    def _place(self, creq: _ClusterRequest, now: float) -> None:
        """Route one pending request and wake its replica."""
        target = self._route(creq, now)
        if target is not None:
            self._try_start_step(target, now)

    def _requeue(self, creq: _ClusterRequest, now: float,
                 failover: bool) -> None:
        """Put an evicted/orphaned request back through placement.

        Failover orphans re-place immediately (their replica died; any
        survivor may take them).  Capacity evictions instead burn an
        attempt and back off through a RETRY event — an immediate
        re-place could land on the same full replica in the same
        instant and livelock with no simulation-time progress, whereas
        backoff both advances the clock and bounds the cycle by the
        retry budget.
        """
        creq.state = "pending"
        creq.replica = None
        creq.live = None
        self.requeues += 1
        if failover:
            self.failovers += 1
            self._place(creq, now)
            return
        self._burn_attempt(creq, now)

    # -- replica stepping ----------------------------------------------

    def _try_start_step(self, replica: _Replica, now: float) -> None:
        """Plan and launch one iteration on an idle, healthy replica.

        Capacity refusals from the cache pool evict the offender for
        requeue elsewhere and re-plan, so one oversized request cannot
        wedge a replica; the re-plan loop is bounded by the queue
        length (every refused request leaves the scheduler).
        """
        if replica.stepping or not replica.alive or replica.detected_dead:
            return
        admitted_all: List[Request] = []
        while True:
            plan = replica.scheduler.plan_iteration(now)
            if plan is None:
                return  # idle: the next event on this replica wakes it
            if replica.cache is None:
                break
            clean = True
            for request in plan.admitted:
                try:
                    replica.cache.admit(request)
                    admitted_all.append(request)
                except CacheCapacityError:
                    self.capacity_rejections += 1
                    replica.scheduler.evict(request.request_id)
                    replica.cache.abort(request)
                    self._requeue(
                        self.requests[request.request_id], now,
                        failover=False,
                    )
                    clean = False
            if clean:
                break
            # Re-plan without the evicted request(s); survivors of this
            # wave are already resident and will not re-admit.
        if replica.cache is not None and admitted_all != plan.admitted:
            # Price prefill for everything admitted across re-plans.
            plan = dataclasses.replace(plan, admitted=admitted_all)
        step_time = iteration_time_s(
            self.system, self.arch, plan, self.config.prefill_chunk
        )
        step_time *= replica.brownout_factor
        generated_now = len(plan.resident)
        if replica.cache is not None:
            try:
                replica.cache.step(plan.resident, plan.resident_ids)
            except CacheCapacityError as error:
                # Mid-step append refusal: the batch append left every
                # sequence untouched; evict the named offender and let
                # the remaining residents finish the (already priced)
                # iteration without further cache work this step.
                self.capacity_rejections += 1
                offender = replica.scheduler.evict(error.seq_id)
                if offender is not None:
                    replica.cache.abort(offender)
                    self._requeue(
                        self.requests[error.seq_id], now, failover=False
                    )
                generated_now = max(0, generated_now - 1)
            # Charge modeled tier-transfer time (admissions + this
            # step's spill traffic) into the iteration when the replay
            # config opted in; brownout already applied — transfers are
            # memory-system time, not compute subject to the slowdown.
            step_time += replica.cache.transfer_penalty_s()
        replica.stepping = True
        self._push(
            now + step_time, _STEP_DONE,
            (replica.rid, replica.epoch, step_time, generated_now),
        )

    def _finish_step(self, replica: _Replica, now: float,
                     step_time: float, generated_now: int) -> None:
        replica.stepping = False
        replica.busy_s += step_time
        replica.generated += generated_now
        replica.steps += 1
        retired = replica.scheduler.complete_iteration(now)
        for request in retired:
            creq = self.requests[request.request_id]
            if creq.state == "completed":
                # Contract violation counter — must stay zero.
                self.duplicate_completions += 1
                continue
            self._terminate(creq, "completed", now)
            creq.completions += 1
            creq.finished = request
            replica.completed += 1
            self.latencies.append(request.latency_s())
            if request.first_token_s >= 0:
                self.ttfts.append(request.ttft_s())
            if request.generated > 1:
                self.tpots.append(request.tpot_s())
            self.queue_delays.append(
                max(0.0, request.start_s - request.arrival_s)
            )
        if replica.cache is not None:
            replica.cache.retire(retired)
        self._try_start_step(replica, now)

    # -- fault handling ------------------------------------------------

    def _detect_dead(self, replica: _Replica, now: float) -> None:
        self.detected_failures += 1
        replica.detected_dead = True
        for request in replica.harvest_orphans():
            self._requeue(
                self.requests[request.request_id], now, failover=True
            )

    def _apply_fault(self, event, now: float) -> None:
        replica = self.replicas[event.replica]
        if event.kind is FaultKind.CRASH:
            replica.crash(now)
        elif event.kind is FaultKind.RECOVER:
            # Recovery may win the race against detection, in which
            # case requests stranded on the dead incarnation must be
            # requeued.  Harvest BEFORE booting the fresh scheduler
            # (the orphans live in the old one) but requeue AFTER —
            # requeuing first could route an orphan straight back to
            # this replica's old scheduler, which the boot then throws
            # away, silently losing the request.
            orphans = (
                replica.harvest_orphans()
                if not replica.detected_dead else []
            )
            replica.recover(now)
            for request in orphans:
                self._requeue(
                    self.requests[request.request_id], now,
                    failover=True,
                )
            self._try_start_step(replica, now)
        elif event.kind is FaultKind.BROWNOUT:
            if replica.alive:
                replica.brownout_factor = event.factor
        elif event.kind is FaultKind.BROWNOUT_END:
            replica.brownout_factor = 1.0
        elif event.kind is FaultKind.REJECT:
            replica.rejecting = True
        elif event.kind is FaultKind.REJECT_END:
            replica.rejecting = False
            if replica.alive:
                self._try_start_step(replica, now)

    def _heartbeat(self, now: float) -> None:
        self._heartbeat_pending = False
        for replica in self.replicas:
            if replica.alive:
                replica.misses = 0
                continue
            replica.misses += 1
            if (
                replica.misses >= self.config.heartbeat_misses
                and not replica.detected_dead
            ):
                self._detect_dead(replica, now)
        self._ensure_heartbeat(now)

    # -- main loop -----------------------------------------------------

    def _admit_wave(self, index: int, now: float) -> None:
        """Queue every arrival stamped ``now``, then wake replicas.

        ``index`` is the arrival just popped; the rest of its wave is
        the run of ARRIVAL events at the same timestamp on top of the
        heap.  Steps start only after the whole wave is queued, so the
        first plan at ``now`` admits the wave together.
        """
        touched: Dict[int, _Replica] = {}
        while True:
            target = self._route(self.requests[index], now)
            if target is not None:
                touched[target.rid] = target
            if not self.heap or self.heap[0][:2] != (now, _ARRIVAL):
                break
            index = heapq.heappop(self.heap)[3][0]
        for replica in touched.values():
            self._try_start_step(replica, now)

    def run(self) -> ClusterReport:
        if self.oom:
            return ClusterReport(
                system=self.system.name, replicas=self.config.replicas,
                policy=self.config.policy, oom=True,
            )
        for creq in self.requests:
            self._push(creq.trace.arrival_s, _ARRIVAL, (creq.index,))
        for event in self.faults.events:
            self._push(event.time_s, _FAULT, (event,))
        self._ensure_heartbeat(0.0)

        while self.heap:
            time_s, priority, _, payload = heapq.heappop(self.heap)
            self.now = time_s
            if priority == _ARRIVAL:
                self._admit_wave(payload[0], time_s)
                self._ensure_heartbeat(time_s)
            elif priority == _FAULT:
                self._apply_fault(payload[0], time_s)
            elif priority == _HEARTBEAT:
                self._heartbeat(time_s)
            elif priority == _RETRY:
                creq = self.requests[payload[0]]
                if not creq.terminal:
                    self.retries += 1
                    self._place(creq, time_s)
            else:  # _STEP_DONE
                rid, epoch, step_time, generated_now = payload
                replica = self.replicas[rid]
                if epoch != replica.epoch:
                    continue  # stale: the replica crashed mid-step
                self._finish_step(
                    replica, time_s, step_time, generated_now
                )
        return self._report()

    def _report(self) -> ClusterReport:
        completed = sum(
            1 for c in self.requests if c.state == "completed"
        )
        failed = sum(1 for c in self.requests if c.state == "failed")
        lost = len(self.requests) - completed - failed
        # Close downtime books for replicas still dead at the end.
        end = max(
            [c.terminal_s for c in self.requests if c.terminal],
            default=self.now,
        )
        downtime = 0.0
        for replica in self.replicas:
            if replica.crashed_at is not None:
                replica.downtime_s += max(0.0, end - replica.crashed_at)
                replica.crashed_at = None
            downtime += replica.downtime_s
        busy = 0.0
        generated = 0
        for replica in self.replicas:
            busy += replica.busy_s
            generated += replica.generated
        # One replay report per replica (each replica's surviving
        # incarnation) feeds both its telemetry row and the aggregates.
        replays = [
            r.cache.report() if r.cache is not None else None
            for r in self.replicas
        ]

        def total(key: str) -> float:
            return sum(
                (replay or {}).get(key, 0.0) for replay in replays
            )

        return ClusterReport(
            system=self.system.name,
            replicas=self.config.replicas,
            policy=self.config.policy,
            oom=False,
            completed=completed,
            failed=failed,
            generated_tokens=generated,
            total_time_s=end,
            busy_s=busy,
            generation_throughput=(
                generated / busy if busy > 0 else 0.0
            ),
            tokens_per_s=generated / end if end > 0 else 0.0,
            mean_latency_s=(
                float(np.mean(self.latencies)) if self.latencies else 0.0
            ),
            p95_latency_s=(
                float(np.percentile(self.latencies, 95))
                if self.latencies else 0.0
            ),
            mean_ttft_s=(
                float(np.mean(self.ttfts)) if self.ttfts else 0.0
            ),
            p95_ttft_s=(
                float(np.percentile(self.ttfts, 95))
                if self.ttfts else 0.0
            ),
            mean_tpot_s=(
                float(np.mean(self.tpots)) if self.tpots else 0.0
            ),
            mean_queue_delay_s=(
                float(np.mean(self.queue_delays))
                if self.queue_delays else 0.0
            ),
            p95_queue_delay_s=(
                float(np.percentile(self.queue_delays, 95))
                if self.queue_delays else 0.0
            ),
            p99_queue_delay_s=(
                float(np.percentile(self.queue_delays, 99))
                if self.queue_delays else 0.0
            ),
            retries=self.retries,
            requeues=self.requeues,
            failovers=self.failovers,
            rejections=self.rejections,
            capacity_rejections=self.capacity_rejections,
            detected_failures=self.detected_failures,
            downtime_s=downtime,
            duplicate_completions=self.duplicate_completions,
            lost=lost,
            tier_hits=int(total("tier_hits")),
            tier_misses=int(total("tier_misses")),
            tier_evictions=int(total("tier_evictions")),
            tier_spilled_bytes=total("tier_spilled_bytes"),
            tier_promoted_bytes=total("tier_promoted_bytes"),
            tier_transfer_cycles=total("tier_transfer_cycles"),
            forks=int(total("forks")),
            shared_bytes_saved=total("shared_bytes_saved"),
            per_replica=[
                r.telemetry(replay)
                for r, replay in zip(self.replicas, replays)
            ],
        )


def simulate_cluster(
    system: ServingSystem,
    arch: ArchShape,
    trace: Sequence[TraceRequest],
    config: Optional[ClusterConfig] = None,
    faults: Optional[FaultPlan] = None,
) -> ClusterReport:
    """Replay ``trace`` through an N-replica cluster under ``faults``.

    Args:
        system: the (device, method) pairing every replica runs.
        arch: model architecture (paper dimensions).
        trace: arrival-sorted requests (validated, like
            :func:`~repro.serving.simulator.simulate_trace`).
        config: cluster knobs; defaults to a 2-replica least-loaded
            cluster.
        faults: a fault plan (validated against the replica count);
            None replays fault-free — with one replica that reduces
            exactly to :func:`~repro.serving.simulator.simulate_trace`.

    Returns:
        A :class:`ClusterReport`; ``report.as_dict()`` is the JSON
        payload the bench harness and CLI emit.
    """
    validate_trace(trace)
    if config is None:
        config = ClusterConfig()
    if faults is None:
        faults = FaultPlan([])
    faults.validate(config.replicas)
    return _ClusterSim(system, arch, trace, config, faults).run()
