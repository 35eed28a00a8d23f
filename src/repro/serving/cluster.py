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

import bisect
import dataclasses
import heapq
import itertools
import math
import operator
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.traces import TraceRequest
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

# The router's rank: in-flight requests (resident + queued).  ``min``
# keeps the first of equals, and replicas are listed in rid order, so a
# tie goes to the lowest rid.
_IN_FLIGHT = operator.attrgetter("scheduler.in_flight")


def _stat(values: List[float], percentile: Optional[float] = None) -> float:
    """Mean of ``values``, or their ``percentile``; 0.0 when empty."""
    if not values:
        return 0.0
    if percentile is None:
        return float(np.mean(values))
    return float(np.percentile(values, percentile))


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

    The counts (``replicas``, ``max_batch``, ``heartbeat_misses``,
    ``retry_budget``, ``queue_limit``) are whole numbers: a fractional
    one raises :class:`TypeError`.
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

    def __post_init__(self):
        for name in ("replicas", "max_batch", "heartbeat_misses",
                     "retry_budget"):
            operator.index(getattr(self, name))
        if self.queue_limit is not None:
            operator.index(self.queue_limit)
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.policy not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router policy {self.policy!r}; choose from "
                f"{ROUTER_POLICIES}"
            )
        # The event clock only moves forward: a beat at or before now
        # re-arms forever, and a negative backoff retries in the past.
        # (A chained comparison is False for NaN.)
        if not 0.0 < self.heartbeat_interval_s < math.inf:
            raise ValueError("heartbeat_interval_s must be finite and > 0, "
                             f"got {self.heartbeat_interval_s}")
        for name in ("backoff_base_s", "backoff_cap_s"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{getattr(self, name)}")
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
        self.epoch = 0  # bumped per launch, cut, crash: older STEP_DONE stale
        # The iterations in flight (one, or a stride of them): their
        # times, the clock at each one's end, the batch they advance,
        # and how many of them the pending STEP_DONE covers.
        self.times: List[float] = []
        self.ends: List[float] = []
        self.batch = 0
        self.stride = 0
        # A replay stride's resident ids, whose pool work is owed until
        # its iterations are booked; None when nothing is.
        self.owed: Optional[Sequence[int]] = None
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
        # The part of :meth:`can_stride` fixed for this incarnation: a
        # replay pool strides only where no iteration's pool work feeds
        # its timing, since a stride books that work after pricing all
        # its iterations: no tier transfers charged into an iteration's
        # time, no engine cycles to price.  The store does not matter: a
        # stride's j-row chunk costs the bits of j one-row chunks, and a
        # fork never reaches past its anchor's prompt rows into the
        # decode rows a stride writes.  Nor does a tiered store whose
        # transfers are only reported: the pool tells it of a stride's
        # step as of j one-row steps, in order.
        cache = self.cache
        self._strides = cache is None or (
            (cache.tiering is None or not cache.config.charge_transfer_cycles)
            and not cache.config.engine_cycles
        )
        self.scheduler = ContinuousBatchScheduler(
            self.effective_cap, admission_gate=self._admission_gate,
        )

    def _admission_gate(self, request: Request) -> bool:
        """Admission-window block composed with the cache-replay gate."""
        if self.rejecting:
            return False
        if self.cache is not None:
            return self.cache.admission_gate(request)
        return True

    def can_stride(self, plan) -> bool:
        """Whether ``plan`` may run to the batch's first retirement in
        one stride.

        Only an event addressed to this replica can change its batch
        before then, and such an event cuts the stride
        (:meth:`_ClusterSim._cut`).  A replay replica defers the
        stride's pool work to its booking, so it also needs that no plan
        it skips could reach the admission gate, whose projection reads
        the pool: the queue is empty or the batch is full.
        """
        if not self._strides:
            return False
        if self.cache is None:
            return True
        scheduler = self.scheduler
        return (
            not scheduler.pending
            or len(plan.resident) >= scheduler.max_batch
        )

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
            return min(eligible, key=_IN_FLIGHT)
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
            return min(eligible, key=_IN_FLIGHT)
        # consistent_hash: walk the ring clockwise from the request's
        # point to the first eligible replica.
        key = zlib.crc32(f"req:{creq.index}".encode())
        okay = {r.rid for r in eligible}
        start = bisect.bisect_left(self.ring, (key,))
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
        self.failovers = 0  # every requeue is a failover
        self.rejections = 0
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
        self._cut(target, now)
        target.scheduler.submit(creq.fresh_request())
        return target

    def _place(self, creq: _ClusterRequest, now: float) -> None:
        """Route one pending request and wake its replica."""
        target = self._route(creq, now)
        if target is not None:
            self._try_start_step(target, now)

    def _requeue(self, creq: _ClusterRequest, now: float) -> None:
        """Fail an orphaned request over: its replica died, so it
        re-places at once on any survivor."""
        creq.state = "pending"
        creq.replica = None
        creq.live = None
        self.failovers += 1
        self._place(creq, now)

    # -- replica stepping ----------------------------------------------

    def _try_start_step(self, replica: _Replica, now: float) -> None:
        """Plan and launch one iteration, or a stride of them, on an
        idle, healthy replica: admit the plan's arrivals into the cache
        pool, price the step, then either owe its pool work to the
        stride's booking or do it now."""
        if replica.stepping or not replica.alive or replica.detected_dead:
            return
        plan = replica.scheduler.plan_iteration(now)
        if plan is None:
            return  # idle: the next event on this replica wakes it
        cache = replica.cache
        if cache is not None:
            for request in plan.admitted:
                cache.admit(request)
        strides = replica.can_stride(plan)
        stride = replica.scheduler.steps_to_retire() if strides else 1
        step_time = iteration_time_s(self.system, self.arch, plan, stride)
        step_time *= replica.brownout_factor
        ids = plan.resident_ids
        if cache is not None and strides:
            # Nothing reads the pool before the stride is booked, so its
            # iterations' KV work waits for that, as one transaction.
            replica.owed = ids
        elif cache is not None:
            cache.step(ids)
            # Charge modeled tier-transfer time (admissions + this
            # step's spill traffic) into the iteration when the replay
            # config opted in; brownout already applied — transfers are
            # memory-system time, not compute subject to the slowdown.
            step_time += cache.transfer_penalty_s()
        replica.stepping = True
        replica.times = (
            step_time.tolist() if stride > 1 else [step_time]
        )
        # Sequential sums, as the per-iteration ``now + step_time``:
        # ``ends[i]`` is the clock when iteration ``i`` ends (``ends[0]``
        # is ``now``, when the first one starts).
        replica.ends = list(itertools.accumulate(replica.times, initial=now))
        replica.batch = len(ids)
        self._end_after(replica, stride)

    def _end_after(self, replica: _Replica, stride: int) -> None:
        """Schedule ``replica``'s STEP_DONE at the end of its first
        ``stride`` iterations in flight; any earlier one goes stale."""
        replica.epoch += 1
        replica.stride = stride
        heapq.heappush(self.heap, (
            replica.ends[stride], _STEP_DONE, next(self._seq),
            (replica.rid, replica.epoch),
        ))

    def _cut(self, replica: _Replica, now: float,
             crash: bool = False) -> None:
        """An event at ``now`` addressed to ``replica`` ends its stride.

        The per-iteration loop would see the event at its next plan, at
        the first iteration end at or after ``now``, so the stride ends
        there and the iterations after it never run.  A crash instead
        keeps only the iterations that ended strictly before it (FAULT
        sorts before STEP_DONE at equal times): they are booked now,
        with the plan at their end that started the iteration the
        crash kills.  That plan saw the batch as the stride began,
        because an earlier event would have cut the stride there.  The
        pool work a replay stride owes covers the killed iteration too:
        the per-iteration loop ran it when that iteration started.
        """
        if not replica.stepping or (
            replica.stride == 1 and replica.owed is None
        ):
            return
        # Iterations that ended strictly before ``now``.
        done = bisect.bisect_left(replica.ends, now, 1, replica.stride) - 1
        if not crash:
            if done + 1 < replica.stride:
                self._end_after(replica, done + 1)
            return
        if replica.owed is not None:
            replica.cache.step(replica.owed, done + 1)
            replica.owed = None
        if done:
            self._advance(replica, done)
            replica.scheduler.repeat_plan()

    def _advance(self, replica: _Replica, stride: int) -> None:
        """Book ``replica``'s first ``stride`` iterations in flight as
        done, at the end of the last of them, with the pool work a
        replay stride owes for them."""
        now = replica.ends[stride]
        replica.stepping = False
        if replica.owed is not None:
            replica.cache.step(replica.owed, stride)
            replica.owed = None
        for step_time in replica.times[:stride]:
            replica.busy_s += step_time
        replica.generated += stride * replica.batch
        replica.steps += stride
        retired = replica.scheduler.complete_iteration(
            now, stride, replica.ends[1]
        )
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

    # -- fault handling ------------------------------------------------

    def _detect_dead(self, replica: _Replica, now: float) -> None:
        self.detected_failures += 1
        replica.detected_dead = True
        for request in replica.harvest_orphans():
            self._requeue(self.requests[request.request_id], now)

    def _apply_fault(self, event, now: float) -> None:
        replica = self.replicas[event.replica]
        self._cut(replica, now, crash=event.kind is FaultKind.CRASH)
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
                self._requeue(self.requests[request.request_id], now)
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
                rid, epoch = payload
                replica = self.replicas[rid]
                if epoch != replica.epoch:
                    continue  # stale: a crash or a cut superseded it
                self._advance(replica, replica.stride)
                self._try_start_step(replica, time_s)
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
            mean_latency_s=_stat(self.latencies),
            p95_latency_s=_stat(self.latencies, 95),
            mean_ttft_s=_stat(self.ttfts),
            p95_ttft_s=_stat(self.ttfts, 95),
            mean_tpot_s=_stat(self.tpots),
            mean_queue_delay_s=_stat(self.queue_delays),
            p95_queue_delay_s=_stat(self.queue_delays, 95),
            p99_queue_delay_s=_stat(self.queue_delays, 99),
            retries=self.retries,
            requeues=self.failovers,
            failovers=self.failovers,
            rejections=self.rejections,
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
