"""Cluster replay contracts: equivalence, exactly-once, determinism.

The three correctness contracts from the module docstring, plus the
robustness machinery (failover, retry budget, backpressure) and the
router policies.  Everything runs in simulation time
on small traces, so the whole file is fast and fully deterministic.
"""

import dataclasses

import numpy as np
import pytest

from repro.data.traces import (
    TraceRequest,
    generate_burst_trace,
    generate_multiturn_trace,
    generate_trace,
)
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.cluster import (
    ClusterConfig,
    ROUTER_POLICIES,
    simulate_cluster,
)
from repro.serving.faults import (
    FaultPlan,
    admission_blackout,
    brownout,
    crash_and_recover,
    crash_forever,
    generate_fault_plan,
)
from repro.serving.simulator import CacheReplayConfig, simulate_trace

pytestmark = pytest.mark.cluster

ARCH = get_model("llama2-13b").arch
SYSTEM = get_system("oaken-hbm")
TRACE = generate_trace("conversation", 32, seed=3)
# A closed synthesized batch (Figure 14): every request arrives together.
CLOSED = [
    dataclasses.replace(r, arrival_s=0.0)
    for r in generate_trace("conversation", 32, seed=5, max_tokens=512)
]
SMALL_REPLAY = CacheReplayConfig(num_layers=1, dim=16, prompt_rows=2)
# Every ServingReport total that ClusterReport also carries.
SHARED_FIELDS = (
    "generated_tokens", "total_time_s", "generation_throughput",
    "mean_latency_s", "p95_latency_s", "mean_ttft_s", "p95_ttft_s",
    "mean_tpot_s",
)


def run_cluster(trace=TRACE, faults=None, **kwargs):
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("max_batch", 8)
    return simulate_cluster(
        SYSTEM, ARCH, trace, ClusterConfig(**kwargs), faults
    )


class TestSingleReplicaEquivalence:
    """Contract 1: one replica, no faults == simulate_trace.

    It holds by construction — simulate_trace runs the cluster loop —
    same-timestamp arrivals included, so these guard the adapter's
    field mapping and the one-wave admission of ties.
    """

    def test_analytic_totals_identical(self):
        base = simulate_trace(SYSTEM, ARCH, TRACE, max_batch=8)
        rep = run_cluster(replicas=1)
        assert rep.generated_tokens == base.generated_tokens
        assert rep.total_time_s == base.total_time_s
        assert rep.generation_throughput == base.generation_throughput
        assert rep.busy_s == pytest.approx(
            base.generated_tokens / base.generation_throughput
        )

    def test_analytic_latencies_identical(self):
        base = simulate_trace(SYSTEM, ARCH, TRACE, max_batch=8)
        rep = run_cluster(replicas=1)
        assert rep.mean_latency_s == base.mean_latency_s
        assert rep.p95_latency_s == base.p95_latency_s
        assert rep.mean_ttft_s == base.mean_ttft_s
        assert rep.p95_ttft_s == base.p95_ttft_s
        assert rep.mean_tpot_s == base.mean_tpot_s

    def test_cache_replay_equivalence(self):
        trace = generate_trace("conversation", 12, seed=9)
        replay = CacheReplayConfig(num_layers=1, dim=16, prompt_rows=2)
        base = simulate_trace(
            SYSTEM, ARCH, trace, max_batch=4, replay=replay
        )
        rep = run_cluster(
            trace, replicas=1, max_batch=4, replay=replay
        )
        assert rep.generated_tokens == base.generated_tokens
        assert rep.total_time_s == base.total_time_s
        assert rep.generation_throughput == base.generation_throughput

    @pytest.mark.parametrize("replay", [None, SMALL_REPLAY],
                             ids=["analytic", "cache_replay"])
    def test_closed_batch_equivalence(self, replay):
        trace = CLOSED if replay is None else CLOSED[:12]
        base = simulate_trace(
            SYSTEM, ARCH, trace, max_batch=4, replay=replay
        )
        rep = run_cluster(trace, replicas=1, max_batch=4, replay=replay)
        for name in SHARED_FIELDS:
            assert getattr(rep, name) == getattr(base, name), name

    def test_closed_batch_admitted_as_one_wave(self):
        # The first step admits max_batch requests, not the first alone:
        # their first tokens land together.
        rep = run_cluster(CLOSED[:8], replicas=1, max_batch=8)
        assert rep.mean_ttft_s == rep.p95_ttft_s
        assert rep.mean_queue_delay_s == 0.0

    def test_two_replica_closed_batch(self):
        a = run_cluster(CLOSED)
        b = run_cluster(CLOSED)
        assert a.as_dict() == b.as_dict()
        assert a.completed == len(CLOSED)
        assert a.failed == a.lost == a.duplicate_completions == 0
        assert a.generated_tokens == sum(r.output_tokens for r in CLOSED)
        # least_loaded spreads the wave evenly before either steps.
        assert [row["completed"] for row in a.per_replica] == [16.0, 16.0]

    def test_every_request_completes(self):
        rep = run_cluster(replicas=1)
        assert rep.completed == len(TRACE)
        assert rep.failed == 0
        assert rep.lost == 0
        assert rep.generated_tokens == sum(
            r.output_tokens for r in TRACE
        )


class TestExactlyOnce:
    """Contract 2: completed exactly once or explicitly failed."""

    def test_mid_trace_crash_recovers_everything(self):
        faults = FaultPlan(crash_and_recover(0, at_s=0.4, down_s=2.0))
        rep = run_cluster(faults=faults)
        assert rep.completed == len(TRACE)
        assert rep.failed == 0
        assert rep.lost == 0
        assert rep.duplicate_completions == 0
        assert rep.failovers > 0
        assert rep.detected_failures == 1
        assert rep.downtime_s > 0.0

    def test_crash_without_recovery_fails_over(self):
        faults = FaultPlan(crash_forever(0, at_s=0.4))
        rep = run_cluster(faults=faults)
        assert rep.completed == len(TRACE)
        assert rep.lost == 0
        assert rep.failovers > 0
        # the survivor did all remaining work
        assert rep.per_replica[1]["generated_tokens"] > 0

    def test_all_replicas_dead_fails_explicitly(self):
        faults = FaultPlan(
            crash_forever(0, at_s=0.2) + crash_forever(1, at_s=0.2)
        )
        rep = run_cluster(faults=faults, retry_budget=3)
        assert rep.completed + rep.failed == len(TRACE)
        assert rep.failed > 0
        assert rep.lost == 0
        assert rep.duplicate_completions == 0

    def test_random_fault_plan_never_loses(self):
        faults = generate_fault_plan(
            3, 12.0, seed=7, crash_rate=0.1, brownout_rate=0.1,
            reject_rate=0.1,
        )
        rep = run_cluster(replicas=3, faults=faults)
        assert rep.completed + rep.failed == len(TRACE)
        assert rep.lost == 0
        assert rep.duplicate_completions == 0


class TestDeterminism:
    """Contract 3: identical seeds -> bit-identical reports."""

    def test_fault_free_reports_identical(self):
        assert run_cluster().as_dict() == run_cluster().as_dict()

    def test_faulted_reports_identical(self):
        plan = generate_fault_plan(2, 10.0, seed=13, crash_rate=0.1)
        a = run_cluster(faults=plan)
        b = run_cluster(
            faults=generate_fault_plan(2, 10.0, seed=13, crash_rate=0.1)
        )
        assert a.as_dict() == b.as_dict()

    @pytest.mark.parametrize("policy", ROUTER_POLICIES)
    def test_every_policy_deterministic(self, policy):
        a = run_cluster(replicas=3, policy=policy)
        b = run_cluster(replicas=3, policy=policy)
        assert a.as_dict() == b.as_dict()


class TestFaultBehaviors:
    def test_brownout_stretches_makespan(self):
        clean = run_cluster(replicas=1)
        slowed = run_cluster(
            replicas=1,
            faults=FaultPlan(
                brownout(0, 0.0, clean.total_time_s * 2, factor=4.0)
            ),
        )
        assert slowed.completed == len(TRACE)
        assert slowed.total_time_s > clean.total_time_s

    def test_admission_blackout_diverts_work(self):
        faults = FaultPlan(admission_blackout(0, 0.0, 5.0))
        rep = run_cluster(faults=faults)
        assert rep.completed == len(TRACE)
        assert rep.lost == 0
        # replica 1 shoulders the blackout window's arrivals
        assert (
            rep.per_replica[1]["generated_tokens"]
            > rep.per_replica[0]["generated_tokens"]
        )

    def test_recovered_replica_takes_new_work(self):
        faults = FaultPlan(crash_and_recover(0, at_s=0.1, down_s=1.0))
        rep = run_cluster(faults=faults)
        assert rep.completed == len(TRACE)
        assert rep.per_replica[0]["generated_tokens"] > 0
        assert rep.per_replica[0]["crashes"] == 1


class TestRouterPolicies:
    def test_least_loaded_spreads_work(self):
        rep = run_cluster(replicas=2)
        for row in rep.per_replica:
            assert row["generated_tokens"] > 0

    def test_prefix_affinity_homes_groups(self):
        # Every request in one prefix group -> exactly one replica
        # ever works (no faults to divert it).
        trace = [
            TraceRequest(
                arrival_s=0.1 * i, input_tokens=64, output_tokens=8,
                prefix_group=7,
            )
            for i in range(8)
        ]
        rep = run_cluster(
            trace, replicas=3, policy="prefix_affinity"
        )
        busy = [
            row for row in rep.per_replica
            if row["generated_tokens"] > 0
        ]
        assert len(busy) == 1
        assert rep.completed == len(trace)

    def test_prefix_affinity_on_multiturn_trace(self):
        trace = generate_multiturn_trace(
            "conversation", num_sessions=6, seed=2
        )
        rep = run_cluster(trace, replicas=3, policy="prefix_affinity")
        assert rep.completed == len(trace)
        assert rep.lost == 0

    def test_consistent_hash_completes_bursts(self):
        trace = generate_burst_trace(
            "burstgpt", num_bursts=3, burst_size=8, seed=4
        )
        rep = run_cluster(trace, replicas=3, policy="consistent_hash")
        assert rep.completed == len(trace)
        assert rep.lost == 0


def _shared_group_trace(count=10, group=7, shared=48):
    """One prefix group whose members can fork a 48-token prefix."""
    return [
        TraceRequest(
            arrival_s=0.05 * i, input_tokens=64, output_tokens=8,
            prefix_group=group, shared_tokens=shared,
        )
        for i in range(count)
    ]


@pytest.mark.sharing
class TestForkedSessionRouting:
    """Prefix-affinity routing composed with copy-on-write forking:
    a group's shared chunks live on its home replica, and failover
    re-forks on the takeover replica without breaking exactly-once."""

    REPLAY = CacheReplayConfig(num_layers=1, dim=16, prompt_rows=8)

    def test_forked_sessions_land_on_the_home_replica(self):
        rep = run_cluster(
            _shared_group_trace(), replicas=3,
            policy="prefix_affinity", replay=self.REPLAY,
        )
        assert rep.completed == 10 and rep.lost == 0
        busy = [
            row for row in rep.per_replica
            if row["generated_tokens"] > 0
        ]
        # The whole group homes to one replica, and that replica is
        # where every fork (and all the shared bytes) happened.
        assert len(busy) == 1
        assert busy[0]["forks"] > 0
        assert busy[0]["shared_bytes_saved"] > 0.0
        assert rep.forks == busy[0]["forks"]
        for row in rep.per_replica:
            if row["replica"] != busy[0]["replica"]:
                assert row["forks"] == 0.0

    def test_failover_reforks_on_the_takeover_replica(self):
        trace = _shared_group_trace(count=12)
        clean = run_cluster(
            trace, replicas=2, policy="prefix_affinity",
            replay=self.REPLAY,
        )
        home = max(
            clean.per_replica, key=lambda row: row["generated_tokens"]
        )["replica"]
        rep = run_cluster(
            trace, replicas=2, policy="prefix_affinity",
            replay=self.REPLAY,
            faults=FaultPlan(events=crash_forever(int(home), at_s=0.2)),
        )
        # Exactly-once survives the failover: orphans requeue on the
        # surviving replica, which re-forks the group there (its own
        # first arrival becomes the new anchor).
        assert rep.completed + rep.failed == len(trace)
        assert rep.lost == 0
        assert rep.duplicate_completions == 0
        survivor = [
            row for row in rep.per_replica if row["replica"] != home
        ][0]
        assert survivor["forks"] > 0
        assert survivor["shared_bytes_saved"] > 0.0

    def test_rerun_determinism_with_forking(self):
        trace = generate_multiturn_trace(
            "conversation", num_sessions=6, seed=11
        )
        kwargs = dict(
            replicas=2, policy="prefix_affinity", replay=self.REPLAY
        )
        a = run_cluster(trace, **kwargs)
        b = run_cluster(trace, **kwargs)
        assert a.forks == b.forks > 0
        assert a.as_dict() == b.as_dict()


class TestBackpressure:
    def test_queue_limit_sheds_to_retry_queue(self):
        trace = generate_burst_trace(
            "conversation", num_bursts=2, burst_size=12, seed=1
        )
        rep = run_cluster(
            trace, replicas=2, max_batch=2, queue_limit=2,
            retry_budget=8, backoff_cap_s=0.5,
        )
        assert rep.rejections > 0
        assert rep.retries > 0
        assert rep.completed + rep.failed == len(trace)
        assert rep.lost == 0


class TestValidation:
    def test_unsorted_trace_rejected(self):
        trace = [
            TraceRequest(arrival_s=1.0, input_tokens=64, output_tokens=8),
            TraceRequest(arrival_s=0.5, input_tokens=64, output_tokens=8),
        ]
        with pytest.raises(ValueError, match="sorted by arrival"):
            run_cluster(trace)

    def test_fault_plan_validated_against_replicas(self):
        with pytest.raises(ValueError, match="replica 5"):
            run_cluster(faults=FaultPlan(crash_forever(5, 1.0)))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            ClusterConfig(replicas=0)
        with pytest.raises(ValueError, match="policy"):
            ClusterConfig(policy="round_robin")
        with pytest.raises(ValueError, match="retry_budget"):
            ClusterConfig(retry_budget=0)
        with pytest.raises(ValueError, match="queue_limit"):
            ClusterConfig(queue_limit=0)
        # The clock must only move forward: a beat interval <= 0 never
        # returns (the beat re-arms at or before now), NaN puts
        # unordered keys in the event heap, and a negative backoff
        # retries in the past.
        for value in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="heartbeat_interval_s"):
                ClusterConfig(heartbeat_interval_s=value)
        for name in ("backoff_base_s", "backoff_cap_s"):
            for value in (-0.05, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    ClusterConfig(**{name: value})
        ClusterConfig(backoff_base_s=0.0, backoff_cap_s=0.0)  # allowed

    @pytest.mark.parametrize("name", [
        "replicas", "max_batch", "heartbeat_misses", "retry_budget",
        "queue_limit",
    ])
    def test_a_fractional_count_is_refused(self, name):
        """Counts are whole.  ``replicas=2.5`` used to fail only inside
        the run, ``max_batch=2.5`` lifted the residency cap, and the
        rest ran with their meaning silently rounded."""
        for value in (2.5, 3.0, float("nan")):
            with pytest.raises(TypeError):
                ClusterConfig(**{name: value})
        config = ClusterConfig(**{name: np.int64(3)})  # allowed
        assert getattr(config, name) == 3

    def test_analytic_oom_mirrors_simulate_trace(self, monkeypatch):
        import repro.serving.cluster as cluster_mod

        monkeypatch.setattr(
            cluster_mod, "max_supported_batch",
            lambda *args, **kwargs: 0,
        )
        rep = run_cluster()
        assert rep.oom
        assert rep.completed == 0


class TestScaling:
    @pytest.mark.parametrize(
        "trace, speedup",
        [
            (TRACE, 2.726625331896533),
            # The committed replica-scaling claim.
            (generate_trace("conversation", 64, seed=0), 3.2318119000204595),
        ],
        ids=["seed3-32", "seed0-64"],
    )
    def test_more_replicas_raise_token_rate(self, trace, speedup):
        one = run_cluster(trace, replicas=1, max_batch=4)
        four = run_cluster(trace, replicas=4, max_batch=4)
        assert four.completed == one.completed == len(trace)
        assert four.tokens_per_s / one.tokens_per_s == pytest.approx(
            speedup, rel=1e-9
        )

    def test_report_serializes(self):
        import json

        payload = run_cluster().as_dict()
        assert json.loads(json.dumps(payload)) == payload
