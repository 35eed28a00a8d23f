"""Strides in the analytic cluster loop against stepping one iteration.

An analytic replica whose batch cannot change runs to its first
retirement in one stride, and an event addressed to it cuts the
stride.  With ``steps_to_retire`` forced to 1 the same loop steps one
iteration at a time, as it did before strides, so every case here runs
both ways and holds the report, each replica's counters and the gate
refusals of every scheduler incarnation ``==``.
"""

import numpy as np
import pytest

from repro.data.traces import generate_multiturn_trace, generate_trace
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving import cluster
from repro.serving.cluster import ClusterConfig, _ClusterSim
from repro.serving.faults import FaultKind, FaultPlan, generate_fault_plan
from repro.serving.scheduler import ContinuousBatchScheduler

from test_serving import _storm_plan

pytestmark = pytest.mark.cluster

ARCH = get_model("llama2-13b").arch
SYSTEM = get_system("oaken-hbm")


def _run(trace, config, faults, monkeypatch, stride):
    """One cluster run; returns the report, every scheduler each
    replica booted, in boot order, and the ``complete_iteration``
    calls it made."""
    schedulers = []
    boot = cluster._Replica._boot
    complete = ContinuousBatchScheduler.complete_iteration
    calls = [0]

    def booting(replica):
        boot(replica)
        schedulers.append(replica.scheduler)

    def completing(scheduler, *args, **kwargs):
        calls[0] += 1
        return complete(scheduler, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cluster._Replica, "_boot", booting)
        patch.setattr(
            ContinuousBatchScheduler, "complete_iteration", completing
        )
        if not stride:
            patch.setattr(
                ContinuousBatchScheduler, "steps_to_retire", lambda s: 1
            )
        faults.validate(config.replicas)
        report = _ClusterSim(SYSTEM, ARCH, trace, config, faults).run()
    return report, schedulers, calls[0]


def _both(trace, config, faults, monkeypatch):
    """Run strided and one iteration at a time; hold them ``==``.
    Returns the strided run's ``complete_iteration`` calls and the
    per-iteration run's."""
    runs = [
        _run(trace, config, faults, monkeypatch, stride)
        for stride in (True, False)
    ]
    (strided, strided_schedulers, calls), (single, schedulers, steps) = runs
    assert strided.as_dict() == single.as_dict()
    assert [s.gate_refusals for s in strided_schedulers] == [
        s.gate_refusals for s in schedulers
    ]
    assert steps == sum(row["steps"] for row in single.per_replica)
    return calls, steps


def _plan(kind):
    if kind == "storm":
        return _storm_plan()
    return generate_fault_plan(
        4, 30.0, seed=11, crash_rate=0.08, brownout_rate=0.15,
        reject_rate=0.15,
    )


@pytest.mark.parametrize("faults", ["storm", "random"])
@pytest.mark.parametrize("queue_limit", [None, 2])
@pytest.mark.parametrize("prefill_chunk", [None, 128])
@pytest.mark.parametrize("policy", cluster.ROUTER_POLICIES)
def test_strides_equal_single_iterations(
    policy, prefill_chunk, queue_limit, faults, monkeypatch
):
    trace = (
        generate_multiturn_trace("conversation", num_sessions=40, seed=4)
        if policy == "prefix_affinity"
        else generate_trace("conversation", 150, seed=4)
    )
    config = ClusterConfig(
        replicas=4, max_batch=8, policy=policy,
        prefill_chunk=prefill_chunk, queue_limit=queue_limit,
    )
    calls, steps = _both(trace, config, _plan(faults), monkeypatch)
    # Strides make far fewer scheduler advances than iterations.
    assert calls * 2 < steps


def test_fault_free_single_replica(monkeypatch):
    config = ClusterConfig(replicas=1, max_batch=16)
    trace = generate_trace("conversation", 200, seed=8)
    calls, steps = _both(trace, config, FaultPlan([]), monkeypatch)
    assert calls * 4 < steps


def test_storm_cuts_every_kind_mid_stride(monkeypatch):
    """The hand-built golden plan lands a route, a crash, a brownout
    and an admission blackout's end on replicas in the middle of a
    stride, each cutting it short."""
    causes = []
    cut = _ClusterSim._cut
    route = _ClusterSim._route
    apply_fault = _ClusterSim._apply_fault
    seen = set()

    def cutting(sim, replica, now, crash=False):
        before = (replica.stride, replica.steps)
        cut(sim, replica, now, crash)
        shortened = replica.stride < before[0] if not crash else (
            replica.steps > before[1]
        )
        if shortened:
            seen.add(causes[-1])

    def routing(sim, creq, now):
        causes.append("route")
        try:
            return route(sim, creq, now)
        finally:
            causes.pop()

    def faulting(sim, event, now):
        causes.append(event.kind)
        try:
            apply_fault(sim, event, now)
        finally:
            causes.pop()

    monkeypatch.setattr(_ClusterSim, "_cut", cutting)
    monkeypatch.setattr(_ClusterSim, "_route", routing)
    monkeypatch.setattr(_ClusterSim, "_apply_fault", faulting)
    config = ClusterConfig(replicas=4, max_batch=8)
    trace = generate_trace("conversation", 300, seed=21)
    _ClusterSim(SYSTEM, ARCH, trace, config, _storm_plan()).run()
    assert {
        "route", FaultKind.CRASH, FaultKind.BROWNOUT,
        FaultKind.BROWNOUT_END, FaultKind.REJECT, FaultKind.REJECT_END,
    } <= seen


def test_stride_contexts_rise_by_one():
    """A stride prices iteration ``j`` at context ``int(S / B) + j``:
    the scheduler's ``float(S + B * j) / B`` floors there, because the
    context sum grows by exactly the batch size per iteration."""
    rng = np.random.default_rng(0)
    batch = rng.integers(1, 257, size=20_000)
    total = batch * rng.integers(1, 70_000, size=batch.size) + (
        rng.integers(0, 2**31, size=batch.size) % batch
    )
    for j in (0, 1, 2, 63, 64, 1_000, 65_536):
        mean = (total + batch * j).astype(np.float64) / batch
        assert np.array_equal(
            mean.astype(np.int64), total // batch + j
        ), j
