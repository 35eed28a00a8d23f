"""Strides in the cluster loop against stepping one iteration.

A replica whose batch cannot change runs to its first retirement in
one stride, and an event addressed to it cuts the stride.  With
``steps_to_retire`` forced to 1 the same loop steps one iteration at a
time, as it did before strides, so every case here runs both ways and
holds the report, each replica's counters and the gate refusals of
every scheduler incarnation ``==``.

A replay replica strides too, on either store and behind a tiered
store whose transfers are not charged, booking a stride's pool work
as one transaction; its cases also run with
``_Replica.can_stride`` forced False, the loop that does each
iteration's pool work when the iteration starts, and hold every pool's
report, peak footprint and every sequence's final read equal across
all three runs.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.baselines.registry import available_methods
from repro.data.traces import (
    generate_burst_trace,
    generate_multiturn_trace,
    generate_rag_trace,
    generate_trace,
)
from repro.engine import KVCachePool
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving import cluster
from repro.serving.cluster import ClusterConfig, _ClusterSim
from repro.serving.faults import (
    FaultKind,
    FaultPlan,
    crash_forever,
    generate_fault_plan,
)
from repro.serving.request import Request
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.simulator import (
    CacheReplayConfig,
    _CacheReplay,
    simulate_trace,
)

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
# The batch sets how long requests wait in a replica's queue and how
# many of them share each stride.
@pytest.mark.parametrize("max_batch", [8, 3])
@pytest.mark.parametrize("policy", cluster.ROUTER_POLICIES)
def test_strides_equal_single_iterations(
    policy, max_batch, queue_limit, faults, monkeypatch
):
    trace = (
        generate_multiturn_trace("conversation", num_sessions=40, seed=4)
        if policy == "prefix_affinity"
        else generate_trace("conversation", 150, seed=4)
    )
    config = ClusterConfig(
        replicas=4, max_batch=max_batch, policy=policy,
        queue_limit=queue_limit,
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


# -- replay replicas ------------------------------------------------------

#: Replay report keys a stride may move: j rows per sequence encode,
#: decode (or round-trip, on an adapter pool) and relocate in fewer,
#: larger calls than one.
MAY_MOVE = {
    "batched_encodes", "batched_decodes", "batched_roundtrips",
    "arena_rows_dead", "arena_compactions", "arena_capacity_bytes",
}
#: A device tier of eight 64-byte pages: small enough that the replay
#: traces' pages evict, miss and prefetch.
TIER = {"device_budget_mb": 0.0005, "page_bytes": 64}
#: The replay variants, each on either store: its options and the fixed
#: slot its grid cases are numbered from, so that no variant's cases
#: re-seed when another leaves (slot 2 is free).
VARIANTS = {
    "flat": ({}, 0),
    "tiered": (TIER, 1),
    "engine": ({"engine_cycles": True}, 3),
    "tiered-plru": (dict(TIER, eviction="plru", prefetch_pages=2), 4),
    "tiered-charged": (dict(TIER, charge_transfer_cycles=True), 5),
}
#: Grid case numbers a store spans: two fault plans per variant slot.
CASES_PER_STORE = 12
#: The variants that stride: untiered, or tiered with transfers
#: reported but not charged into iteration time.
STRIDING = {"flat", "tiered", "tiered-plru"}
#: The loops a replay case runs: strided, one iteration per stride, and
#: no strides at all (each iteration's pool work done when it starts,
#: as before replay replicas strode).  A variant that must not stride
#: runs the first and the last only: ``single`` is ``strided`` there.
LOOPS = ("strided", "single", "unstrided")


def _loops(variant):
    if variant in STRIDING:
        return LOOPS
    return ("strided", "unstrided")


def _replay_trace(seed, requests=12, output_cap=8, spread=4.0):
    """A short trace, its arrivals spread over a few seconds and its
    generation windows clipped so a run stays cheap."""
    return [
        dataclasses.replace(
            r, arrival_s=r.arrival_s * spread,
            output_tokens=min(r.output_tokens, output_cap),
        )
        for r in generate_trace("conversation", requests, seed=seed)
    ]


def _replay_plan(kind, seed=11, crash_rate=0.4, reject_rate=0.3):
    """The two fault plans on the replay traces' time scale: the storm
    plan's events at an eighth of their times (its three crashes at
    1.4, 3.8 and 5.9 s), or a seeded random plan over 4 s."""
    if kind == "storm":
        return FaultPlan([
            dataclasses.replace(event, time_s=event.time_s / 8)
            for event in _storm_plan().events
        ])
    return generate_fault_plan(
        4, 4.0, seed=seed, crash_rate=crash_rate, brownout_rate=0.3,
        reject_rate=reject_rate, mean_down_s=0.5,
    )


def _replay_config(store, variant, **replay):
    options, _ = VARIANTS[variant]
    return CacheReplayConfig(
        num_layers=2, dim=16, prompt_rows=2, calibration_tokens=32,
        arena=store == "arena", **options, **replay,
    )


def _replay_run(simulate, monkeypatch, loop):
    """Run ``simulate()`` under ``loop``; returns its result, the gate
    refusals and report (keys in :data:`MAY_MOVE` dropped) and peak
    bytes of every cache incarnation in boot order, every sequence's
    history read bit for bit as it was freed, and the number of
    multi-iteration pool transactions."""
    caches, schedulers, reads = [], [], []
    strides = [0]
    boot = cluster._Replica._boot
    free = KVCachePool.free
    step = _CacheReplay.step

    def booting(replica):
        boot(replica)
        schedulers.append(replica.scheduler)
        caches.append(replica.cache)

    def freeing(pool, seq_id):
        # The backend's own read: the tier store is not told.
        backend = pool.get(seq_id)
        history = []
        for layer in range(backend.num_layers):
            try:
                keys, values = backend.read(layer)
            except RuntimeError:  # allocated, nothing stored yet
                history.append(None)
                continue
            history.append((keys.dtype, keys.shape, keys.tobytes(),
                            values.tobytes()))
        reads.append((seq_id, history))
        return free(pool, seq_id)

    def stepping(replay, seq_ids, steps=1):
        strides[0] += steps > 1
        return step(replay, seq_ids, steps)

    with monkeypatch.context() as patch:
        patch.setattr(cluster._Replica, "_boot", booting)
        patch.setattr(KVCachePool, "free", freeing)
        patch.setattr(_CacheReplay, "step", stepping)
        if loop != "strided":
            patch.setattr(
                ContinuousBatchScheduler, "steps_to_retire", lambda s: 1
            )
        if loop == "unstrided":
            patch.setattr(
                cluster._Replica, "can_stride", lambda r, plan: False
            )
        result = simulate()
    return dict(
        result=result,
        refusals=[s.gate_refusals for s in schedulers],
        reports=[
            {k: v for k, v in cache.report().items() if k not in MAY_MOVE}
            for cache in caches
        ],
        peaks=[cache.pool.peak_bytes for cache in caches],
        reads=reads,
    ), strides[0]


def _replay_all(simulate, monkeypatch, loops=LOOPS):
    """Run ``simulate`` under each of ``loops`` and hold them equal;
    returns the strided run's multi-iteration transactions and its
    result."""
    runs = [_replay_run(simulate, monkeypatch, loop) for loop in loops]
    (strided, strides), *others = runs
    for other, _ in others:
        for key in strided:
            assert strided[key] == other[key], key
    return strides, strided["result"]


def _replay_cluster(trace, config, faults, monkeypatch, loops=LOOPS):
    def simulate():
        faults.validate(config.replicas)
        return _ClusterSim(SYSTEM, ARCH, trace, config, faults).run().as_dict()

    return _replay_all(simulate, monkeypatch, loops)


def _replay_trace_run(trace, max_batch, replay, monkeypatch):
    """:func:`_replay_all` over one ``simulate_trace`` replica; its
    report's replay keys in :data:`MAY_MOVE` dropped."""
    def simulate():
        report = simulate_trace(SYSTEM, ARCH, trace, max_batch, replay=replay)
        return dataclasses.asdict(dataclasses.replace(report, replay={
            key: value for key, value in report.replay.items()
            if key not in MAY_MOVE
        }))

    return _replay_all(simulate, monkeypatch)


@pytest.mark.parametrize("faults", ["storm", "random"])
@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("store", ["arena", "chunked"])
def test_replay_strides_equal_single_iterations(
    store, variant, faults, monkeypatch
):
    """The store x variant x fault-plan grid, the router policy and
    the queue limit turning with the case."""
    case = (["arena", "chunked"].index(store) * CASES_PER_STORE
            + VARIANTS[variant][1] * 2 + (faults == "random"))
    replay = _replay_config(store, variant, seed=case)
    config = ClusterConfig(
        replicas=4, max_batch=4,
        policy=cluster.ROUTER_POLICIES[case % 3],
        queue_limit=(None, 2)[case // 3 % 2],
        replay=replay,
    )
    trace = _replay_trace(seed=case)
    strides, report = _replay_cluster(
        trace, config, _replay_plan(faults), monkeypatch,
        _loops(variant),
    )
    assert report["completed"] + report["failed"] == len(trace)
    assert report["lost"] == report["duplicate_completions"] == 0
    # Only an unpriced replica whose tier transfers (if any) are not
    # charged strides.
    assert (strides > 0) == (variant in STRIDING)


@pytest.mark.parametrize("seed", range(16))
def test_replay_strides_on_drawn_configurations(seed, monkeypatch):
    """Seeded random draws over the store, variant, router policy,
    fault plan, queue limit, batch cap and trace.  The strided loop
    runs twice, and its rerun's record is held equal to its first, key
    for key (bit-identical reruns)."""
    draw = random.Random(seed)
    store = draw.choice(["arena", "chunked"])
    # Half the draws take the untiered variant that strides.
    variant = "flat" if seed % 2 else draw.choice(list(VARIANTS))
    replay = _replay_config(store, variant, seed=draw.randrange(100))
    config = ClusterConfig(
        replicas=4, max_batch=draw.choice([2, 4, 8]),
        policy=draw.choice(cluster.ROUTER_POLICIES),
        queue_limit=draw.choice([None, 1, 3]),
        replay=replay,
    )
    faults = (
        _replay_plan("storm") if draw.random() < 0.3 else _replay_plan(
            "random", seed=draw.randrange(1000),
            crash_rate=draw.choice([0.1, 0.4, 0.8]),
            reject_rate=draw.choice([0.0, 0.3]),
        )
    )
    trace = _replay_trace(
        seed=draw.randrange(1000), requests=draw.choice([8, 12, 16]),
        output_cap=draw.choice([4, 8, 16]),
        spread=draw.choice([1.0, 4.0]),
    )
    strides, report = _replay_cluster(
        trace, config, faults, monkeypatch,
        ("strided",) + _loops(variant),
    )
    assert report["completed"] + report["failed"] == len(trace)
    assert report["lost"] == report["duplicate_completions"] == 0


@pytest.mark.parametrize("faults", ["storm", "random"])
@pytest.mark.parametrize("method, variant", [
    pytest.param(method, "flat", id=method)
    for method in sorted(set(available_methods()) - {"oaken"})
] + [
    # One row-local and one history-global method behind a tiered
    # store, whose footprints per length the pool tells it row by row.
    pytest.param(method, "tiered", id=f"{method}-tiered")
    for method in ("fp16", "kivi")
])
def test_adapter_pools_stride(method, variant, faults, monkeypatch):
    """Every baseline method's pool (the adapter store: row-local
    ones such as ``fp16`` and history-global ones such as ``kivi``)
    strides, and its reports, peaks and reads equal the per-iteration
    loops'."""
    replay = _replay_config("chunked", variant, seed=3, method=method)
    config = ClusterConfig(replicas=4, max_batch=4, replay=replay)
    trace = _replay_trace(seed=3)
    strides, report = _replay_cluster(
        trace, config, _replay_plan(faults), monkeypatch,
    )
    assert strides > 0
    assert report["completed"] + report["failed"] == len(trace)


def _rag_trace():
    """Shared-prompt waves shaped like the ``replay-rag-shared``
    workload, their generation windows clipped."""
    return [
        dataclasses.replace(r, output_tokens=min(r.output_tokens, 24))
        for r in generate_rag_trace(
            "conversation", num_bursts=3, burst_size=8,
            burst_gap_s=0.25, seed=4,
        )
    ]


def test_replay_rag_shared_trace(monkeypatch):
    """``simulate_trace`` shaped like the ``replay-rag-shared``
    workload: one chunk-store replica forking prefix-group members
    off their anchors.  Reports (the sharing summary among them),
    peak bytes and every freed sequence's read equal the
    per-iteration loops'."""
    trace = _rag_trace()
    replay = CacheReplayConfig(
        num_layers=2, dim=16, prompt_rows=4, calibration_tokens=32,
    )
    strides, report = _replay_trace_run(trace, 8, replay, monkeypatch)
    assert strides > 0
    assert report["replay"]["forks"] > 0
    assert report["replay"]["shared_bytes_saved"] > 0
    assert report["generated_tokens"] == sum(r.output_tokens for r in trace)


def test_replay_fork_stops_at_the_anchors_prompt(monkeypatch):
    """A replay fork's prefix never passes its anchor's prompt rows,
    though the anchor has decoded rows past them by then.  A stride
    writes only decode rows, so no fork splits a chunk a stride wrote,
    and how many rows each append carried cannot move a footprint."""
    forks = []
    fork = KVCachePool.fork

    def forking(pool, parent, child, prefix_len):
        forks.append((prefix_len, replays[0]._prompt_rows_of[parent],
                      pool.get(parent).length))
        return fork(pool, parent, child, prefix_len)

    replays = []
    init = _CacheReplay.__init__

    def booting(replay, *args, **kwargs):
        init(replay, *args, **kwargs)
        replays[:] = [replay]

    monkeypatch.setattr(KVCachePool, "fork", forking)
    monkeypatch.setattr(_CacheReplay, "__init__", booting)
    simulate_trace(SYSTEM, ARCH, _rag_trace(), 8, replay=CacheReplayConfig(
        num_layers=2, dim=16, prompt_rows=4, calibration_tokens=32,
    ))
    assert forks
    assert all(prefix <= prompt for prefix, prompt, _ in forks)
    # Some anchor had decoded past its prompt when forked from.
    assert any(length > prompt for _, prompt, length in forks)


def test_replay_fork_is_capped_at_a_short_anchor_prompt():
    """A member sharing more rows than its anchor's prompt sampled
    forks the prompt rows only, never the anchor's decoded rows."""
    replay = _CacheReplay(CacheReplayConfig(
        num_layers=2, dim=16, prompt_rows=8, calibration_tokens=32,
    ), SYSTEM, ARCH)
    anchor, member = (
        Request(request_id=rid, arrival_s=0.0, input_tokens=tokens,
                output_tokens=8, prefix_group=0, shared_tokens=tokens)
        for rid, tokens in ((0, 3), (1, 64))
    )
    assert replay.admission_gate(anchor)
    replay.admit(anchor)
    replay.step([0], 4)
    assert replay.admission_gate(member)
    replay.admit(member)
    assert replay.pool.forks == 1
    parent, child = replay.pool.get(0), replay.pool.get(1)
    assert (parent.length, child.length) == (3 + 4, 8)
    for layer in range(2):
        for ours, theirs in zip(parent.read(layer), child.read(layer)):
            assert np.array_equal(ours[:3], theirs[:3])
            assert not np.array_equal(ours[3:7], theirs[3:7])


def test_replay_burst_arena_trace(monkeypatch):
    """``simulate_trace`` shaped like the ``replay-burst-arena``
    workload: saturating waves on one arena replica."""
    trace = [
        dataclasses.replace(r, output_tokens=min(r.output_tokens, 32))
        for r in generate_burst_trace(
            "conversation", num_bursts=3, burst_size=12,
            burst_gap_s=0.25, seed=2,
        )
    ]
    replay = CacheReplayConfig(
        num_layers=2, dim=16, prompt_rows=2, calibration_tokens=32,
        arena=True,
    )
    strides, report = _replay_trace_run(trace, 16, replay, monkeypatch)
    assert strides > 0
    assert report["generated_tokens"] == sum(r.output_tokens for r in trace)


@pytest.mark.parametrize("store", ["arena", "chunked"])
def test_replay_crash_mid_stride_books_the_killed_iteration(
    store, monkeypatch
):
    """A crash, never recovered, lands in the middle of a replay
    stride: the iterations that ended before it and the pool work of
    the one it kills are booked, as the per-iteration loop ran that
    iteration's pool step when it started."""
    trace = [
        dataclasses.replace(r, arrival_s=0.0, output_tokens=40)
        for r in generate_trace("conversation", 4, seed=3)
    ]
    replay = _replay_config(store, "flat")
    config = ClusterConfig(replicas=2, max_batch=4, replay=replay)
    # Replica 0's stride runs to its first retirement; crash halfway.
    calm = _ClusterSim(SYSTEM, ARCH, trace, config, FaultPlan([])).run()
    assert calm.per_replica[0]["steps"] == 40
    crash_at = calm.per_replica[0]["busy_s"] / 2
    cuts = []
    cut = _ClusterSim._cut

    def cutting(sim, replica, now, crash=False):
        if crash:
            cuts.append((replica.stride, replica.owed is not None))
        cut(sim, replica, now, crash)
        if crash:
            cuts[-1] += (replica.steps,)

    monkeypatch.setattr(_ClusterSim, "_cut", cutting)
    strides, report = _replay_cluster(
        trace, config, FaultPlan(crash_forever(0, crash_at)), monkeypatch,
    )
    # The strided run's crash cut a 40-iteration stride that owed its
    # pool work, after some of its iterations and before the rest.
    stride, owed, steps = cuts[0]
    assert (stride, owed) == (40, True)
    assert 0 < steps < 40
    assert report["failovers"] == 2
    assert report["completed"] == len(trace)
    # The crashed replica's replay counted every iteration that began.
    assert report["per_replica"][0]["replayed_tokens"] == (
        2 * replay.prompt_rows + 2 * (steps + 1)
    )
