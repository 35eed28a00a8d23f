"""The scheduler's running resident-set state against a rebuild of it.

``ContinuousBatchScheduler`` keeps the generating list, the context
sum, the ragged flag and the id tuple as state changed only on admit,
retire and evict.  ``tests/scheduler_oracle.py`` is the
scheduler from before, which rebuilt all four from the resident list
on every plan.  A seeded driver runs both in lockstep (separate but
identical requests, identically seeded admission gates) through
arrivals, gate refusals, evictions from the queue and from residency,
and many retirements, and holds every plan, every retirement and
every request's lifecycle fields ``==``.  It also holds each plan
handed out earlier unchanged by everything that happens after it.

The stride walks also advance a batch that cannot change by a drawn
number of iterations in one ``complete_iteration``, against the
oracle's per-iteration :meth:`~scheduler_oracle.RebuildScheduler.advance`
(k single completions with the plans between them), as the cluster
loop fast-forwards an analytic replica, and hold ``repeat_plan``
against a real plan of the unchanged batch.
"""

import itertools

import numpy as np
import pytest

from repro.serving.request import Request
from repro.serving.scheduler import ContinuousBatchScheduler

import scheduler_oracle

FIELDS = (
    "request_id", "phase", "generated", "start_s", "first_token_s",
    "finish_s",
)


class _SeededGate:
    """Refuses about one consultation in five, on a seeded pattern."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def __call__(self, request: Request) -> bool:
        return self.rng.random() >= 0.2


class _Blackout:
    """A gate whose answer changes only when the driver flips it, as a
    replica's admission blackout opens and closes between events."""

    def __init__(self):
        self.closed = False

    def __call__(self, request: Request) -> bool:
        return not self.closed


def _view(plan):
    """Everything a plan says, by request id."""
    if plan is None:
        return None
    return (
        [r.request_id for r in plan.admitted],
        [r.request_id for r in plan.resident],
        plan.mean_context,
        plan.ragged,
        plan.resident_ids,
    )


def _states(requests):
    return [tuple(getattr(r, name) for name in FIELDS) for r in requests]


def _held(scheduler):
    return scheduler.queued + scheduler.resident


def _can_stride(scheduler, now):
    """Whether nothing but the caller could change the batch before its
    first retirement: no queued request can arrive into a free slot
    meanwhile."""
    queued = scheduler.queued
    return (
        not queued
        or len(scheduler.resident) >= scheduler.max_batch
        or queued[0].arrival_s <= now
    )


def _drive(seed, steps=600, max_batch=8, strides=False):
    rng = np.random.default_rng(seed)
    # A stride needs a gate that keeps its answer between events.
    gates = (
        (_Blackout(),) * 2 if strides
        else (_SeededGate(seed), _SeededGate(seed))
    )
    new = ContinuousBatchScheduler(max_batch, admission_gate=gates[0])
    old = scheduler_oracle.RebuildScheduler(
        max_batch, admission_gate=gates[1]
    )
    handed_out = []  # (plan, its view when it was handed out)
    counts = dict(
        plans=0, ragged=0, retired=0, evicted_queued=0, evicted_resident=0,
        strides=0, stride_refusals=0, admitting_strides=0,
    )
    next_id = 0
    now = 0.0
    for _ in range(steps):
        for _ in range(int(rng.poisson(0.6))):
            fields = dict(
                request_id=next_id,
                arrival_s=now + float(rng.choice([0.0, 0.0, 0.5, 2.0])),
                # Mostly one band of prompt lengths, so the ragged
                # flag turns both ways.
                input_tokens=int(
                    rng.integers(1, 400) if rng.random() < 0.2
                    else rng.integers(150, 200)
                ),
                # Longer replies in the stride walks leave room for
                # runs between retirements.
                output_tokens=int(rng.integers(1, 40 if strides else 12)),
            )
            new.submit(Request(**fields))
            old.submit(Request(**fields))
            next_id += 1
        if rng.random() < 0.15:
            held = _held(old)
            if held and rng.random() < 0.9:
                victim = held[int(rng.integers(len(held)))]
                in_queue = victim in old.queued
                counts["evicted_queued" if in_queue else
                       "evicted_resident"] += 1
                victim_id = victim.request_id
            else:
                victim_id = next_id + 1000  # held by neither
            new_gone, old_gone = new.evict(victim_id), old.evict(victim_id)
            assert (new_gone is None) == (old_gone is None)
        if strides and rng.random() < 0.1:
            gates[0].closed = not gates[0].closed
        new_plan, old_plan = new.plan_iteration(now), old.plan_iteration(now)
        assert _view(new_plan) == _view(old_plan)
        assert new.gate_refusals == old.gate_refusals
        if new_plan is not None:
            counts["plans"] += 1
            counts["ragged"] += new_plan.ragged
            handed_out.append((new_plan, _view(new_plan)))
            stride = 1
            if strides and _can_stride(new, now):
                stride = int(rng.integers(1, new.steps_to_retire() + 1))
            ends = list(itertools.accumulate([0.25] * stride, initial=now))
            refusals = new.gate_refusals
            new_done = new.complete_iteration(ends[-1], stride, ends[1])
            old_done, between = old.advance(ends[1:])
            assert _states(new_done) == _states(old_done)
            assert new.gate_refusals == old.gate_refusals
            for offset, plan in enumerate(between, 1):
                # The plans a stride skips admit nothing, and price the
                # mean context one higher per iteration.  (Admissions
                # join the generating batch at once, so a stride may
                # start at the plan that admits them.)
                assert plan.admitted == []
                assert plan.resident_ids == new_plan.resident_ids
                assert plan.ragged == new_plan.ragged
                assert int(plan.mean_context) == (
                    int(new_plan.mean_context) + offset
                )
            now = ends[-1]
            if stride > 1 and not new_done and rng.random() < 0.3:
                # The plan a crash kills at the end of a stride's
                # iteration, counted without planning.
                new.repeat_plan()
                assert _view(old.plan_iteration(now))[0] == []
                assert new.gate_refusals == old.gate_refusals
            counts["strides"] += stride > 1
            counts["admitting_strides"] += stride > 1 and bool(
                new_plan.admitted
            )
            counts["stride_refusals"] += new.gate_refusals - refusals
            counts["retired"] += len(new_done)
        else:
            now += 0.25
        assert _states(_held(new)) == _states(_held(old))
        for plan, view in handed_out[-50:]:
            assert _view(plan) == view
    assert _states(new.finished) == _states(old.finished)
    counts["gate_refusals"] = new.gate_refusals
    return counts


# A batch of 3 leaves more requests waiting in the queue, and evicts
# more of them from there, than a batch of 8.
BATCHES = [8, 3]


@pytest.mark.parametrize("max_batch", BATCHES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_running_state_equals_rebuild(seed, max_batch):
    counts = _drive(seed, max_batch=max_batch)
    # The driver reached every event that updates the running state.
    assert counts["plans"] > 300
    assert 0 < counts["ragged"] < counts["plans"]
    assert counts["retired"] > 150
    assert counts["gate_refusals"] > 0
    assert counts["evicted_queued"] > 0
    assert counts["evicted_resident"] > 0


@pytest.mark.cluster
@pytest.mark.parametrize("max_batch", BATCHES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stride_equals_single_completions(seed, max_batch):
    counts = _drive(seed, max_batch=max_batch, strides=True)
    # The driver took many strides, some over a refusing gate, and
    # some from the plan that admitted.
    assert counts["strides"] > 30
    assert counts["stride_refusals"] > 0
    assert counts["admitting_strides"] > 0
    assert counts["retired"] > 100
    assert counts["evicted_queued"] > 0
    assert counts["evicted_resident"] > 0
