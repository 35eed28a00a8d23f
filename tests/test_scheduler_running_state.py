"""The scheduler's running resident-set state against a rebuild of it.

``ContinuousBatchScheduler`` keeps the generating list, the context
sum, the ragged flag and the id tuple as state changed only on admit,
chunk-finish, retire and evict.  ``tests/scheduler_oracle.py`` is the
scheduler from before, which rebuilt all four from the resident list
on every plan.  A seeded driver runs both in lockstep (separate but
identical requests, identically seeded admission gates) through
arrivals, gate refusals, evictions from the queue and from residency,
and many retirements, and holds every plan, every retirement and
every request's lifecycle fields ``==``.  It also holds each plan
handed out earlier unchanged by everything that happens after it.
"""

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


def _view(plan):
    """Everything a plan says, by request id."""
    if plan is None:
        return None
    return (
        [r.request_id for r in plan.admitted],
        [r.request_id for r in plan.resident],
        plan.mean_context,
        plan.ragged,
        plan.prefill_tokens,
        plan.resident_ids,
    )


def _states(requests):
    return [tuple(getattr(r, name) for name in FIELDS) for r in requests]


def _held(scheduler):
    return scheduler.queued + scheduler.resident


def _drive(prefill_chunk, seed, steps=600, max_batch=8):
    rng = np.random.default_rng(seed)
    new = ContinuousBatchScheduler(
        max_batch, prefill_chunk=prefill_chunk,
        admission_gate=_SeededGate(seed),
    )
    old = scheduler_oracle.RebuildScheduler(
        max_batch, prefill_chunk=prefill_chunk,
        admission_gate=_SeededGate(seed),
    )
    handed_out = []  # (plan, its view when it was handed out)
    counts = dict(
        plans=0, ragged=0, retired=0, evicted_queued=0, evicted_resident=0,
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
                output_tokens=int(rng.integers(1, 12)),
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
        new_plan, old_plan = new.plan_iteration(now), old.plan_iteration(now)
        assert _view(new_plan) == _view(old_plan)
        assert new.gate_refusals == old.gate_refusals
        if new_plan is not None:
            counts["plans"] += 1
            counts["ragged"] += new_plan.ragged
            handed_out.append((new_plan, _view(new_plan)))
            now += 0.25
            new_done = new.complete_iteration(now)
            old_done = old.complete_iteration(now)
            assert _states(new_done) == _states(old_done)
            counts["retired"] += len(new_done)
        else:
            now += 0.25
        assert _states(_held(new)) == _states(_held(old))
        for plan, view in handed_out[-50:]:
            assert _view(plan) == view
    assert _states(new.finished) == _states(old.finished)
    counts["gate_refusals"] = new.gate_refusals
    return counts


@pytest.mark.parametrize("prefill_chunk", [None, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_running_state_equals_rebuild(prefill_chunk, seed):
    counts = _drive(prefill_chunk, seed)
    # The driver reached every event that updates the running state.
    assert counts["plans"] > 300
    assert 0 < counts["ragged"] < counts["plans"]
    assert counts["retired"] > 150
    assert counts["gate_refusals"] > 0
    assert counts["evicted_queued"] > 0
    assert counts["evicted_resident"] > 0
