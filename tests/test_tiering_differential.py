"""The tiered store against its former self (``tests/tiering_oracle.py``).

The production store owns its device frames and keeps one page table;
the oracle is the store as it was before, with a second page table
inside each eviction policy.  Driven by the same notifications, the two
must return the same values and report ``==`` summaries after every
call, under both policies — for ``hypothesis`` notification sequences
and for the notification streams a tiered serving replay produces.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine
from repro.data.traces import generate_longcontext_trace
from repro.engine import EVICTION_POLICIES, TieredKVStore
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.simulator import CacheReplayConfig, simulate_trace

import tiering_oracle

pytestmark = pytest.mark.tiering


def replay(calls, **store_args):
    """Feed ``calls`` to both stores, comparing after every one."""
    new = TieredKVStore(**store_args)
    old = tiering_oracle.TieredKVStore(**store_args)
    for step, (method, args) in enumerate(calls):
        got = getattr(new, method)(*args)
        want = getattr(old, method)(*args)
        assert got == want, (step, method, args)
        assert new.summary() == old.summary(), (step, method, args)
        new.check_invariants()
    return new


notification = st.one_of(
    st.tuples(
        st.just("record_append"),
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 2),
            st.one_of(
                st.integers(-5, 3000),
                st.floats(0.0, 3000.0, allow_nan=False),
            ),
        ),
    ),
    st.tuples(
        st.just("record_read"),
        st.tuples(st.integers(0, 5), st.integers(0, 2)),
    ),
    st.tuples(st.just("release"), st.tuples(st.integers(0, 5))),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    calls=st.lists(notification, max_size=60),
    policy=st.sampled_from(EVICTION_POLICIES),
    budget=st.floats(100.0, 20000.0, allow_nan=False),
    page_bytes=st.sampled_from([256, 1024]),
    prefetch=st.sampled_from([0, 1, 3]),
)
def test_fuzzed_notifications_match_the_oracle(
    calls, policy, budget, page_bytes, prefetch
):
    replay(
        calls,
        device_budget_bytes=budget,
        page_bytes=page_bytes,
        policy=policy,
        prefetch_pages=prefetch,
    )


def recorded_replay(policy, monkeypatch):
    """The golden ``replay_tiered_longctx`` configuration of
    ``tests/test_serving.py``, under ``policy``: the notifications its
    pool sends the store, and the store's constructor arguments."""
    calls, store_args = [], {}

    class Recorder(TieredKVStore):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            store_args.update(kwargs)

    for method in ("record_append", "record_read", "release"):
        def recorded(self, *args, _method=method):
            calls.append((_method, args))
            return getattr(TieredKVStore, _method)(self, *args)

        setattr(Recorder, method, recorded)
    monkeypatch.setattr(repro.engine, "TieredKVStore", Recorder)
    trace = generate_longcontext_trace(
        "burstgpt", num_requests=4, input_tokens=64, output_tokens=48,
        seed=0,
    )
    small = CacheReplayConfig(num_layers=1, dim=16, prompt_rows=4)
    report = simulate_trace(
        get_system("oaken-hbm"), get_model("llama2-13b").arch, trace, 4,
        replay=dataclasses.replace(
            small, device_budget_mb=0.004, charge_transfer_cycles=True,
            eviction=policy,
        ),
    )
    return calls, store_args, report


@pytest.mark.parametrize("policy", EVICTION_POLICIES)
def test_recorded_replay_matches_the_oracle(policy, monkeypatch):
    calls, store_args, report = recorded_replay(policy, monkeypatch)
    assert {method for method, _ in calls} == {
        "record_append", "record_read", "release",
    }
    store = replay(calls, **store_args)
    assert store.evictions > 0 and store.misses > 0
    assert report.replay["tier_evictions"] == store.evictions
