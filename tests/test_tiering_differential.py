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


# Deterministic edge cases of a page entering a full device tier, each
# replayed against the oracle under both policies, each asserting that
# its scenario really happened.  Pages are 256 bytes.

PAGE = 256


def summaries(calls, **store_args):
    """``replay`` ``calls``, then the store's summary after each one."""
    replay(calls, **store_args)
    store, out = TieredKVStore(**store_args), []
    for method, args in calls:
        getattr(store, method)(*args)
        out.append(store.summary())
    return out


@pytest.mark.parametrize("policy", EVICTION_POLICIES)
def test_a_promotion_demotes_a_page_the_read_has_yet_to_reach(policy):
    """Three pages of one stream on a two-frame tier: the read's first
    promotion takes a frame from a page further along the same stream,
    which then misses in the same read."""
    calls = [("record_append", (0, 0, 3 * PAGE)), ("record_read", (0, 0))]
    before, after = summaries(
        calls, device_budget_bytes=2 * PAGE, page_bytes=PAGE,
        policy=policy, prefetch_pages=0,
    )
    assert before["host_pages"] == 1 and before["device_pages"] == 2
    # Without prefetch each miss promotes one page: more misses than
    # host pages at the start means a page resident then missed.
    assert after["misses"] - before["misses"] == 3
    assert after["hits"] == before["hits"]


@pytest.mark.parametrize("policy", EVICTION_POLICIES)
def test_a_partly_filled_tail_page_spills_at_its_fill(policy):
    """A one-frame tier: a second stream's page demotes the first
    stream's 100-byte tail, charged 100 bytes; appending to that
    stream again promotes the tail back and demotes the other."""
    calls = [
        ("record_append", (0, 0, 100)),
        ("record_append", (1, 0, 10)),
        ("record_append", (0, 0, 50)),
    ]
    args = dict(device_budget_bytes=PAGE, page_bytes=PAGE, policy=policy)
    _, spill, back = summaries(calls, **args)
    price = TieredKVStore(**args).transfer.transfer_cycles
    assert spill["evictions"] == 1 and spill["spilled_bytes"] == 100
    assert spill["transfer_cycles"] == price(100, PAGE)
    assert back["promotions"] == 1 and back["promoted_bytes"] == 100
    assert back["spilled_bytes"] == 100 + 10


@pytest.mark.parametrize("frames", [3, 5])
@pytest.mark.parametrize("policy", EVICTION_POLICIES)
def test_a_non_power_of_two_tier(policy, frames, monkeypatch):
    """PLRU pads the frame tree to a power of two; its victim walks
    land on padding leaves and must step off them."""
    touched = []
    plru_touch = TieredKVStore._plru_touch

    def recording(self, frame):
        touched.append(frame)
        plru_touch(self, frame)

    monkeypatch.setattr(TieredKVStore, "_plru_touch", recording)
    calls = []
    for round_ in range(4):
        for seq in range(3):
            calls.append(("record_append", (seq, 0, PAGE + 40 * round_)))
            calls.append(("record_read", ((seq + round_) % 3, 0)))
    *_, last = summaries(
        calls, device_budget_bytes=frames * PAGE, page_bytes=PAGE,
        policy=policy, prefetch_pages=1,
    )
    assert last["device_capacity_bytes"] == frames * PAGE
    assert last["evictions"] > 0 and last["misses"] > 0
    if policy == "plru":
        assert any(frame >= frames for frame in touched)


@pytest.mark.parametrize("policy", EVICTION_POLICIES)
def test_a_release_then_promotions(policy):
    """After a release the read's promotions take freed frames (no
    demotion); once the tier is full again they take victims'."""
    calls = [
        ("record_append", (0, 0, 4 * PAGE)),  # fills the four frames
        ("record_append", (1, 0, 2 * PAGE)),  # demotes two of seq 0
        ("release", (1,)),                    # frees two frames
        ("record_read", (0, 0)),              # promotes into them
        ("record_append", (2, 0, 2 * PAGE)),  # demotes two again
        ("record_read", (0, 0)),              # promotes by hand-off
    ]
    steps = summaries(
        calls, device_budget_bytes=4 * PAGE, page_bytes=PAGE,
        policy=policy, prefetch_pages=0,
    )
    released, freed_read, full, handed_read = steps[2:]
    assert released["device_pages"] == 2 and released["host_pages"] == 2
    assert freed_read["promotions"] - released["promotions"] == 2
    assert freed_read["evictions"] == released["evictions"]
    assert full["device_pages"] == 4 and full["host_pages"] == 2
    assert handed_read["promotions"] > full["promotions"]
    assert handed_read["evictions"] > full["evictions"]
    assert handed_read["device_pages"] == 4
