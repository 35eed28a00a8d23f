"""Serving-level tiering contracts: spill replay and cluster behavior.

The engine-level gate (``test_pool_model.py``) proves reads are
bit-exact across tiers; this file proves the *serving* claims — a
longer-than-device-budget trace completes with evict-and-spill instead
of being rejected, seeded replays are bit-identical rerun-to-rerun for
both eviction policies, and the cluster's exactly-once contract
survives fault injection with tiering enabled.
"""

import pytest

from repro.data.traces import TraceRequest, generate_longcontext_trace
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.cluster import ClusterConfig, simulate_cluster
from repro.serving.faults import generate_fault_plan
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.request import Request
from repro.serving.simulator import CacheReplayConfig, simulate_trace

pytestmark = pytest.mark.tiering

ARCH = get_model("llama2-13b").arch
SYSTEM = get_system("oaken-hbm")

# Few sequences, long decodes: the spill shape.  Small enough to keep
# the token-level replay fast, long enough that the combined history
# dwarfs the device budgets used below.
TRACE = generate_longcontext_trace(
    num_requests=3, input_tokens=48, output_tokens=160, seed=4
)
# Four closed long decodes: the committed prefetch claim's trace.
CLOSED = [TraceRequest(arrival_s=0.0, input_tokens=32, output_tokens=96)] * 4


def run_replay(device_budget_mb=None, eviction="lru", trace=TRACE,
               max_batch=4, charge_transfer_cycles=False, prefetch_pages=1):
    return simulate_trace(
        SYSTEM, ARCH, trace, max_batch,
        replay=CacheReplayConfig(
            device_budget_mb=device_budget_mb, eviction=eviction,
            charge_transfer_cycles=charge_transfer_cycles,
            prefetch_pages=prefetch_pages,
        ),
    )


class TestLongContextTrace:
    def test_reproducible_and_sorted(self):
        a = generate_longcontext_trace(num_requests=5, seed=9)
        b = generate_longcontext_trace(num_requests=5, seed=9)
        assert a == b
        assert len(a) == 5
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)

    def test_decode_dominates(self):
        trace = generate_longcontext_trace(num_requests=8, seed=0)
        for request in trace:
            assert request.output_tokens > request.input_tokens

    def test_output_floor(self):
        trace = generate_longcontext_trace(
            num_requests=16, output_tokens=600, seed=2
        )
        assert min(r.output_tokens for r in trace) >= 300

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown trace"):
            generate_longcontext_trace("alibaba")


class TestSpillReplay:
    @pytest.mark.parametrize(
        "trace, speedup_prefetch",
        [(TRACE, 1.2007995190986676), (CLOSED, 1.1788717370504744)],
        ids=["longctx", "closed"],
    )
    def test_completes_longer_than_budget_trace(self, trace,
                                                speedup_prefetch):
        # The headline capability: at 25% of the measured working set
        # the replay still generates every token the untiered run does,
        # absorbing the pressure as spill traffic instead of refusing
        # admissions.
        flat = run_replay(trace=trace)
        working_set = flat.replay["peak_pool_bytes"]
        budget_mb = 0.25 * working_set / 2.0**20
        tiered = run_replay(device_budget_mb=budget_mb, trace=trace)
        assert not tiered.oom
        assert tiered.generated_tokens == flat.generated_tokens
        detail = tiered.replay
        assert detail["tier_evictions"] > 0
        assert detail["tier_misses"] > 0
        assert detail["tier_spilled_bytes"] > 0
        assert detail["tier_transfer_cycles"] > 0
        assert detail["tier_peak_device_bytes"] <= (
            detail["tier_device_capacity_bytes"]
        )
        # Evict-and-spill admission: the gate never refuses.
        assert detail["gate_refusals"] == 0
        # Sequential prefetch merges runs of spilled pages into one
        # burst each, so promoting page by page costs more cycles.
        per_page = run_replay(
            device_budget_mb=budget_mb, trace=trace, prefetch_pages=0
        )
        assert per_page.replay["tier_transfer_cycles"] / detail[
            "tier_transfer_cycles"
        ] == pytest.approx(speedup_prefetch, rel=1e-9)

    @pytest.mark.parametrize("eviction", ("lru", "plru"))
    def test_seeded_reruns_bit_identical(self, eviction):
        first = run_replay(device_budget_mb=0.03, eviction=eviction)
        second = run_replay(device_budget_mb=0.03, eviction=eviction)
        assert first.replay == second.replay
        assert first.__dict__ == second.__dict__
        assert first.replay["eviction"] == eviction

    def test_tighter_budget_costs_more_transfer(self):
        loose = run_replay(device_budget_mb=0.10)
        tight = run_replay(device_budget_mb=0.02)
        assert tight.generated_tokens == loose.generated_tokens
        assert (
            tight.replay["tier_transfer_cycles"]
            > loose.replay["tier_transfer_cycles"]
        )

    def test_charged_transfers_slow_the_makespan(self):
        # charge_transfer_cycles folds modeled transfer time into
        # iteration time; with real spill traffic the charged run must
        # be strictly slower, and tokens must be untouched (charging
        # reprices time, never changes what the replay computes).
        free = run_replay(device_budget_mb=0.03)
        charged = run_replay(
            device_budget_mb=0.03, charge_transfer_cycles=True
        )
        assert charged.generated_tokens == free.generated_tokens
        assert charged.replay["tier_transfer_cycles"] > 0
        assert charged.total_time_s > free.total_time_s
        # The charge equals the cycle counter at the transfer clock.
        from repro.engine.tiering import DEFAULT_CLOCK_HZ

        expected = (
            charged.replay["tier_transfer_cycles"] / DEFAULT_CLOCK_HZ
        )
        assert charged.total_time_s - free.total_time_s == pytest.approx(
            expected, rel=1e-9
        )

    def test_charged_makespan_monotone_in_spill_pressure(self):
        # More spill pressure (tighter device budget) means more
        # transfer cycles charged, so the charged makespan can only
        # grow as the budget shrinks.
        budgets = (0.10, 0.05, 0.02)
        makespans = [
            run_replay(
                device_budget_mb=budget, charge_transfer_cycles=True
            ).total_time_s
            for budget in budgets
        ]
        assert makespans == sorted(makespans)
        # And charging is never faster than not charging.
        for budget, charged_makespan in zip(budgets, makespans):
            free = run_replay(device_budget_mb=budget)
            assert charged_makespan >= free.total_time_s

    def test_charge_flag_noop_without_tiering(self):
        free = run_replay()
        charged = run_replay(charge_transfer_cycles=True)
        assert charged.__dict__ == free.__dict__

    def test_untiered_gate_refusals_counted(self):
        # The counter that separates reject/queue backpressure from
        # evict-and-spill: a refusing gate increments it, and it rides
        # the replay report (zero in the tiered runs above).
        scheduler = ContinuousBatchScheduler(
            4, admission_gate=lambda request: False
        )
        scheduler.submit(Request(
            request_id=0, arrival_s=0.0, input_tokens=4, output_tokens=4,
        ))
        assert scheduler.plan_iteration(0.0) is None
        assert scheduler.gate_refusals == 1


@pytest.mark.cluster
class TestClusterTiering:
    CONFIG = dict(replicas=2, max_batch=4)

    def run(self, faults=None, eviction="lru",
            charge_transfer_cycles=False):
        return simulate_cluster(
            SYSTEM, ARCH, TRACE,
            ClusterConfig(
                replay=CacheReplayConfig(
                    device_budget_mb=0.02, eviction=eviction,
                    charge_transfer_cycles=charge_transfer_cycles,
                ),
                **self.CONFIG,
            ),
            faults,
        )

    def test_exactly_once_under_faults(self):
        faults = generate_fault_plan(2, 30.0, seed=1)
        report = self.run(faults)
        assert report.completed == len(TRACE)
        assert report.lost == 0
        assert report.tier_evictions > 0
        assert report.tier_transfer_cycles > 0

    def test_seeded_rerun_bit_identical(self):
        faults = generate_fault_plan(2, 30.0, seed=1)
        assert self.run(faults).as_dict() == self.run(faults).as_dict()

    def test_charged_transfers_slow_the_cluster(self):
        free = self.run()
        charged = self.run(charge_transfer_cycles=True)
        assert charged.completed == free.completed
        assert charged.generated_tokens == free.generated_tokens
        assert charged.tier_transfer_cycles > 0
        assert charged.total_time_s > free.total_time_s

    def test_replica_telemetry_sums_to_report(self):
        report = self.run(eviction="plru")
        assert report.tier_evictions == sum(
            int(row.get("tier_evictions", 0.0))
            for row in report.per_replica
        )
        assert report.completed == len(TRACE)
