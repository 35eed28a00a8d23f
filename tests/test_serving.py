"""Unit tests for the scheduler and trace-driven simulator."""

import dataclasses

import numpy as np
import pytest

from repro.data.traces import (
    TraceRequest,
    generate_burst_trace,
    generate_longcontext_trace,
    generate_multiturn_trace,
    generate_rag_trace,
    generate_trace,
)
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.cluster import (
    ClusterConfig,
    _ClusterSim,
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
from repro.serving.request import Request, RequestPhase
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.simulator import (
    CacheReplayConfig,
    iteration_time_s,
    simulate_synthesized_batches,
    simulate_trace,
)

ARCH = get_model("llama2-13b").arch


def make_request(i, arrival=0.0, inputs=64, outputs=8):
    return Request(
        request_id=i, arrival_s=arrival,
        input_tokens=inputs, output_tokens=outputs,
    )


class TestRequest:
    def test_context_length_grows(self):
        request = make_request(0)
        assert request.context_length == 64
        request.generated = 5
        assert request.context_length == 69

    def test_latency_requires_finish(self):
        with pytest.raises(RuntimeError):
            make_request(0).latency_s()

    def test_latency_value(self):
        request = make_request(0, arrival=1.0)
        request.finish_s = 3.5
        assert request.latency_s() == pytest.approx(2.5)


class TestScheduler:
    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(0)

    @pytest.mark.parametrize("max_batch", [2.5, float("nan")])
    def test_a_fractional_batch_is_refused(self, max_batch):
        """The cap is a whole number of slots.  A plan counts free slots
        down to 0, which 2.5 steps past (2.5, 1.5, 0.5, -0.5), so one
        plan admitted every queued request; NaN passed ``< 1`` and did
        the same."""
        with pytest.raises(TypeError):
            ContinuousBatchScheduler(max_batch)

    def test_a_numpy_integer_batch_is_a_cap(self):
        scheduler = ContinuousBatchScheduler(np.int64(3))
        for i in range(6):
            scheduler.submit(make_request(i))
        assert len(scheduler.plan_iteration(0.0).admitted) == 3

    def test_admission_respects_capacity(self):
        scheduler = ContinuousBatchScheduler(2)
        for i in range(5):
            scheduler.submit(make_request(i))
        plan = scheduler.plan_iteration(0.0)
        assert len(plan.admitted) == 2
        assert scheduler.pending == 3

    def test_admission_respects_arrival_time(self):
        scheduler = ContinuousBatchScheduler(4)
        scheduler.submit(make_request(0, arrival=0.0))
        scheduler.submit(make_request(1, arrival=10.0))
        plan = scheduler.plan_iteration(0.0)
        assert len(plan.admitted) == 1

    def test_plan_none_before_any_arrival(self):
        scheduler = ContinuousBatchScheduler(4)
        scheduler.submit(make_request(0, arrival=5.0))
        assert scheduler.plan_iteration(0.0) is None
        assert scheduler.next_arrival() == 5.0

    def test_completion_retires_and_refills(self):
        scheduler = ContinuousBatchScheduler(1)
        scheduler.submit(make_request(0, outputs=1))
        scheduler.submit(make_request(1, outputs=1))
        plan = scheduler.plan_iteration(0.0)
        assert plan.resident[0].request_id == 0
        retired = scheduler.complete_iteration(1.0)
        assert len(retired) == 1
        assert retired[0].phase == RequestPhase.FINISHED
        plan = scheduler.plan_iteration(1.0)
        assert plan.resident[0].request_id == 1

    def test_fifo_order(self):
        scheduler = ContinuousBatchScheduler(2)
        for i in range(3):
            scheduler.submit(make_request(i))
        plan = scheduler.plan_iteration(0.0)
        assert [r.request_id for r in plan.admitted] == [0, 1]

    def test_ragged_flag(self):
        scheduler = ContinuousBatchScheduler(2)
        scheduler.submit(make_request(0, inputs=64))
        scheduler.submit(make_request(1, inputs=512))
        plan = scheduler.plan_iteration(0.0)
        assert plan.ragged

    def test_uniform_prompts_not_ragged(self):
        scheduler = ContinuousBatchScheduler(2)
        scheduler.submit(make_request(0, inputs=100))
        scheduler.submit(make_request(1, inputs=110))
        plan = scheduler.plan_iteration(0.0)
        assert not plan.ragged

    def test_all_requests_eventually_finish(self):
        scheduler = ContinuousBatchScheduler(3)
        for i in range(7):
            scheduler.submit(make_request(i, outputs=2))
        now = 0.0
        while scheduler.has_work:
            plan = scheduler.plan_iteration(now)
            assert plan is not None
            now += 0.1
            scheduler.complete_iteration(now)
        assert len(scheduler.finished) == 7
        generated = sum(r.generated for r in scheduler.finished)
        assert generated == 14

    def test_admission_generates_in_its_own_iteration(self):
        scheduler = ContinuousBatchScheduler(2)
        request = make_request(0, inputs=250, outputs=4)
        scheduler.submit(request)
        # The whole prompt prefills in the admitting iteration, which
        # also generates the request's first token.
        plan = scheduler.plan_iteration(0.0)
        assert plan.admitted == plan.resident == [request]
        assert plan.mean_context == 250
        scheduler.complete_iteration(0.5)
        assert request.phase == RequestPhase.GENERATION
        assert request.generated == 1
        assert request.first_token_s == 0.5

    def test_resident_generates_while_another_is_admitted(self):
        scheduler = ContinuousBatchScheduler(2)
        first = make_request(0, inputs=10, outputs=8)
        scheduler.submit(first)
        scheduler.plan_iteration(0.0)
        scheduler.complete_iteration(0.5)
        second = make_request(1, arrival=0.5, inputs=500)
        scheduler.submit(second)
        plan = scheduler.plan_iteration(1.0)
        assert plan.admitted == [second]
        assert plan.resident_ids == (0, 1)
        assert plan.mean_context == (11 + 500) / 2
        scheduler.complete_iteration(1.5)
        assert (first.generated, second.generated) == (2, 1)

    def test_freed_slot_admits_the_queue_head(self):
        scheduler = ContinuousBatchScheduler(2)
        for i, outputs in enumerate([1, 3, 2, 2]):
            scheduler.submit(make_request(i, outputs=outputs))
        plan = scheduler.plan_iteration(0.0)
        assert plan.resident_ids == (0, 1)
        assert [r.request_id for r in scheduler.complete_iteration(1.0)] == [0]
        plan = scheduler.plan_iteration(1.0)
        assert [r.request_id for r in plan.admitted] == [2]
        assert plan.resident_ids == (1, 2)
        assert [r.request_id for r in scheduler.queued] == [3]

    def test_evicted_resident_frees_its_slot(self):
        scheduler = ContinuousBatchScheduler(2)
        for i, inputs in enumerate([64, 80, 96]):
            scheduler.submit(make_request(i, inputs=inputs))
        scheduler.plan_iteration(0.0)
        scheduler.complete_iteration(1.0)
        assert scheduler.evict(0).request_id == 0
        plan = scheduler.plan_iteration(1.0)
        assert [r.request_id for r in plan.admitted] == [2]
        assert plan.resident_ids == (1, 2)
        assert plan.mean_context == (81 + 96) / 2

    def test_evict_of_a_request_it_does_not_hold(self):
        scheduler = ContinuousBatchScheduler(1)
        scheduler.submit(make_request(0, outputs=1))
        scheduler.plan_iteration(0.0)
        scheduler.complete_iteration(1.0)
        assert scheduler.evict(0) is None  # finished
        assert scheduler.evict(7) is None  # never submitted
        assert [r.request_id for r in scheduler.finished] == [0]

    @pytest.mark.parametrize("max_batch", [1, 3, 8])
    def test_every_request_generates_its_outputs(self, max_batch):
        scheduler = ContinuousBatchScheduler(max_batch)
        requests = [
            make_request(
                i, arrival=0.3 * i, inputs=32 + 40 * (i % 5),
                outputs=1 + (7 * i) % 6,
            )
            for i in range(12)
        ]
        for request in requests:
            scheduler.submit(request)
        now = 0.0
        while scheduler.has_work:
            plan = scheduler.plan_iteration(now)
            now += 0.1
            if plan is None:
                continue
            assert len(plan.resident) <= max_batch
            scheduler.complete_iteration(now)
        assert len(scheduler.finished) == 12
        for request in requests:
            assert request.phase == RequestPhase.FINISHED
            assert request.generated == request.output_tokens
            assert request.arrival_s <= request.start_s
            assert request.start_s < request.first_token_s
            assert request.first_token_s <= request.finish_s



class TestStridePricing:
    """``iteration_time_s(..., steps=k)`` prices k iterations of one
    plan as k one-step pricings of the plans the per-iteration loop
    makes: only the first admits, and the mean context rises by one
    per step."""

    STEPS = 7

    def _scheduler(self):
        scheduler = ContinuousBatchScheduler(4)
        # Prompts spread past a quarter of the longest: a ragged batch.
        for i, inputs in enumerate([96, 300, 512]):
            scheduler.submit(make_request(i, inputs=inputs, outputs=40))
        return scheduler

    @pytest.mark.parametrize("name", ["tender", "oaken-hbm"])
    def test_steps_equal_one_step_pricings(self, name):
        system = get_system(name)
        padded = system.profile.ragged_batch_efficiency < 1.0
        assert padded == (name == "tender")
        strided = self._scheduler()
        plan = strided.plan_iteration(0.0)
        assert len(plan.admitted) == 3 and plan.ragged
        assert strided.steps_to_retire() >= self.STEPS
        times = iteration_time_s(system, ARCH, plan, self.STEPS)

        single = self._scheduler()
        expected = []
        for step in range(self.STEPS):
            each = single.plan_iteration(float(step))
            assert len(each.admitted) == (3 if step == 0 else 0)
            assert each.mean_context == plan.mean_context + step
            expected.append(iteration_time_s(system, ARCH, each))
            single.complete_iteration(step + 1.0)
        assert times.tolist() == expected
        # The first step pays the admissions' prefill.
        assert times[0] > times[1] > 0.0


class TestTraceSimulation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate_trace(get_system("vllm"), ARCH, [], 16)

    def test_unsorted_trace_rejected(self):
        trace = [
            TraceRequest(arrival_s=2.0, input_tokens=64,
                         output_tokens=8),
            TraceRequest(arrival_s=1.0, input_tokens=64,
                         output_tokens=8),
        ]
        with pytest.raises(ValueError) as excinfo:
            simulate_trace(get_system("vllm"), ARCH, trace, 16)
        message = str(excinfo.value)
        assert "sorted by arrival" in message
        assert "request 1" in message  # names the offending index

    @pytest.mark.parametrize("bad, match", [
        (dict(output_tokens=0), "output_tokens must be >= 1"),
        (dict(output_tokens=-3), "output_tokens must be >= 1"),
        (dict(arrival_s=float("nan")), "arrival_s must be finite"),
        (dict(arrival_s=float("inf")), "arrival_s must be finite"),
        (dict(input_tokens=0), "input_tokens must be >= 1"),
        (dict(input_tokens=-5), "input_tokens must be >= 1"),
        (dict(shared_tokens=200), r"shared_tokens must lie in \[0, "),
        (dict(shared_tokens=-1), r"shared_tokens must lie in \[0, "),
    ])
    @pytest.mark.parametrize("entry", ["simulate_trace", "simulate_cluster"])
    def test_malformed_request_rejected(self, bad, match, entry):
        good = dict(arrival_s=0.0, input_tokens=100, output_tokens=4)
        trace = [TraceRequest(**good), TraceRequest(**{**good, **bad})]
        system = get_system("oaken-hbm")
        with pytest.raises(ValueError, match=f"request 1: {match}"):
            if entry == "simulate_trace":
                simulate_trace(system, ARCH, trace, 4)
            else:
                simulate_cluster(system, ARCH, trace)

    def test_equal_arrival_times_accepted(self):
        trace = [
            TraceRequest(arrival_s=1.0, input_tokens=64,
                         output_tokens=8)
            for _ in range(3)
        ]
        report = simulate_trace(get_system("vllm"), ARCH, trace, 16)
        assert report.generated_tokens == 24

    def test_all_tokens_generated(self):
        trace = [
            TraceRequest(arrival_s=0.0, input_tokens=128,
                         output_tokens=16)
            for _ in range(8)
        ]
        report = simulate_trace(get_system("oaken-lpddr"), ARCH, trace, 4)
        assert report.generated_tokens == 8 * 16
        assert report.generation_throughput > 0
        assert report.mean_latency_s > 0

    def test_oom_when_model_does_not_fit(self):
        arch70 = get_model("llama2-70b").arch
        trace = [
            TraceRequest(arrival_s=0.0, input_tokens=64, output_tokens=8)
        ]
        report = simulate_trace(get_system("oaken-hbm"), arch70, trace, 4)
        assert report.oom

    def test_cap_clipped_to_capacity(self):
        trace = [
            TraceRequest(arrival_s=0.0, input_tokens=2048,
                         output_tokens=2048)
            for _ in range(4)
        ]
        report = simulate_trace(get_system("lpu"), ARCH, trace, 1000)
        assert report.effective_batch < 1000

    def test_latency_percentile_ordering(self):
        trace = generate_trace("conversation", num_requests=24, seed=0,
                               max_tokens=512)
        report = simulate_trace(get_system("vllm"), ARCH, trace, 8)
        assert report.p95_latency_s >= report.mean_latency_s


class TestSynthesizedBatches:
    def test_throughput_positive(self):
        trace = generate_trace("burstgpt", num_requests=64, seed=1,
                               max_tokens=1024)
        report = simulate_synthesized_batches(
            get_system("oaken-lpddr"), ARCH, trace, 16
        )
        assert report.generation_throughput > 0
        assert not report.oom

    def test_oaken_beats_lpu_on_burstgpt(self):
        """KV quantization pays off on long-output traces (Fig 14)."""
        trace = generate_trace("burstgpt", num_requests=64, seed=1,
                               max_tokens=2048)
        lpu = simulate_synthesized_batches(
            get_system("lpu"), ARCH, trace, 64
        )
        oaken = simulate_synthesized_batches(
            get_system("oaken-lpddr"), ARCH, trace, 64
        )
        assert oaken.generation_throughput > (
            1.2 * lpu.generation_throughput
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate_synthesized_batches(
                get_system("vllm"), ARCH, [], 8
            )


def closed_batch(count):
    """``count`` conversation requests, all arriving together."""
    base = generate_trace("conversation", count, seed=5, max_tokens=512)
    return [dataclasses.replace(r, arrival_s=0.0) for r in base]


def golden_report(name):
    """Run the golden case ``name`` (inputs frozen with the goldens)."""
    hbm = get_system("oaken-hbm")
    poisson = generate_trace("conversation", 32, seed=3)
    small = CacheReplayConfig(num_layers=1, dim=16, prompt_rows=4)
    if name == "analytic_poisson":
        return simulate_trace(hbm, ARCH, poisson, 8)
    if name == "analytic_closed_batch":
        return simulate_trace(hbm, ARCH, closed_batch(32), 16)
    if name == "ragged_tender":
        return simulate_trace(get_system("tender"), ARCH, poisson, 8)
    if name == "analytic_oom":
        return simulate_trace(
            hbm, get_model("llama2-70b").arch, poisson, 8
        )
    if name == "replay_rag_forks":
        trace = generate_rag_trace(
            "conversation", num_bursts=2, burst_size=6, burst_gap_s=0.05,
            seed=1, max_tokens=256,
        )
        return simulate_trace(hbm, ARCH, trace, 8, replay=small)
    if name == "replay_closed_batch":
        return simulate_trace(
            hbm, ARCH, closed_batch(12), 4, replay=small
        )
    if name == "replay_arena_burst":
        trace = generate_burst_trace(
            "conversation", num_bursts=2, burst_size=8, burst_gap_s=0.05,
            seed=2, max_tokens=256,
        )
        return simulate_trace(
            hbm, ARCH, trace, 8,
            replay=dataclasses.replace(small, arena=True),
        )
    if name == "replay_tiered_longctx":
        trace = generate_longcontext_trace(
            "burstgpt", num_requests=4, input_tokens=64,
            output_tokens=48, seed=0,
        )
        return simulate_trace(
            hbm, ARCH, trace, 4,
            replay=dataclasses.replace(
                small, device_budget_mb=0.004,
                charge_transfer_cycles=True,
            ),
        )
    if name == "replay_gate_refusals":
        # Weights leave room for ~22K KV tokens; the wave asks for 33K.
        trace = [
            TraceRequest(arrival_s=0.0, input_tokens=2000 + 16 * i,
                         output_tokens=24)
            for i in range(16)
        ]
        return simulate_trace(
            hbm, get_model("opt-30b").arch, trace, 16, replay=small
        )
    if name == "replay_oom":
        return simulate_trace(
            hbm, get_model("llama2-70b").arch, closed_batch(2), 2,
            replay=small,
        )
    assert name == "synthesized_batches"
    return simulate_synthesized_batches(
        get_system("oaken-lpddr"), ARCH,
        generate_trace("burstgpt", 48, seed=1, max_tokens=512), 16,
    )


# Captured from simulate_trace's own event loop at the last commit that
# had one (c59f616), before it became the one-replica configuration of
# the cluster loop.  Every value must match exactly: these, not a
# cross-implementation comparison, pin the replay's numbers.
GOLDENS = {
    "analytic_poisson": dict(
        effective_batch=8,
        oom=False,
        generation_throughput=329.4770847718311,
        total_time_s=15.367412454884144,
        generated_tokens=5054,
        mean_latency_s=7.570567525111937,
        p95_latency_s=12.81767322650828,
        mean_ttft_s=4.517450224328007,
        p95_ttft_s=9.746467413726846,
        mean_tpot_s=0.019633764922665782,
    ),
    "analytic_closed_batch": dict(
        effective_batch=16,
        oom=False,
        generation_throughput=526.5361973915162,
        total_time_s=9.254824310543242,
        generated_tokens=4873,
        mean_latency_s=4.88493012731478,
        p95_latency_s=7.662141222116579,
        mean_ttft_s=2.146931314386602,
        p95_ttft_s=4.5648957830665875,
        mean_tpot_s=0.018078377936368975,
    ),
    "ragged_tender": dict(
        effective_batch=8,
        oom=False,
        generation_throughput=223.68793844409302,
        total_time_s=22.621930553263642,
        generated_tokens=5054,
        mean_latency_s=12.750303872302423,
        p95_latency_s=20.055850642748723,
        mean_ttft_s=8.557575645745505,
        p95_ttft_s=16.354930282994783,
        mean_tpot_s=0.02741219211230629,
    ),
    "analytic_oom": dict(
        effective_batch=0,
        oom=True,
        generation_throughput=0.0,
        total_time_s=0.0,
        generated_tokens=0,
        mean_latency_s=0.0,
        p95_latency_s=0.0,
        mean_ttft_s=0.0,
        p95_ttft_s=0.0,
        mean_tpot_s=0.0,
    ),
    "replay_rag_forks": dict(
        effective_batch=8,
        oom=False,
        generation_throughput=362.7352053876881,
        total_time_s=4.06735837646225,
        generated_tokens=1472,
        mean_latency_s=2.4195130018064237,
        p95_latency_s=3.863437631125064,
        mean_ttft_s=0.5406396916246088,
        p95_ttft_s=1.4642279996710854,
        mean_tpot_s=0.01566596121704222,
        replay=dict(
            measured_kv_bits=10.879353233830846,
            peak_pool_bytes=32265.0,
            gate_refusals=0.0,
            forks=10.0,
        ),
    ),
    "replay_closed_batch": dict(
        effective_batch=4,
        oom=False,
        generation_throughput=183.7324554733412,
        total_time_s=10.335680732659325,
        generated_tokens=1899,
        mean_latency_s=4.944045146442384,
        p95_latency_s=8.672968795070917,
        mean_ttft_s=2.570323431575394,
        p95_ttft_s=5.4584426836197615,
        mean_tpot_s=0.015123542348928933,
        replay=dict(
            measured_kv_bits=10.880047505938242,
            peak_pool_bytes=21883.0,
            gate_refusals=0.0,
            forks=0.0,
        ),
    ),
    "replay_arena_burst": dict(
        effective_batch=8,
        oom=False,
        generation_throughput=358.9242143800199,
        total_time_s=7.73234448676616,
        generated_tokens=2774,
        mean_latency_s=3.7433875662765543,
        p95_latency_s=6.193588328317139,
        mean_ttft_s=1.1010400185111098,
        p95_ttft_s=3.3678994255888792,
        mean_tpot_s=0.01534679072257331,
        replay=dict(
            measured_kv_bits=10.890384615384615,
            peak_pool_bytes=55829.0,
            gate_refusals=0.0,
            forks=0.0,
        ),
    ),
    "replay_tiered_longctx": dict(
        effective_batch=4,
        oom=False,
        generation_throughput=93.35144814637009,
        total_time_s=2.966043013704442,
        generated_tokens=217,
        mean_latency_s=0.7957939311880164,
        p95_latency_s=0.9565571127897103,
        mean_ttft_s=0.030720569142862593,
        p95_ttft_s=0.03267845871395576,
        mean_tpot_s=0.01443310788978389,
        replay=dict(
            measured_kv_bits=10.887323943661972,
            peak_pool_bytes=3898.0,
            gate_refusals=0.0,
            forks=0.0,
            tier_evictions=59.0,
        ),
    ),
    "replay_gate_refusals": dict(
        effective_batch=16,
        oom=False,
        generation_throughput=33.99399975747592,
        total_time_s=11.296111159015679,
        generated_tokens=384,
        mean_latency_s=8.439064165846982,
        p95_latency_s=11.296111159015679,
        mean_ttft_s=7.585934250710983,
        p95_ttft_s=10.468004684519677,
        mean_tpot_s=0.037092605005913076,
        replay=dict(
            measured_kv_bits=10.828869047619047,
            peak_pool_bytes=12169.0,
            gate_refusals=24.0,
            forks=0.0,
        ),
    ),
    "replay_oom": dict(
        effective_batch=0,
        oom=True,
        generation_throughput=0.0,
        total_time_s=0.0,
        generated_tokens=0,
        mean_latency_s=0.0,
        p95_latency_s=0.0,
        mean_ttft_s=0.0,
        p95_ttft_s=0.0,
        mean_tpot_s=0.0,
        replay=dict(
            measured_kv_bits=10.8125,
            peak_pool_bytes=0.0,
            forks=0.0,
        ),
    ),
    "synthesized_batches": dict(
        effective_batch=16,
        oom=False,
        generation_throughput=415.8764827734845,
        total_time_s=44.30161541506304,
        generated_tokens=18424,
        mean_latency_s=0.0,
        p95_latency_s=0.0,
        mean_ttft_s=0.0,
        p95_ttft_s=0.0,
        mean_tpot_s=0.0,
    ),
}


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_report_matches_golden(self, name):
        report = golden_report(name)
        expected = dict(GOLDENS[name])
        replay = expected.pop("replay", None)
        for key, value in expected.items():
            assert getattr(report, key) == value, key
        if replay is None:
            assert report.replay is None
        else:
            for key, value in replay.items():
                assert report.replay[key] == value, key

    def test_oom_replay_report_has_no_scheduler_counters(self):
        assert "gate_refusals" not in golden_report("replay_oom").replay


def _storm_plan():
    """A hand-built fault plan dense in brownouts and admission
    blackouts on every replica, staggered so windows open and close
    while replicas are mid-run, plus three crashes (one never
    recovered) for failovers."""
    events = []
    for replica in range(4):
        for window in range(7):
            start = 0.9 + 8.3 * window + 1.9 * replica
            events += brownout(replica, start, 2.6, factor=1.5 + replica)
            events += admission_blackout(replica, start + 3.4, 1.3)
    events += crash_and_recover(1, 11.37, 2.9)
    events += crash_and_recover(2, 30.71, 1.4)
    events += crash_forever(3, 47.05)
    return FaultPlan(events)


#: The cluster golden cases: four analytic replicas, a few hundred
#: requests, a seeded or hand-built fault plan (inputs frozen with the
#: goldens).  Each entry overrides :func:`cluster_golden_sim`'s
#: defaults: the seed-21 conversation trace, the seed-5 random plan,
#: least-loaded routing, batch 8.
CLUSTER_CASES = {
    "faults_monolithic": dict(),
    "prefix_affinity": dict(
        policy="prefix_affinity",
        trace=lambda: generate_multiturn_trace(
            "conversation", num_sessions=100, seed=21
        ),
    ),
    "consistent_hash": dict(policy="consistent_hash"),
    # Tight queues shed placements to the retry queue.
    "queue_limit_retries": dict(queue_limit=1, retry_budget=6),
    "storm": dict(faults=_storm_plan),
}


def cluster_golden_sim(name):
    """Run the cluster golden case ``name``; returns the finished
    simulation (its replicas keep their final schedulers)."""
    case = dict(CLUSTER_CASES[name])
    trace = case.pop(
        "trace", lambda: generate_trace("conversation", 300, seed=21)
    )
    faults = case.pop("faults", lambda: generate_fault_plan(4, 35.0, seed=5))
    config = dict(replicas=4, max_batch=8, policy="least_loaded")
    config.update(case)
    plan = faults()
    plan.validate(config["replicas"])
    sim = _ClusterSim(
        get_system("oaken-hbm"), ARCH, trace(), ClusterConfig(**config),
        plan,
    )
    sim.report = sim.run()
    return sim


# The ``faults_monolithic`` case was captured at the last commit whose
# scheduler rebuilt its resident-set views every iteration (the running
# state must reproduce it); the other four, and the gate refusals
# below, at the last commit that stepped every analytic iteration on
# its own (a replica's fast-forwarded runs must reproduce them).
# Unlike TestDeterminism, which compares two runs of the same code,
# these pin a multi-replica analytic run's values under crashes,
# failovers, brownouts, admission blackouts and retries.
CLUSTER_GOLDENS = {
    "faults_monolithic": dict(
        system="oaken-hbm", replicas=4, policy="least_loaded", oom=False,
        completed=300, failed=0, generated_tokens=47881,
        total_time_s=60.22473703825986, busy_s=157.66498775465166,
        generation_throughput=303.68822325036047,
        tokens_per_s=795.0387557455324, mean_latency_s=18.91201733513897,
        p95_latency_s=45.23704557469816, mean_ttft_s=15.70713737456824,
        p95_ttft_s=40.92833949319777, mean_tpot_s=0.02202238545950784,
        mean_queue_delay_s=15.438152445091337,
        p95_queue_delay_s=40.79148727103131,
        p99_queue_delay_s=49.14374701449151, retries=0, requeues=393,
        failovers=393, rejections=0,
        detected_failures=7, downtime_s=14.575530551820048,
        duplicate_completions=0, lost=0, tier_hits=0, tier_misses=0,
        tier_evictions=0, tier_spilled_bytes=0.0, tier_promoted_bytes=0.0,
        tier_transfer_cycles=0.0, forks=0, shared_bytes_saved=0.0,
        per_replica=[
            dict(
                replica=0, generated_tokens=17560.0, busy_s=53.44707659237612,
                steps=2375.0, completed=104.0,
                tokens_per_s=328.54930745650586, crashes=3.0,
                downtime_s=2.3475101967911014,
            ),
            dict(
                replica=1, generated_tokens=17704.0,
                busy_s=55.937265377703575, steps=2467.0, completed=112.0,
                tokens_per_s=316.49741689118684, crashes=2.0,
                downtime_s=3.6785026494151536,
            ),
            dict(
                replica=2, generated_tokens=7649.0, busy_s=28.591092956987563,
                steps=1182.0, completed=50.0, tokens_per_s=267.5308709431694,
                crashes=1.0, downtime_s=2.026948704116201,
            ),
            dict(
                replica=3, generated_tokens=4968.0, busy_s=19.689552827584414,
                steps=693.0, completed=34.0, tokens_per_s=252.31654794313033,
                crashes=3.0, downtime_s=6.522569001497592,
            ),
        ],
    ),
    "prefix_affinity": dict(
        system="oaken-hbm", replicas=4, policy="prefix_affinity", oom=False,
        completed=278, failed=0, generated_tokens=44038,
        total_time_s=72.63879401923602, busy_s=151.3174274534055,
        generation_throughput=291.0305887506608,
        tokens_per_s=606.2600652254492, mean_latency_s=31.022527759675743,
        p95_latency_s=60.379439605993916, mean_ttft_s=27.72203629587401,
        p95_ttft_s=56.58120801144169, mean_tpot_s=0.023187524033881295,
        mean_queue_delay_s=27.39674306791624,
        p95_queue_delay_s=56.52117347220819,
        p99_queue_delay_s=62.36928096876131, retries=0, requeues=533,
        failovers=533, rejections=0,
        detected_failures=7, downtime_s=14.575530551820048,
        duplicate_completions=0, lost=0, tier_hits=0, tier_misses=0,
        tier_evictions=0, tier_spilled_bytes=0.0, tier_promoted_bytes=0.0,
        tier_transfer_cycles=0.0, forks=0, shared_bytes_saved=0.0,
        per_replica=[
            dict(
                replica=0, generated_tokens=14977.0, busy_s=49.80156560385497,
                steps=2126.0, completed=100.0, tokens_per_s=300.73351747882964,
                crashes=3.0, downtime_s=2.3475101967911014,
            ),
            dict(
                replica=1, generated_tokens=18590.0, busy_s=62.886506189345695,
                steps=2501.0, completed=117.0, tokens_per_s=295.6119066946915,
                crashes=2.0, downtime_s=3.6785026494151536,
            ),
            dict(
                replica=2, generated_tokens=7735.0, busy_s=29.253360951128123,
                steps=1160.0, completed=44.0, tokens_per_s=264.41406212853326,
                crashes=1.0, downtime_s=2.026948704116201,
            ),
            dict(
                replica=3, generated_tokens=2736.0, busy_s=9.375994709076714,
                steps=394.0, completed=17.0, tokens_per_s=291.8090383894237,
                crashes=3.0, downtime_s=6.522569001497592,
            ),
        ],
    ),
    "consistent_hash": dict(
        system="oaken-hbm", replicas=4, policy="consistent_hash", oom=False,
        completed=300, failed=0, generated_tokens=47984,
        total_time_s=69.68871067761656, busy_s=159.9677321300287,
        generation_throughput=299.960494288914, tokens_per_s=688.5476791495881,
        mean_latency_s=20.531232515098065, p95_latency_s=51.65045056402966,
        mean_ttft_s=17.362663509484417, p95_ttft_s=48.20135983799914,
        mean_tpot_s=0.02199522780541047, mean_queue_delay_s=17.10125368054529,
        p95_queue_delay_s=48.11416697975172,
        p99_queue_delay_s=56.84940132724888, retries=0, requeues=495,
        failovers=495, rejections=0,
        detected_failures=7, downtime_s=14.575530551820048,
        duplicate_completions=0, lost=0, tier_hits=0, tier_misses=0,
        tier_evictions=0, tier_spilled_bytes=0.0, tier_promoted_bytes=0.0,
        tier_transfer_cycles=0.0, forks=0, shared_bytes_saved=0.0,
        per_replica=[
            dict(
                replica=0, generated_tokens=20639.0, busy_s=62.29939365078669,
                steps=2699.0, completed=134.0, tokens_per_s=331.28733348016107,
                crashes=3.0, downtime_s=2.3475101967911014,
            ),
            dict(
                replica=1, generated_tokens=14833.0, busy_s=47.73314701831628,
                steps=2261.0, completed=81.0, tokens_per_s=310.74841963192256,
                crashes=2.0, downtime_s=3.6785026494151536,
            ),
            dict(
                replica=2, generated_tokens=7387.0, busy_s=29.497760883458188,
                steps=1191.0, completed=54.0, tokens_per_s=250.42578754316557,
                crashes=1.0, downtime_s=2.026948704116201,
            ),
            dict(
                replica=3, generated_tokens=5125.0, busy_s=20.437430577467563,
                steps=869.0, completed=31.0, tokens_per_s=250.76537779902506,
                crashes=3.0, downtime_s=6.522569001497592,
            ),
        ],
    ),
    "queue_limit_retries": dict(
        system="oaken-hbm", replicas=4, policy="least_loaded", oom=False,
        completed=149, failed=151, generated_tokens=22193,
        total_time_s=35.00296068081263, busy_s=87.39053597110569,
        generation_throughput=253.9519840836972,
        tokens_per_s=634.0320809538094, mean_latency_s=4.118598529562291,
        p95_latency_s=7.983213265879353, mean_ttft_s=1.05586547543637,
        p95_ttft_s=2.490557678675635, mean_tpot_s=0.022575562164187615,
        mean_queue_delay_s=0.9001564581845523,
        p95_queue_delay_s=2.3940649318214002,
        p99_queue_delay_s=6.436701605759976, retries=1070, requeues=36,
        failovers=36, rejections=1221,
        detected_failures=7, downtime_s=14.575530551820048,
        duplicate_completions=0, lost=0, tier_hits=0, tier_misses=0,
        tier_evictions=0, tier_spilled_bytes=0.0, tier_promoted_bytes=0.0,
        tier_transfer_cycles=0.0, forks=0, shared_bytes_saved=0.0,
        per_replica=[
            dict(
                replica=0, generated_tokens=4763.0, busy_s=21.874163725335393,
                steps=952.0, completed=32.0, tokens_per_s=217.74546720080244,
                crashes=3.0, downtime_s=2.3475101967911014,
            ),
            dict(
                replica=1, generated_tokens=6410.0, busy_s=21.392952359468726,
                steps=965.0, completed=41.0, tokens_per_s=299.63138758465345,
                crashes=2.0, downtime_s=3.6785026494151536,
            ),
            dict(
                replica=2, generated_tokens=6351.0, busy_s=25.637198671948987,
                steps=1110.0, completed=44.0, tokens_per_s=247.72597354596954,
                crashes=1.0, downtime_s=2.026948704116201,
            ),
            dict(
                replica=3, generated_tokens=4669.0, busy_s=18.48622121435259,
                steps=776.0, completed=32.0, tokens_per_s=252.56648970396486,
                crashes=3.0, downtime_s=6.522569001497592,
            ),
        ],
    ),
    "storm": dict(
        system="oaken-hbm", replicas=4, policy="least_loaded", oom=False,
        completed=300, failed=0, generated_tokens=45923,
        total_time_s=56.5360253025734, busy_s=179.04849562750098,
        generation_throughput=256.48358473527685,
        tokens_per_s=812.2785384049572, mean_latency_s=14.882958391962923,
        p95_latency_s=33.94725991451732, mean_ttft_s=11.206756568515482,
        p95_ttft_s=32.429122891406834, mean_tpot_s=0.024935376774646148,
        mean_queue_delay_s=10.87709425439405,
        p95_queue_delay_s=31.63783491051408,
        p99_queue_delay_s=39.10098423507182, retries=0, requeues=65,
        failovers=65, rejections=0, detected_failures=3,
        downtime_s=13.786025302573401, duplicate_completions=0, lost=0,
        tier_hits=0, tier_misses=0, tier_evictions=0, tier_spilled_bytes=0.0,
        tier_promoted_bytes=0.0, tier_transfer_cycles=0.0, forks=0,
        shared_bytes_saved=0.0,
        per_replica=[
            dict(
                replica=0, generated_tokens=15386.0, busy_s=52.45744049156203,
                steps=2314.0, completed=99.0, tokens_per_s=293.304436049923,
                crashes=0.0, downtime_s=0.0,
            ),
            dict(
                replica=1, generated_tokens=9576.0, busy_s=40.67503411827579,
                steps=1541.0, completed=63.0, tokens_per_s=235.42696908759044,
                crashes=1.0, downtime_s=2.9000000000000004,
            ),
            dict(
                replica=2, generated_tokens=9159.0, busy_s=39.216018149614946,
                steps=1402.0, completed=58.0, tokens_per_s=233.55252348815864,
                crashes=1.0, downtime_s=1.3999999999999986,
            ),
            dict(
                replica=3, generated_tokens=11802.0, busy_s=46.70000286804823,
                steps=1679.0, completed=80.0, tokens_per_s=252.7194705607788,
                crashes=1.0, downtime_s=9.486025302573402,
            ),
        ],
    ),
}

#: Each replica's final scheduler's ``gate_refusals`` per golden case
#: (a crash reboots the scheduler, so this counts the last incarnation).
CLUSTER_GATE_REFUSALS = {
    "faults_monolithic": [20, 0, 0, 0],
    "prefix_affinity": [0, 0, 0, 0],
    "consistent_hash": [37, 0, 0, 0],
    "queue_limit_retries": [0, 0, 0, 0],
    "storm": [367, 309, 0, 381],
}


class TestClusterGoldenReports:
    @pytest.mark.parametrize("name", sorted(CLUSTER_GOLDENS))
    def test_report_matches_golden(self, name):
        sim = cluster_golden_sim(name)
        assert sim.report.as_dict() == CLUSTER_GOLDENS[name]
        assert [
            r.scheduler.gate_refusals for r in sim.replicas
        ] == CLUSTER_GATE_REFUSALS[name]
