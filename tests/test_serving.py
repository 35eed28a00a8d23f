"""Unit tests for the scheduler and trace-driven simulator."""

import dataclasses

import pytest

from repro.data.traces import (
    TraceRequest,
    generate_burst_trace,
    generate_longcontext_trace,
    generate_rag_trace,
    generate_trace,
)
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.request import Request, RequestPhase
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.simulator import (
    CacheReplayConfig,
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
    if name == "prefill_chunk":
        return simulate_trace(hbm, ARCH, poisson, 8, prefill_chunk=256)
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
    "prefill_chunk": dict(
        effective_batch=8,
        oom=False,
        generation_throughput=319.7642852089849,
        total_time_s=15.833346552854646,
        generated_tokens=5054,
        mean_latency_s=7.811566775996734,
        p95_latency_s=13.036943754199362,
        mean_ttft_s=4.749977664678732,
        p95_ttft_s=10.158183835052196,
        mean_tpot_s=0.019720117785675638,
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
