"""Tests for the TTFT/TPOT serving-latency metrics."""

from __future__ import annotations

import pytest

from repro.data.traces import TraceRequest, generate_trace
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.request import Request
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.simulator import simulate_trace

ARCH = get_model("llama2-13b").arch


def drive(scheduler: ContinuousBatchScheduler, step_s: float = 0.1):
    """Run the scheduler to completion with a fixed iteration time."""
    now = 0.0
    for _ in range(10_000):
        if not scheduler.has_work:
            return
        plan = scheduler.plan_iteration(now)
        if plan is None:
            upcoming = scheduler.next_arrival()
            if upcoming is None:
                return
            now = max(now, upcoming)
            continue
        now += step_s
        scheduler.complete_iteration(now)
    raise AssertionError("scheduler did not drain")


class TestRequestMetrics:
    def test_ttft_unset_raises(self):
        request = Request(
            request_id=0, arrival_s=0.0, input_tokens=4, output_tokens=2
        )
        with pytest.raises(RuntimeError, match="no token"):
            request.ttft_s()

    def test_tpot_before_finish_raises(self):
        request = Request(
            request_id=0, arrival_s=0.0, input_tokens=4, output_tokens=2
        )
        with pytest.raises(RuntimeError, match="not finished"):
            request.tpot_s()

    def test_single_token_output_has_zero_tpot(self):
        scheduler = ContinuousBatchScheduler(2)
        scheduler.submit(
            Request(request_id=0, arrival_s=0.0, input_tokens=4,
                    output_tokens=1)
        )
        drive(scheduler)
        request = scheduler.finished[0]
        assert request.tpot_s() == 0.0

    def test_first_token_recorded_on_first_generation(self):
        scheduler = ContinuousBatchScheduler(2)
        scheduler.submit(
            Request(request_id=0, arrival_s=0.0, input_tokens=4,
                    output_tokens=3)
        )
        drive(scheduler, step_s=0.1)
        request = scheduler.finished[0]
        assert request.first_token_s == pytest.approx(0.1)
        assert request.finish_s == pytest.approx(0.3)
        assert request.ttft_s() == pytest.approx(0.1)
        assert request.tpot_s() == pytest.approx(0.1)

    def test_queued_request_ttft_includes_queueing(self):
        scheduler = ContinuousBatchScheduler(1)
        scheduler.submit(
            Request(request_id=0, arrival_s=0.0, input_tokens=4,
                    output_tokens=5)
        )
        scheduler.submit(
            Request(request_id=1, arrival_s=0.0, input_tokens=4,
                    output_tokens=1)
        )
        drive(scheduler, step_s=0.1)
        blocked = next(
            r for r in scheduler.finished if r.request_id == 1
        )
        # Request 1 waited for request 0's five iterations.
        assert blocked.ttft_s() >= 0.5


class TestReportMetrics:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(
            "conversation", num_requests=32, seed=4, max_tokens=512
        )

    def test_report_carries_slo_metrics(self, trace):
        report = simulate_trace(
            get_system("oaken-lpddr"), ARCH, trace, 16
        )
        assert report.mean_ttft_s > 0.0
        assert report.p95_ttft_s >= report.mean_ttft_s * 0.5
        assert report.mean_tpot_s > 0.0
        assert report.mean_ttft_s < report.mean_latency_s

    def test_larger_cap_reduces_queueing_ttft(self, trace):
        system = get_system("oaken-lpddr")
        small = simulate_trace(system, ARCH, trace, 4)
        large = simulate_trace(system, ARCH, trace, 32)
        assert large.mean_ttft_s <= small.mean_ttft_s
