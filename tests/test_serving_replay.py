"""Cache-backed serving replay: a real KVCachePool under the scheduler."""

import dataclasses

import pytest

from repro.data.traces import TraceRequest, generate_trace
from repro.engine import CacheCapacityError
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.request import Request
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.simulator import (
    CacheReplayConfig,
    _CacheReplay,
    simulate_trace,
)

ARCH = get_model("llama2-13b").arch


def closed_trace(count=6, inputs=64, outputs=6):
    return [
        TraceRequest(arrival_s=0.0, input_tokens=inputs,
                     output_tokens=outputs)
        for _ in range(count)
    ]


class TestReplayEndToEnd:
    @pytest.mark.parametrize("method", ["oaken", "kivi", "fp16"])
    def test_replay_runs_for_paper_method_and_baselines(self, method):
        """The replay mode serves the paper method and any baseline."""
        report = simulate_trace(
            get_system("oaken-lpddr"), ARCH, closed_trace(), 4,
            replay=CacheReplayConfig(method=method),
        )
        assert not report.oom
        assert report.generated_tokens == 6 * 6
        assert report.generation_throughput > 0
        replay = report.replay
        assert replay is not None
        assert replay["method"] == method
        # Batched multi-sequence reads and appends ran every
        # generation iteration.
        assert replay["batched_reads"] > 0
        assert replay["batched_appends"] > 0
        if method == "oaken":
            # Fused backends batch the kernel calls themselves.
            assert replay["batched_encodes"] > 0
            assert replay["batched_decodes"] > 0
        if method == "fp16":
            # Row-local adapter pools batch their reads: one merged
            # roundtrip per tensor across the resident set.
            assert replay["batched_roundtrips"] > 0
        # Admission worked off measured footprint, which exists.
        assert 0 < replay["measured_kv_bits"] <= 16.0
        assert replay["peak_pool_bytes"] > 0
        assert replay["replayed_tokens"] > 0

    def test_quantized_method_measures_fewer_bits_than_fp16(self):
        quantized = simulate_trace(
            get_system("oaken-lpddr"), ARCH, closed_trace(), 4,
            replay=CacheReplayConfig(method="oaken"),
        )
        fp16 = simulate_trace(
            get_system("vllm"), ARCH, closed_trace(), 4,
            replay=CacheReplayConfig(method="fp16"),
        )
        assert (
            quantized.replay["measured_kv_bits"]
            < fp16.replay["measured_kv_bits"]
        )

    def test_analytic_mode_unchanged_by_default(self):
        default = simulate_trace(
            get_system("oaken-lpddr"), ARCH, closed_trace(), 4
        )
        explicit = simulate_trace(
            get_system("oaken-lpddr"), ARCH, closed_trace(), 4,
            replay=None,
        )
        assert default.replay is None
        assert dataclasses.asdict(default) == dataclasses.asdict(explicit)

    def test_replay_with_staggered_arrivals(self):
        trace = generate_trace("conversation", num_requests=8, seed=0,
                               max_tokens=128)
        report = simulate_trace(
            get_system("oaken-lpddr"), ARCH, trace, 4,
            replay=CacheReplayConfig(method="oaken"),
        )
        assert not report.oom
        assert report.generated_tokens == sum(
            r.output_tokens for r in trace
        )
        assert report.replay["batched_reads"] > 0

    def test_closed_trace_drain_on_both_stores(self):
        """A closed trace past the residency cap, so a wave retires
        while others wait: the arena changes storage, never the tokens
        generated, and it compacts as the trace drains (recycling
        absorbs the churn, never the drain)."""
        trace = closed_trace(count=16, inputs=24, outputs=16)
        reports = [
            simulate_trace(
                get_system("oaken-hbm"), ARCH, trace, 8,
                replay=CacheReplayConfig(arena=arena),
            )
            for arena in (False, True)
        ]
        chunked, arena = (r.generated_tokens for r in reports)
        assert chunked == arena == 16 * 16
        assert reports[1].replay["arena_compactions"] > 0

    def test_pool_drains_by_end_of_replay(self):
        config = CacheReplayConfig(method="oaken")
        system = get_system("oaken-lpddr")
        replay_engine = _CacheReplay(config, system, ARCH)
        # Run through simulate_trace separately; then check a fresh
        # engine admits/retires symmetrically.
        request = Request(request_id=0, arrival_s=0.0,
                          input_tokens=32, output_tokens=4)
        replay_engine.admit(request)
        assert len(replay_engine.pool) == 1
        replay_engine.step([request.request_id])
        replay_engine.retire([request])
        assert len(replay_engine.pool) == 0
        assert replay_engine.pool.peak_bytes > 0


class TestEngineCycles:
    """engine_cycles=True routes the replay pool through the datapath
    engine models and reports accumulated end-to-end cycles."""

    def test_engine_backed_replay_accumulates_cycles(self):
        report = simulate_trace(
            get_system("oaken-lpddr"), ARCH, closed_trace(), 4,
            replay=CacheReplayConfig(method="oaken",
                                     engine_cycles=True),
        )
        assert not report.oom
        replay = report.replay
        assert "engine" not in replay
        assert replay["engine_quant_cycles"] > 0
        assert replay["engine_dequant_cycles"] > 0
        assert replay["engine_cycles"] == (
            replay["engine_quant_cycles"]
            + replay["engine_dequant_cycles"]
        )
        assert replay["engine_cycles_per_token"] > 0
        # The engine-backed pool still rides the batched paths.
        assert replay["batched_encodes"] > 0
        assert replay["batched_decodes"] > 0

    def test_default_replay_reports_no_cycles(self):
        report = simulate_trace(
            get_system("oaken-lpddr"), ARCH, closed_trace(), 4,
            replay=CacheReplayConfig(method="oaken"),
        )
        assert "engine_cycles" not in report.replay

    def test_engine_cycles_requires_the_paper_method(self):
        with pytest.raises(ValueError, match="oaken"):
            simulate_trace(
                get_system("vllm"), ARCH, closed_trace(), 4,
                replay=CacheReplayConfig(method="fp16",
                                         engine_cycles=True),
            )

    @pytest.mark.parametrize(
        "trace, batch, quant, dequant",
        [
            (closed_trace(count=2, inputs=16, outputs=2), 2, 352.0, 208.0),
            # The committed full-size engine-backed replay.
            (closed_trace(count=12, inputs=48, outputs=24), 4,
             6816.0, 6144.0),
        ],
        ids=["2x16", "12x48"],
    )
    def test_engine_cycles_equal_the_scalar_tier_totals(
        self, trace, batch, quant, dequant
    ):
        """The cycle model prices the hardware, not the host: the
        totals the element-streaming golden model reported for these
        traces, when the replay could still run on it, pinned."""
        replay = simulate_trace(
            get_system("oaken-lpddr"), ARCH, trace, batch,
            replay=CacheReplayConfig(method="oaken", engine_cycles=True),
        ).replay
        assert replay["engine_quant_cycles"] == quant
        assert replay["engine_dequant_cycles"] == dequant
        assert replay["engine_cycles"] == quant + dequant

    def test_measured_bits_match_plain_replay(self):
        """Engine-backed caches are bit-compatible with the fused
        kernels: the measured footprint is unchanged."""
        plain = simulate_trace(
            get_system("oaken-lpddr"), ARCH, closed_trace(), 4,
            replay=CacheReplayConfig(method="oaken",
                                     mode="exact_f64"),
        )
        backed = simulate_trace(
            get_system("oaken-lpddr"), ARCH, closed_trace(), 4,
            replay=CacheReplayConfig(method="oaken", mode="exact_f64",
                                     engine_cycles=True),
        )
        assert (
            backed.replay["measured_kv_bits"]
            == plain.replay["measured_kv_bits"]
        )
        assert (
            backed.replay["peak_pool_bytes"]
            == plain.replay["peak_pool_bytes"]
        )

    @pytest.mark.parametrize("arena", [False, True], ids=["chunked", "arena"])
    @pytest.mark.parametrize("mode", ["exact_f64", "deploy_f32"])
    def test_engine_backed_replay_reads_the_fused_bytes(self, mode, arena):
        """The cycles an engine-backed replay counts are the plain fused
        replay's work: every layer reads back the same bytes."""
        pools = []
        for engine_cycles in (False, True):
            replay = _CacheReplay(
                CacheReplayConfig(
                    method="oaken", mode=mode, arena=arena,
                    engine_cycles=engine_cycles,
                ),
                get_system("oaken-lpddr"),
                ARCH,
            )
            requests = [
                Request(request_id=rid, arrival_s=0.0, input_tokens=32,
                        output_tokens=4)
                for rid in range(3)
            ]
            for request in requests:
                replay.admit(request)
            for _ in range(2):
                replay.step([r.request_id for r in requests])
            pools.append(replay.pool)
        plain, backed = pools
        ids = [0, 1, 2]
        for layer in range(CacheReplayConfig().num_layers):
            for (pk, pv), (bk, bv) in zip(
                plain.read_batch(layer, ids), backed.read_batch(layer, ids)
            ):
                assert bk.tobytes() == pk.tobytes()
                assert bv.tobytes() == pv.tobytes()


class TestMeasuredAdmission:
    def make_engine(self, budget=None):
        engine = _CacheReplay(
            CacheReplayConfig(method="oaken"),
            get_system("oaken-lpddr"),
            ARCH,
        )
        if budget is not None:
            engine.budget_bytes = budget
        return engine

    def request(self, rid, inputs=64, outputs=64):
        return Request(request_id=rid, arrival_s=0.0,
                       input_tokens=inputs, output_tokens=outputs)

    def test_empty_pool_always_admits(self):
        engine = self.make_engine(budget=1.0)
        assert engine.admission_gate(self.request(0))

    def test_small_budget_blocks_once_measured(self):
        engine = self.make_engine()
        first = self.request(0)
        engine.admit(first)
        engine.step([first.request_id])
        engine.budget_bytes = 1.0  # below any measured projection
        assert not engine.admission_gate(self.request(1))

    def test_same_wave_arrivals_share_the_budget(self):
        """Gate approvals reserve immediately: a burst of simultaneous
        arrivals is projected cumulatively even though the pool is
        only populated after the iteration plan returns."""
        engine = self.make_engine()
        per_request = engine.arch.kv_bytes_per_token(
            engine.measured_kv_bits()
        ) * engine.arch.attended_length(128)
        engine.budget_bytes = 1.5 * per_request  # fits one, not two
        assert engine.admission_gate(self.request(0))
        assert not engine.admission_gate(self.request(1))

    def test_first_wave_measured_from_calibration_probe(self):
        """measured_kv_bits is primed before any request is admitted."""
        engine = self.make_engine()
        assert 0 < engine.measured_kv_bits() <= 16.0

    def test_large_budget_admits(self):
        engine = self.make_engine()
        first = self.request(0)
        engine.admit(first)
        engine.step([first.request_id])
        assert engine.admission_gate(self.request(1))

    def test_gate_blocks_scheduler_admission(self):
        scheduler = ContinuousBatchScheduler(
            4, admission_gate=lambda request: request.request_id == 0
        )
        for rid in range(3):
            scheduler.submit(self.request(rid, outputs=2))
        plan = scheduler.plan_iteration(0.0)
        assert [r.request_id for r in plan.admitted] == [0]
        assert scheduler.pending == 2

    def test_oom_when_weights_do_not_fit(self):
        arch70 = get_model("llama2-70b").arch
        report = simulate_trace(
            get_system("oaken-hbm"), arch70, closed_trace(1), 2,
            replay=CacheReplayConfig(method="oaken"),
        )
        assert report.oom
        assert report.replay is not None


class TestReplayConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("device_budget_mb", -1.0),
            ("device_budget_mb", 0.0),
            ("device_budget_mb", float("nan")),
            ("device_budget_mb", float("inf")),
            ("prompt_rows", 0),
            ("prompt_rows", -3),
            ("num_layers", 0),
            ("dim", 0),
            ("calibration_tokens", 0),
            ("page_bytes", 0),
            ("prefetch_pages", -1),
            ("eviction", "fifo"),
        ],
    )
    def test_a_bad_field_is_refused_by_name(self, field, value):
        """Each of these used to be accepted and either ran (a negative
        device budget ran a tiered replay) or failed later with an
        unrelated message (a bare ``IndexError``, a numpy error)."""
        with pytest.raises(ValueError, match=field):
            CacheReplayConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("page_bytes", 0.5), ("page_bytes", 1.5), ("page_bytes", 1024.0),
         ("prefetch_pages", 0.5), ("prefetch_pages", 1.0)],
    )
    def test_a_fractional_page_count_is_refused(self, field, value):
        """Page sizes and prefetch runs are whole: ``page_bytes=0.5``
        used to reach a tiered store whose pages held no bytes."""
        with pytest.raises(TypeError):
            CacheReplayConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["num_layers", "dim", "calibration_tokens", "prompt_rows"],
    )
    @pytest.mark.parametrize("value", [2.5, 8.0, float("nan")])
    def test_a_fractional_size_is_refused(self, field, value):
        """Miniature sizes and row counts are whole: ``num_layers=2.5``
        or ``dim=nan`` used to be accepted, and the replay then failed
        with an unrelated ``TypeError`` deep in the pool."""
        with pytest.raises(TypeError):
            CacheReplayConfig(**{field: value})


class TestReplayRobustness:
    """OOM edges and admission-gate bookkeeping for the replay."""

    def make_engine(self):
        return _CacheReplay(
            CacheReplayConfig(method="oaken"),
            get_system("oaken-lpddr"),
            ARCH,
        )

    def request(self, rid, inputs=64, outputs=64):
        return Request(request_id=rid, arrival_s=0.0,
                       input_tokens=inputs, output_tokens=outputs)

    def test_zero_budget_is_oom_not_a_crash(self, monkeypatch):
        """Weights alone exhaust the device -> an OOM report with the
        replay measurements attached, never an exception or a silent
        zero-throughput replay."""
        import repro.serving.simulator as simulator

        monkeypatch.setattr(
            simulator, "kv_budget_bytes", lambda *args, **kwargs: -1e18
        )
        report = simulate_trace(
            get_system("oaken-hbm"), ARCH, closed_trace(2), 2,
            replay=CacheReplayConfig(method="oaken"),
        )
        assert report.oom
        assert report.effective_batch == 0
        assert report.generation_throughput == 0.0
        assert report.replay is not None
        assert report.replay["method"] == "oaken"

    def test_gate_rejection_reserves_nothing(self):
        """A refused request leaves no residue in the reservation
        table: re-offering it later (after retirements) can succeed."""
        engine = self.make_engine()
        first = self.request(0)
        engine.admit(first)
        engine.step([first.request_id])
        engine.budget_bytes = 1.0
        rejected = self.request(1)
        assert not engine.admission_gate(rejected)
        assert 1 not in engine._contexts
        # free the resident; the once-rejected request now admits
        # (empty reservation table always admits)
        engine.retire([first])
        assert engine.admission_gate(rejected)

    def test_gate_approval_reserves_immediately(self):
        engine = self.make_engine()
        assert engine.admission_gate(self.request(0))
        assert 0 in engine._contexts

    def test_abort_backs_out_partial_admission(self):
        engine = self.make_engine()
        request = self.request(0)
        engine.admit(request)
        assert request.request_id in engine.pool
        engine.abort(request)
        assert request.request_id not in engine.pool
        assert request.request_id not in engine._contexts

    def test_abort_unknown_request_is_a_noop(self):
        engine = self.make_engine()
        engine.abort(self.request(42))  # never admitted: no error

    def test_a_step_refused_on_layer_1_leaves_the_layers_even(self):
        """Four residents of 8 rows on both stores, and a step of four
        one-row tokens.  The pool projects the step once, across both
        layers, so it lands on every layer or on none: with room for
        4.5 more tokens every resident is at ``[9, 9]``, with room for
        3.5 the step is refused at ``[8, 8]`` — never the ``[9, 8]``
        that layer 0 landing before layer 1's refusal used to leave
        (ROADMAP item 1b)."""
        for room, lengths in ((4.5, [9, 9]), (3.5, [8, 8])):
            for arena in (False, True):
                engine = _CacheReplay(
                    CacheReplayConfig(method="oaken", arena=arena),
                    get_system("oaken-lpddr"),
                    ARCH,
                )
                residents = [self.request(rid) for rid in range(4)]
                for request in residents:
                    engine.admit(request)
                pool = engine.pool
                pool.capacity_bytes = (
                    pool.nbytes() + room * pool.bytes_per_token()
                )
                if lengths == [8, 8]:
                    with pytest.raises(CacheCapacityError) as excinfo:
                        engine.step([r.request_id for r in residents])
                    assert excinfo.value.seq_id == 0
                else:
                    engine.step([r.request_id for r in residents])
                for request in residents:
                    rid = request.request_id
                    held = (
                        list(pool.store.rows[rid].length)
                        if arena
                        else [layer.length for layer in pool.get(rid).layers]
                    )
                    assert held == lengths, (room, arena, rid)
                pool.check_invariants()
