"""The analytic kernel against its frozen Python-float oracle.

:mod:`repro.hardware.perf` evaluates one array kernel; the grid
front-end (:mod:`repro.hardware.sweep`), the scalar entry points (and
the block pricer behind ``generation_iteration``) and the pipeline
stages are all calls of it.  ``tests/analytic_oracle.py`` keeps the
float formula the kernel replaced, and every surface must agree with
it **exactly** — ``==``, not ``allclose`` — over the full Table 4 /
Figure 11 config grids.  The oracle is float64, so ``deploy_f32`` is
pinned surface-against-surface plus literals captured before the
scalar path was deleted.  :func:`repro.hardware.area.area_grid` keeps
its scalar twin, as the fused Oaken kernel keeps its
element-streaming oracle (``tests/test_datapath_oracle.py``).
"""

from dataclasses import replace

import numpy as np
import pytest

import analytic_oracle as oracle

from repro.core.config import OakenConfig
from repro.core.modes import DEPLOY_F32, EXACT_F64
from repro.experiments.fig11 import (
    FIG11_BATCHES,
    FIG11_MODELS,
    FIG11_SYSTEMS,
    run_fig11,
    systems_for_model,
)
from repro.experiments.table4 import run_table4
from repro.hardware.area import AreaModel, area_grid
from repro.commands import main
from repro.hardware.overheads import SERVING_SYSTEMS, get_system
from repro.hardware.parallel import (
    PipelinePlan,
    pipeline_generation_iteration,
    pipeline_max_batch,
)
from repro.hardware.perf import (
    _BLOCK_CONTEXTS,
    _iteration_arrays,
    _pair_params,
    generation_iteration,
    max_supported_batch,
    prefill_time,
    simulate_generation_run,
)
from repro.hardware.sweep import (
    GridPoint,
    capacity_grid,
    grid_points,
    iteration_grid,
    simulate_generation_grid,
)
from repro.models.config import get_model

#: The full Figure 11 grid: 6 models x 5 batches x per-model systems.
FIG11_POINTS = [
    GridPoint(model=model, system=system, batch=batch)
    for model in FIG11_MODELS
    for batch in FIG11_BATCHES
    for system in systems_for_model(model, FIG11_SYSTEMS)
]

#: Table 4 config sweep: paper default + the ablation knobs that scale
#: the engines (band count, outlier bitwidth).
TABLE4_CONFIGS = [
    OakenConfig(),
    OakenConfig.from_ratio_string("2/94/4"),
    OakenConfig.from_ratio_string("6/88/6"),
    OakenConfig.from_ratio_string("4/90/6", outlier_bits=4),
    OakenConfig.from_ratio_string("4/90/6", outlier_bits=6),
    OakenConfig.from_ratio_string("1/98/1", outlier_bits=3),
]

MODES = (EXACT_F64, DEPLOY_F32)

RUN_FIELDS = (
    "system", "batch", "effective_batch", "oom",
    "tokens_per_s", "prefill_s", "generation_s",
)
BREAKDOWN_FIELDS = (
    "nonattn_s", "attn_s", "quant_s", "dequant_s",
    "exposed_overhead_s", "compute_util",
)


def _assert_runs_identical(ref, got, label):
    for name in RUN_FIELDS:
        assert getattr(ref, name) == getattr(got, name), (
            label, name, getattr(ref, name), getattr(got, name)
        )
    assert (ref.breakdown is None) == (got.breakdown is None), label
    if ref.breakdown is not None:
        for name in BREAKDOWN_FIELDS:
            assert getattr(ref.breakdown, name) == getattr(
                got.breakdown, name
            ), (label, name)


def _scalar_run(point, mode=None, **kwargs):
    """The scalar entry point's run for a grid point — checked, where
    the oracle applies (exact_f64), to equal the oracle's."""
    system = get_system(point.system)
    arch = get_model(point.model).arch
    run = simulate_generation_run(
        system, arch, point.batch, mode=mode, **kwargs
    )
    if mode in (None, EXACT_F64):
        _assert_runs_identical(
            oracle.simulate_generation_run(
                system, arch, point.batch, **kwargs
            ),
            run,
            point,
        )
    return run


class TestGenerationGrid:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    def test_full_fig11_grid_element_identical(self, mode):
        grid = simulate_generation_grid(FIG11_POINTS, mode=mode)
        for i, point in enumerate(FIG11_POINTS):
            _assert_runs_identical(
                _scalar_run(point, mode), grid.run(i), point
            )

    def test_exact_mode_matches_frozen_scalar_default(self):
        # mode=None must be the exact float64 model: the oracle, bit
        # for bit.
        grid = simulate_generation_grid(FIG11_POINTS)
        assert grid.mode == "exact_f64"
        for i, point in enumerate(FIG11_POINTS):
            _assert_runs_identical(
                _scalar_run(point), grid.run(i), point
            )

    def test_deploy_f32_tracks_exact_within_tolerance(self):
        exact = simulate_generation_grid(FIG11_POINTS, mode=EXACT_F64)
        deploy = simulate_generation_grid(FIG11_POINTS, mode=DEPLOY_F32)
        assert np.array_equal(exact.oom, deploy.oom)
        live = ~exact.oom
        np.testing.assert_allclose(
            deploy.tokens_per_s[live],
            exact.tokens_per_s[live],
            rtol=1e-5,
        )

    def test_ragged_grid_matches_scalar(self):
        points = grid_points(
            ("llama2-7b", "mistral-7b"),
            ("vllm", "tender", "oaken-lpddr"),
            (8, 64),
        )
        grid = simulate_generation_grid(points, ragged=True)
        for i, point in enumerate(points):
            _assert_runs_identical(
                _scalar_run(point, ragged=True), grid.run(i), point
            )

    def test_runs_materializes_all_points(self):
        points = FIG11_POINTS[:10]
        grid = simulate_generation_grid(points)
        runs = grid.runs()
        assert len(runs) == len(points)
        assert [r.batch for r in runs] == [p.batch for p in points]


class TestIterationGrid:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("context", (64, 1024, 4096, 40000))
    def test_iteration_grid_element_identical(self, context, mode):
        arrays = iteration_grid(FIG11_POINTS, context, mode=mode)
        for i, point in enumerate(FIG11_POINTS):
            system = get_system(point.system)
            arch = get_model(point.model).arch
            # The scalar entry point reads a priced block; in
            # exact_f64 both it and the grid must equal the oracle.
            refs = [
                generation_iteration(
                    system, arch, point.batch, context, mode=mode
                )
            ]
            if mode.exact:
                refs.append(
                    oracle.generation_iteration(
                        system, arch, point.batch, context
                    )
                )
            for ref in refs:
                for name in BREAKDOWN_FIELDS:
                    assert arrays[name][i] == getattr(ref, name), (
                        point, context, name
                    )
                assert arrays["total_s"][i] == ref.total_s

    @pytest.mark.parametrize("prompt", (1, 333, 1024, 9000))
    def test_prefill_matches_oracle(self, prompt):
        for point in FIG11_POINTS[::7]:
            system = get_system(point.system)
            arch = get_model(point.model).arch
            exact = prefill_time(system, arch, point.batch, prompt)
            assert exact == oracle.prefill_time(
                system, arch, point.batch, prompt
            ), (point, prompt)
            lowp = prefill_time(
                system, arch, point.batch, prompt, mode="deploy_f32"
            )
            assert lowp == pytest.approx(exact, rel=1e-5)
            assert isinstance(lowp, float)


class TestCapacityGrid:
    @pytest.mark.parametrize(
        "model", ("llama2-7b", "llama2-13b", "mistral-7b", "llama2-70b")
    )
    def test_capacity_grid_matches_scalar_planner(self, model):
        systems = list(SERVING_SYSTEMS)
        contexts = (128, 512, 1024, 2048, 8192, 32768, 131072)
        grid = capacity_grid(systems, model, contexts)
        arch = get_model(model).arch
        assert grid.shape == (len(systems), len(contexts))
        for i, name in enumerate(systems):
            for j, context in enumerate(contexts):
                ref = oracle.max_supported_batch(
                    get_system(name), arch, context
                )
                assert int(grid[i, j]) == ref, (name, model, context)
                assert max_supported_batch(
                    get_system(name), arch, context
                ) == ref


def _direct_iteration(system, arch, batch, context, ragged, mode):
    """One kernel call at exactly one context (no block, no cache)."""
    arrays = _iteration_arrays(
        _pair_params(system, arch, mode.compute_dtype),
        batch,
        context,
        ragged,
    )
    return tuple(float(arrays[name][0]) for name in BREAKDOWN_FIELDS)


def _fields(breakdown):
    return tuple(getattr(breakdown, name) for name in BREAKDOWN_FIELDS)


class TestBlockPricer:
    """``generation_iteration`` serves a context out of a block of
    ``_BLOCK_CONTEXTS`` consecutive contexts priced by one kernel
    call; the index arithmetic must be invisible."""

    MIXTRAL = get_model("mixtral-8x7b").arch

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("ragged", (False, True))
    def test_block_edges_equal_a_direct_kernel_call(self, mode, ragged):
        assert _BLOCK_CONTEXTS == 64  # the contexts below are its edges
        arch = get_model("llama2-13b").arch
        for name in ("oaken-hbm", "tender", "kivi-gpu"):
            system = get_system(name)
            for context in (1, 2, 63, 64, 65, 127, 128, 129, 40000):
                got = generation_iteration(
                    system, arch, 24, context, ragged=ragged, mode=mode
                )
                assert _fields(got) == _direct_iteration(
                    system, arch, 24, context, ragged, mode
                ), (name, context)
                if mode.exact:
                    assert got == oracle.generation_iteration(
                        system, arch, 24, context, ragged=ragged
                    )

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("window", (4096, 4100))
    def test_block_straddling_the_sliding_window(self, mode, window):
        # Mixtral's 4096-token window ends exactly on a block edge;
        # 4100 puts the knee inside the block 4097..4160.  Either way
        # contexts on both sides of the window come out of cached
        # blocks and must equal single-context kernel calls.
        arch = replace(self.MIXTRAL, sliding_window=window)
        system = get_system("oaken-lpddr")
        for context in range(window - 70, window + 70):
            got = generation_iteration(
                system, arch, 32, context, mode=mode
            )
            assert _fields(got) == _direct_iteration(
                system, arch, 32, context, False, mode
            ), context
            if mode.exact:
                assert got == oracle.generation_iteration(
                    system, arch, 32, context
                )
        below = generation_iteration(system, arch, 32, window, mode=mode)
        above = generation_iteration(
            system, arch, 32, window + 50, mode=mode
        )
        assert below.attn_s == above.attn_s  # the window binds

    @pytest.mark.parametrize("first", (0, 1))
    def test_same_name_different_weight_bits_never_share_an_entry(
        self, first
    ):
        # fig05 prices ad-hoc systems found in no registry; the cache
        # key is the frozen system's value, not its name or identity.
        arch = get_model("llama2-13b").arch
        fp16 = get_system("lpu")
        w4 = replace(fp16, weight_bits=4.25)
        assert fp16.name == w4.name and fp16 != w4
        order = (fp16, w4) if first == 0 else (w4, fp16)
        got = {
            system.weight_bits: generation_iteration(
                system, arch, 16, 1024
            )
            for system in order
        }
        assert got[16.0].nonattn_s != got[4.25].nonattn_s
        for system in order:
            assert got[system.weight_bits] == oracle.generation_iteration(
                system, arch, 16, 1024
            )
            assert prefill_time(system, arch, 16, 512) == (
                oracle.prefill_time(system, arch, 16, 512)
            )
            _assert_runs_identical(
                oracle.simulate_generation_run(system, arch, 16),
                simulate_generation_run(system, arch, 16),
                system,
            )

    def test_callers_get_their_own_breakdown(self):
        system = get_system("oaken-hbm")
        arch = get_model("llama2-7b").arch
        first = generation_iteration(system, arch, 8, 512)
        first.nonattn_s = -1.0
        assert generation_iteration(system, arch, 8, 512).nonattn_s > 0


class TestPipelineThroughKernel:
    """A pipeline stage is the kernel at ``layer_share < 1``."""

    @pytest.mark.parametrize(
        "name,model,batch,context",
        (
            ("vllm", "llama2-70b", 32, 1024),
            ("oaken-hbm", "llama2-13b", 16, 2048),
            ("kvquant-gpu", "mixtral-8x7b", 64, 8192),
            ("tender", "opt-30b", 7, 300),
        ),
    )
    def test_one_stage_equals_generation_iteration(
        self, name, model, batch, context
    ):
        system = get_system(name)
        arch = get_model(model).arch
        pipe = pipeline_generation_iteration(
            system, arch, batch, context, PipelinePlan.balanced(arch, 1)
        )
        mono = generation_iteration(system, arch, batch, context)
        (stage,) = pipe.stage_times
        assert stage.nonattn_s == mono.nonattn_s
        assert stage.attn_s == mono.attn_s
        assert stage.exposed_overhead_s == mono.exposed_overhead_s
        assert pipe.iteration_s == mono.total_s

    # Captured at the parent commit (PR 15), whose ``_stage_time`` was a
    # third spelling of the roofline: (system, model, batch, context,
    # stages) -> iteration_s, per-stage (nonattn, attn, exposed),
    # pipeline_max_batch at 2048 tokens.  All at M = 4 microbatches.
    PRE_CHANGE = (
        (
            ("vllm", "llama2-70b", 32, 1024, 2),
            0.19222645028571428,
            (0.037486592, 0.0009586980571428572, 0.0),
            12,
        ),
        (
            ("oaken-hbm", "llama2-13b", 16, 2048, 2),
            0.03817519489855073,
            (0.007073613913043478, 0.0005614250666666666, 0.0),
            271,
        ),
        (
            ("kvquant-gpu", "mixtral-8x7b", 64, 8192, 2),
            0.13749289992669508,
            (
                0.025381807860869566,
                0.0008140544877714286,
                0.0013027176366980223,
            ),
            738,
        ),
        (
            ("tender", "opt-30b", 7, 300, 3),
            0.06629975403644148,
            (0.010983952324637681, 5.7392e-05, 8.614681435897431e-06),
            261,
        ),
    )

    @pytest.mark.parametrize(
        "case,iteration_s,stage,max_batch", PRE_CHANGE,
        ids=[c[0][0] for c in PRE_CHANGE],
    )
    def test_multi_stage_plan_equals_pre_change_values(
        self, case, iteration_s, stage, max_batch
    ):
        name, model, batch, context, stages = case
        system = get_system(name)
        arch = get_model(model).arch
        plan = PipelinePlan.balanced(arch, stages, microbatches=4)
        pipe = pipeline_generation_iteration(
            system, arch, batch, context, plan
        )
        assert pipe.iteration_s == iteration_s
        assert len(pipe.stage_times) == stages
        for timing in pipe.stage_times:
            assert (
                timing.nonattn_s, timing.attn_s,
                timing.exposed_overhead_s,
            ) == stage
        assert pipeline_max_batch(system, arch, 2048, plan) == max_batch


class TestDeployF32Unchanged:
    """deploy_f32 has no float oracle; these literals were captured
    from the parent commit's one-point grid (PR 15), so routing the
    scalar entry points through the block pricer moved nothing."""

    CASES = (
        (
            ("oaken-lpddr", "llama2-13b", 16, 1024, False),
            (
                0.025722231715917587, 0.004083091393113136,
                7.281777652679011e-05, 0.0003368550387676805, 0.0,
                0.05179660767316818,
            ),
            1.9752873182296753,
            (False, 16, 475.5074462890625, 32.480533599853516),
        ),
        (
            ("kivi-gpu", "mistral-7b", 64, 5000, False),
            (
                0.007871158421039581, 0.007669584825634956,
                4.609125312526885e-07, 0.009970460087060928,
                0.009970921091735363, 0.11699055135250092,
            ),
            21.280427932739258,
            (False, 64, 3441.718017578125, 14.693194389343262),
        ),
        (
            ("tender", "llama2-7b", 128, 333, True),
            (
                0.02010449953377247, 0.0046624974347651005,
                4.3018499695790524e-07, 0.0006993746501393616,
                0.0006998048629611731, 0.21718376874923706,
            ),
            3.682882308959961,
            (False, 128, 2762.237060546875, 36.121490478515625),
        ),
        (
            ("oaken-hbm", "mixtral-8x7b", 32, 40000, False),
            (
                0.05076361447572708, 0.002919235732406378,
                2.330168899788987e-05, 0.0004378853482194245, 0.0,
                0.05701376125216484,
            ),
            153.03306579589844,
            (True, 0, 0.0, 0.0),
        ),
    )

    @pytest.mark.parametrize(
        "case,breakdown,prefill,run", CASES,
        ids=[c[0][0] for c in CASES],
    )
    def test_scalar_entry_points(self, case, breakdown, prefill, run):
        name, model, batch, context, ragged = case
        system = get_system(name)
        arch = get_model(model).arch
        got = generation_iteration(
            system, arch, batch, context, ragged=ragged,
            mode="deploy_f32",
        )
        assert _fields(got) == breakdown
        assert prefill_time(
            system, arch, batch, context, mode="deploy_f32"
        ) == prefill
        result = simulate_generation_run(
            system, arch, batch, mode="deploy_f32"
        )
        assert (
            result.oom, result.effective_batch, result.tokens_per_s,
            result.generation_s,
        ) == run


_SYSTEM = get_system("oaken-hbm")
_ARCH = get_model("llama2-13b").arch
_POINT = GridPoint(model="llama2-13b", system="oaken-hbm", batch=16)
_TWO_STAGE = PipelinePlan.balanced(_ARCH, 2)

#: Hostile analytic inputs: each must raise ValueError at the kernel
#: boundary instead of pricing a negative batch or an empty context.
HOSTILE_CALLS = {
    "iteration-batch-0": lambda: generation_iteration(
        _SYSTEM, _ARCH, 0, 1024
    ),
    "iteration-batch-negative-f32": lambda: generation_iteration(
        _SYSTEM, _ARCH, -4, 1024, mode="deploy_f32"
    ),
    "iteration-context-0": lambda: generation_iteration(
        _SYSTEM, _ARCH, 16, 0
    ),
    "iteration-context-negative": lambda: generation_iteration(
        _SYSTEM, _ARCH, 16, -5
    ),
    "prefill-batch-0": lambda: prefill_time(_SYSTEM, _ARCH, 0, 128),
    "prefill-prompt-negative": lambda: prefill_time(
        _SYSTEM, _ARCH, 4, -1
    ),
    "run-batch-negative": lambda: simulate_generation_run(
        _SYSTEM, _ARCH, -4
    ),
    "run-input-negative": lambda: simulate_generation_run(
        _SYSTEM, _ARCH, 4, input_tokens=-1
    ),
    "run-output-negative": lambda: simulate_generation_run(
        _SYSTEM, _ARCH, 4, output_tokens=-1
    ),
    "run-empty-context": lambda: simulate_generation_run(
        _SYSTEM, _ARCH, 4, input_tokens=0, output_tokens=0
    ),
    "capacity-context-0": lambda: max_supported_batch(
        _SYSTEM, _ARCH, 0
    ),
    "capacity-context-negative": lambda: max_supported_batch(
        _SYSTEM, _ARCH, -5
    ),
    "pipeline-batch-0": lambda: pipeline_generation_iteration(
        _SYSTEM, _ARCH, 0, 1024, _TWO_STAGE
    ),
    "pipeline-context-0": lambda: pipeline_generation_iteration(
        _SYSTEM, _ARCH, 16, 0, _TWO_STAGE
    ),
    "pipeline-capacity-context-0": lambda: pipeline_max_batch(
        _SYSTEM, _ARCH, 0, _TWO_STAGE
    ),
    "grid-iteration-batch": lambda: iteration_grid(
        [_POINT, replace(_POINT, batch=0)], 1024
    ),
    "grid-iteration-context": lambda: iteration_grid([_POINT], 0),
    "grid-run-batch": lambda: simulate_generation_grid(
        [_POINT, replace(_POINT, batch=-4)]
    ),
    "grid-run-tokens": lambda: simulate_generation_grid(
        [_POINT], output_tokens=-1
    ),
    "grid-capacity-context": lambda: capacity_grid(
        ["vllm", "oaken-hbm"], "llama2-13b", [1024, 0]
    ),
}

HOSTILE_COMMANDS = (
    ["throughput", "--batch", "-4"],
    ["throughput", "--batch", "0"],
    ["throughput", "--output-tokens", "-1"],
    ["capacity", "--context", "0"],
    ["capacity", "--context", "-5"],
)


class TestHostileInputs:
    @pytest.mark.parametrize("case", sorted(HOSTILE_CALLS))
    def test_entry_points_raise_value_error(self, case):
        # Twice: a rejected request must not leave a cache entry that
        # answers the second call.
        for _ in range(2):
            with pytest.raises(ValueError, match="must be >="):
                HOSTILE_CALLS[case]()

    @pytest.mark.parametrize(
        "argv", HOSTILE_COMMANDS, ids=lambda argv: " ".join(argv)
    )
    def test_commands_exit_nonzero_with_the_message(self, argv, capsys):
        assert main(argv) != 0
        captured = capsys.readouterr()
        assert "must be >=" in captured.err
        assert "tokens/s" not in captured.out
        assert "max_batch" not in captured.out


class TestAreaGrid:
    def test_area_grid_element_identical_to_scalar(self):
        grid = area_grid(TABLE4_CONFIGS)
        for i, config in enumerate(TABLE4_CONFIGS):
            model = AreaModel(config)
            report = model.core_report()
            assert grid["quant_engine_mm2"][i] == (
                report.areas_mm2["quant_engine"]
            )
            assert grid["dequant_engine_mm2"][i] == (
                report.areas_mm2["dequant_engine"]
            )
            assert grid["core_area_mm2"][i] == report.core_area_mm2
            assert grid["oaken_overhead_percent"][i] == (
                report.oaken_overhead_percent
            )
            assert grid["accelerator_power_w"][i] == (
                model.accelerator_power_w()
            )
            assert grid["power_saving_vs_gpu_percent"][i] == (
                model.power_saving_vs_gpu()
            )

    def test_run_table4_unchanged_by_vectorization(self):
        labels = [f"cfg{i}" for i in range(len(TABLE4_CONFIGS))]
        results = run_table4(TABLE4_CONFIGS, labels)
        for config, result in zip(TABLE4_CONFIGS, results):
            model = AreaModel(config)
            ref = model.core_report()
            assert result.report.areas_mm2 == ref.areas_mm2
            assert result.oaken_overhead_percent == (
                ref.oaken_overhead_percent
            )
            assert result.accelerator_power_w == model.accelerator_power_w()
            assert result.power_saving_vs_a100_percent == (
                model.power_saving_vs_gpu()
            )


class TestFig11Rewire:
    def test_run_fig11_matches_scalar_loop(self):
        cells = run_fig11()
        index = 0
        for model in FIG11_MODELS:
            arch = get_model(model).arch
            for batch in FIG11_BATCHES:
                for name in systems_for_model(model, FIG11_SYSTEMS):
                    ref = oracle.simulate_generation_run(
                        get_system(name), arch, batch
                    )
                    cell = cells[index]
                    index += 1
                    assert (cell.model, cell.system, cell.batch) == (
                        model, name, batch
                    )
                    assert cell.oom == ref.oom
                    expected = 0.0 if ref.oom else ref.tokens_per_s
                    assert cell.tokens_per_s == expected
        assert index == len(cells)

