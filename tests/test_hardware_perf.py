"""Unit tests for devices, overhead profiles, and the perf model."""

import pytest

from repro.hardware.accelerator import DEVICES, get_device
from repro.hardware.overheads import (
    PROFILES,
    SERVING_SYSTEMS,
    get_system,
)
from repro.hardware.perf import (
    generation_iteration,
    kv_bytes_per_token,
    max_supported_batch,
    prefill_time,
    simulate_generation_run,
    weight_bytes,
)
from repro.models.config import get_model

ARCH_7B = get_model("llama2-7b").arch
ARCH_70B = get_model("llama2-70b").arch


class TestDeviceCatalog:
    def test_paper_platforms_present(self):
        for name in (
            "a100", "a100x2", "oaken-hbm", "oaken-lpddr", "lpu-lpddr",
            "lpu-hbm", "tender",
        ):
            assert name in DEVICES

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            get_device("h100")

    def test_table1_specs(self):
        a100 = get_device("a100")
        assert a100.peak_fp16_tflops == 312.0
        assert a100.memory.capacity_gb == 80.0
        oaken = get_device("oaken-lpddr")
        assert oaken.peak_fp16_tflops == 270.0
        assert oaken.memory.capacity_gb == 256.0
        assert oaken.tdp_watts == pytest.approx(222.7)

    def test_gpu_pages_npu_does_not(self):
        assert get_device("a100").paged_serving
        assert not get_device("oaken-lpddr").paged_serving


class TestSystems:
    def test_figure_systems_present(self):
        for name in (
            "vllm", "kvquant-gpu", "kivi-gpu", "qserve-gpu",
            "oaken-gpu", "tender", "lpu", "oaken-lpddr", "oaken-hbm",
        ):
            assert name in SERVING_SYSTEMS

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            get_system("tpu")

    def test_large_models_use_two_devices(self):
        system = get_system("vllm")
        assert system.device_for(ARCH_7B).name == "a100"
        assert system.device_for(ARCH_70B).name == "a100x2"

    def test_kv_bits_paper_values(self):
        # Table 2 bottom rows at Llama2-7B width (kv_dim=4096).
        assert get_system("oaken-lpddr").kv_bits(ARCH_7B) == (
            pytest.approx(4.82, abs=0.01)
        )
        assert get_system("qserve-gpu").kv_bits(ARCH_7B) == (
            pytest.approx(4.25, abs=0.01)
        )
        assert get_system("kivi-gpu").kv_bits(ARCH_7B) == (
            pytest.approx(5.0, abs=0.01)
        )
        assert get_system("tender").kv_bits(ARCH_7B) == (
            pytest.approx(4.01, abs=0.01)
        )
        assert get_system("vllm").kv_bits(ARCH_7B) == 16.0

    def test_oaken_gqa_bitwidth(self):
        # Llama2-70B (kv_dim=1024): paper reports 4.89.
        assert get_system("oaken-lpddr").kv_bits(ARCH_70B) == (
            pytest.approx(4.89, abs=0.01)
        )

    def test_overlap_flags(self):
        assert PROFILES["oaken-engine"].overlapped
        assert not PROFILES["kvquant-gpu"].overlapped


class TestCapacity:
    def test_max_batch_shrinks_with_context(self):
        system = get_system("oaken-lpddr")
        short = max_supported_batch(system, ARCH_7B, 1024)
        long = max_supported_batch(system, ARCH_7B, 8192)
        assert short > long

    def test_quantization_grows_max_batch(self):
        quantized = max_supported_batch(
            get_system("oaken-lpddr"), ARCH_7B, 2048
        )
        fp16 = max_supported_batch(get_system("lpu"), ARCH_7B, 2048)
        assert quantized > 2.5 * fp16

    def test_zero_budget_when_weights_exceed_memory(self):
        # 70B FP16 weights (~128 GB) cannot fit one 80 GB HBM NPU.
        assert max_supported_batch(
            get_system("oaken-hbm"), ARCH_70B, 2048
        ) == 0

    def test_weight_bytes_scaling(self):
        assert weight_bytes(ARCH_7B, 4.0) == pytest.approx(
            weight_bytes(ARCH_7B, 16.0) / 4.0
        )

    def test_kv_bytes_helper(self):
        assert kv_bytes_per_token(ARCH_7B, 16.0) == pytest.approx(
            2 * 32 * 4096 * 2
        )


class TestIterationModel:
    def test_attention_grows_with_context(self):
        system = get_system("oaken-lpddr")
        short = generation_iteration(system, ARCH_7B, 32, 512)
        long = generation_iteration(system, ARCH_7B, 32, 4096)
        assert long.attn_s > 4 * short.attn_s
        assert long.nonattn_s == pytest.approx(short.nonattn_s)

    def test_attention_grows_with_batch(self):
        system = get_system("vllm")
        small = generation_iteration(system, ARCH_7B, 8, 1024)
        large = generation_iteration(system, ARCH_7B, 64, 1024)
        assert large.attn_s > 4 * small.attn_s

    def test_quantization_shrinks_attention(self):
        context = 2048
        lpu = generation_iteration(get_system("lpu"), ARCH_7B, 32, context)
        oaken = generation_iteration(
            get_system("oaken-lpddr"), ARCH_7B, 32, context
        )
        ratio = oaken.attn_s / lpu.attn_s
        assert ratio == pytest.approx(4.82 / 16.0, abs=0.05)

    def test_oaken_overhead_hidden(self):
        breakdown = generation_iteration(
            get_system("oaken-lpddr"), ARCH_7B, 64, 2048
        )
        assert breakdown.exposed_overhead_s == 0.0
        assert breakdown.quant_s > 0
        assert breakdown.dequant_s > 0

    def test_gpu_software_overhead_exposed(self):
        breakdown = generation_iteration(
            get_system("kvquant-gpu"), ARCH_7B, 64, 2048
        )
        assert breakdown.exposed_overhead_s > 0

    def test_ragged_penalty_slows_tender(self):
        smooth = generation_iteration(
            get_system("tender"), ARCH_7B, 64, 512, ragged=False
        )
        ragged = generation_iteration(
            get_system("tender"), ARCH_7B, 64, 512, ragged=True
        )
        assert ragged.total_s >= smooth.total_s

    def test_utilization_below_one(self):
        breakdown = generation_iteration(
            get_system("vllm"), ARCH_7B, 64, 1024
        )
        assert 0.0 < breakdown.compute_util < 1.0


class TestGenerationRun:
    def test_throughput_positive(self):
        run = simulate_generation_run(
            get_system("oaken-lpddr"), ARCH_7B, 64
        )
        assert not run.oom
        assert run.tokens_per_s > 0
        assert run.effective_batch == 64

    def test_npu_oom_semantics(self):
        run = simulate_generation_run(get_system("lpu"), ARCH_7B, 256)
        assert run.oom
        assert run.tokens_per_s == 0.0

    def test_gpu_paging_saturates(self):
        small = simulate_generation_run(get_system("vllm"), ARCH_7B, 64)
        big = simulate_generation_run(get_system("vllm"), ARCH_7B, 256)
        assert not big.oom
        assert big.effective_batch < 256
        assert big.tokens_per_s == pytest.approx(
            small.tokens_per_s, rel=0.35
        )

    def test_throughput_monotone_until_saturation(self):
        system = get_system("oaken-lpddr")
        rates = [
            simulate_generation_run(system, ARCH_7B, b).tokens_per_s
            for b in (16, 32, 64, 128)
        ]
        assert rates == sorted(rates)

    def test_prefill_scales_with_prompt(self):
        system = get_system("vllm")
        assert prefill_time(system, ARCH_7B, 8, 2048) > (
            1.5 * prefill_time(system, ARCH_7B, 8, 1024)
        )

    def test_headline_speedup_direction(self):
        """Oaken-LPDDR beats vLLM and QServe at batch 256 (Fig 11)."""
        oaken = simulate_generation_run(
            get_system("oaken-lpddr"), ARCH_7B, 256
        )
        vllm = simulate_generation_run(get_system("vllm"), ARCH_7B, 256)
        qserve = simulate_generation_run(
            get_system("qserve-gpu"), ARCH_7B, 256
        )
        assert oaken.tokens_per_s > qserve.tokens_per_s
        assert oaken.tokens_per_s > 1.5 * vllm.tokens_per_s

