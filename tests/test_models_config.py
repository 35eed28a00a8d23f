"""Unit tests for the model zoo and architecture math."""

import dataclasses
import pickle

import pytest

from repro.hardware.overheads import get_system
from repro.models.config import (
    MODEL_ZOO,
    ArchShape,
    get_model,
    list_models,
)


class TestZoo:
    def test_eight_paper_models(self):
        assert len(MODEL_ZOO) == 8
        for name in (
            "llama2-7b", "llama2-13b", "llama2-70b", "opt-6.7b",
            "opt-13b", "opt-30b", "mistral-7b", "mixtral-8x7b",
        ):
            assert name in MODEL_ZOO

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            get_model("gpt-5")

    def test_list_models_order(self):
        assert list_models()[0] == "llama2-7b"

    def test_family_properties(self):
        assert get_model("llama2-7b").uses_rope
        assert not get_model("opt-13b").uses_rope
        assert get_model("opt-13b").norm == "layernorm"
        assert get_model("mistral-7b").norm == "rmsnorm"

    def test_gqa_models(self):
        assert get_model("llama2-70b").arch.n_kv_heads == 8
        assert get_model("mistral-7b").arch.n_kv_heads == 8
        assert get_model("llama2-7b").arch.n_kv_heads == 32

    def test_sliding_window_models(self):
        assert get_model("mistral-7b").arch.sliding_window == 4096
        assert get_model("llama2-7b").arch.sliding_window is None

    def test_moe_model(self):
        arch = get_model("mixtral-8x7b").arch
        assert arch.n_experts == 8
        assert arch.experts_per_token == 2

    def test_sim_shapes_runnable(self):
        for spec in MODEL_ZOO.values():
            sim = spec.sim
            assert sim.n_heads * sim.head_dim > 0
            assert sim.n_heads % sim.n_kv_heads == 0


class TestArchMath:
    def test_llama2_7b_param_count(self):
        params = get_model("llama2-7b").arch.params
        assert 6.0e9 < params < 7.5e9

    def test_llama2_70b_param_count(self):
        params = get_model("llama2-70b").arch.params
        assert 60e9 < params < 75e9

    def test_mixtral_total_vs_active(self):
        arch = get_model("mixtral-8x7b").arch
        assert 40e9 < arch.params < 50e9
        assert 10e9 < arch.active_params < 16e9
        assert arch.active_params < arch.params

    def test_kv_bytes_per_token_7b(self):
        arch = get_model("llama2-7b").arch
        # 2 x 32 layers x 4096 x 2 bytes = 512 KiB.
        assert arch.kv_bytes_per_token(16.0) == pytest.approx(
            2 * 32 * 4096 * 2
        )

    def test_kv_bytes_scale_with_bits(self):
        arch = get_model("llama2-7b").arch
        assert arch.kv_bytes_per_token(4.0) == pytest.approx(
            arch.kv_bytes_per_token(16.0) / 4.0
        )

    def test_gqa_shrinks_kv(self):
        dense = get_model("llama2-7b").arch
        gqa = get_model("mistral-7b").arch
        assert gqa.kv_bytes_per_token() < dense.kv_bytes_per_token() / 3

    def test_weight_bytes(self):
        arch = get_model("llama2-7b").arch
        assert arch.weight_bytes(16.0) == pytest.approx(arch.params * 2)
        assert arch.weight_bytes(4.0) == pytest.approx(arch.params / 2)

    def test_attended_length_with_window(self):
        arch = get_model("mistral-7b").arch
        assert arch.attended_length(1000) == 1000
        assert arch.attended_length(10000) == 4096

    def test_attention_flops_grow_with_context(self):
        arch = get_model("llama2-7b").arch
        assert arch.flops_per_token_attn(2048) > (
            arch.flops_per_token_attn(1024)
        )

    def test_window_caps_attention_flops(self):
        arch = get_model("mistral-7b").arch
        assert arch.flops_per_token_attn(8192) == (
            arch.flops_per_token_attn(4096)
        )


class TestHashOnce:
    """``ArchShape`` and ``ServingSystem`` key the analytic pricer's LRU
    cache by value and hash their fields once."""

    @pytest.mark.parametrize("make", [
        lambda: get_model("llama2-13b").arch,
        lambda: get_system("oaken-hbm"),
    ])
    def test_equal_values_hash_equal(self, make):
        one = make()
        hash(one)  # keeps the value on ``one`` only
        twin = dataclasses.replace(one)
        assert twin == one and twin is not one
        assert hash(twin) == hash(one)
        assert hash(one) == hash(
            tuple(getattr(one, f.name) for f in dataclasses.fields(one))
        )
        # The kept hash never travels: string hashes are per process.
        assert "_hash" not in pickle.loads(pickle.dumps(one)).__dict__
        assert dataclasses.asdict(twin) == dataclasses.asdict(one)

    def test_different_values_key_different_entries(self):
        arch = get_model("llama2-13b").arch
        wider = dataclasses.replace(arch, d_model=arch.d_model + 1)
        assert len({arch, wider, dataclasses.replace(arch)}) == 2
