"""Differential tests of the row-stacked fused kernel.

A layer's keys and values go through the fused kernel as one
``[keys; values]`` row stack (:class:`repro.core.quantizer.LayerEncoder`).
The kernel is row-local, so the stacked encode must equal the two
per-tensor encodes — and, in ``exact_f64``, the frozen seed encoder in
:mod:`repro.core.reference` — on every :class:`EncodedKV` field: dtype,
shape and bytes.  Bytes, not ``==``: a flipped sign of zero or a
different NaN would be a different stored tensor.

The decode half has the same contract on both stores: the arena
gathers a layer's pending ``[K rows; V rows]`` once, the chunk store
joins its pending ``[key chunks; value chunks]`` once, each decodes
them with one call, and what a pool read returns must equal the
per-tensor decode, the method's one-shot ``roundtrip()`` and the
reference, byte for byte.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import TABLE3_CONFIGURATIONS, OakenConfig
from repro.core.encoding import EncodedKV, concat_encoded, split_encoded
from repro.core import kvcache
from repro.core.kvcache import LayerKVCache
from repro.core.quantizer import LayerEncoder, OakenQuantizer
from repro.core.reference import ReferenceOakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.engine import KVCachePool, TieredKVStore, shared_backend_factory
from repro.hardware.datapath import EngineBackedQuantizer
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.request import Request
from repro.serving.simulator import CacheReplayConfig, _CacheReplay

from conftest import encode_chunks, make_kv_matrix

CONFIGS = {
    f"{ratio}@{bits}": OakenConfig.from_ratio_string(
        ratio, outlier_bits=bits
    )
    for ratio, bits in TABLE3_CONFIGURATIONS
}
CONFIGS["no-group-shift"] = OakenConfig(group_shift=False)
CONFIGS["no-fused-encoding"] = OakenConfig(fused_encoding=False)
# TABLE3 already holds the one-sided splits; name them so a failure
# says which structural case broke.
CONFIGS["no-outer-band"] = OakenConfig.from_ratio_string("90/10")
CONFIGS["no-inner-band"] = OakenConfig.from_ratio_string("10/90")

MODES = ("exact_f64", "deploy_f32")
DIMS = (24, 32, 128)
TOKENS = (1, 2, 6, 50, 200)

_ARRAYS = tuple(
    field.name
    for field in dataclasses.fields(EncodedKV)
    if field.name
    not in ("config", "thresholds", "shape", "_cached_footprint")
)


def assert_same_encoding(expected, actual, what=""):
    """Every field equal: config, thresholds, shape, then each array's
    dtype, shape and bytes."""
    assert actual.config == expected.config, what
    assert actual.thresholds == expected.thresholds, what
    assert actual.shape == expected.shape, what
    for name in _ARRAYS:
        want, got = getattr(expected, name), getattr(actual, name)
        if want is None or got is None:
            assert want is None and got is None, f"{what}{name}"
            continue
        assert got.dtype == want.dtype, f"{what}{name}: dtype"
        assert got.shape == want.shape, f"{what}{name}: shape"
        assert got.tobytes() == want.tobytes(), f"{what}{name}: values"


def _pair(config, dim, mode, cls=OakenQuantizer):
    """A layer's key and value quantizers, fitted to different data."""
    keys = make_kv_matrix(tokens=96, dim=dim, seed=11,
                          outlier_channels=(3, 17))
    values = 0.5 * make_kv_matrix(tokens=96, dim=dim, seed=12,
                                  outlier_channels=(5,))
    return (
        cls(config, profile_thresholds([keys], config), mode),
        cls(config, profile_thresholds([values], config), mode),
    )


def _rows(tokens, dim, seed):
    return (
        make_kv_matrix(tokens=tokens, dim=dim, seed=seed,
                       outlier_channels=(3, 17)),
        0.5 * make_kv_matrix(tokens=tokens, dim=dim, seed=seed + 1,
                             outlier_channels=(5,)),
    )


def _hostile(dim, thresholds):
    """Rows a serving stream can contain and a kernel can trip on."""
    rng = np.random.default_rng(5)
    past_outer = 4.0 * max(
        [abs(t) for t in thresholds.outer_lo + thresholds.outer_hi]
        + [1.0]
    )
    rows = {
        "all-zero": np.zeros(dim),
        "zero-variance": np.full(dim, 0.37),
        "all-outlier": past_outer * rng.choice([-1.0, 1.0], dim),
        "nan": rng.standard_normal(dim),
        "pos-inf": rng.standard_normal(dim),
        "neg-inf": rng.standard_normal(dim),
        "fp16-overflow": rng.standard_normal(dim),
        "plain": rng.standard_normal(dim),
    }
    rows["nan"][2] = np.nan
    rows["pos-inf"][3] = np.inf
    rows["neg-inf"][4] = -np.inf
    rows["fp16-overflow"][5] = 1.0e5  # FP16 tops out at 65504
    rows["fp16-overflow"][6] = -3.0e38
    return np.stack(list(rows.values()))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestStackedEqualsPerTensor:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("tokens", TOKENS)
    def test_every_field(self, name, mode, dim, tokens):
        config = CONFIGS[name]
        key_q, value_q = _pair(config, dim, mode)
        encoder = LayerEncoder(key_q, value_q)
        assert encoder.stacked is not None and len(encoder.parts) == 1
        keys, values = _rows(tokens, dim, seed=100 + tokens)
        (stacked_keys,), (stacked_values,) = encode_chunks(
            encoder, [keys], [values]
        )
        assert_same_encoding(key_q.quantize(keys), stacked_keys, "keys.")
        assert_same_encoding(
            value_q.quantize(values), stacked_values, "values."
        )
        if mode == "exact_f64":
            ref_k, ref_v = _pair(config, dim, mode, ReferenceOakenQuantizer)
            assert_same_encoding(
                ref_k.quantize(keys), stacked_keys, "ref keys."
            )
            assert_same_encoding(
                ref_v.quantize(values), stacked_values, "ref values."
            )
        # The decode of a stacked block is the per-tensor decode.
        assert (
            key_q.dequantize(stacked_keys).tobytes()
            == key_q.roundtrip(keys).tobytes()
        )
        assert (
            value_q.dequantize(stacked_values).tobytes()
            == value_q.roundtrip(values).tobytes()
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_hostile_rows(self, name, mode):
        config = CONFIGS[name]
        dim = 32
        key_q, value_q = _pair(config, dim, mode)
        encoder = LayerEncoder(key_q, value_q)
        keys = _hostile(dim, key_q.thresholds)
        values = _hostile(dim, value_q.thresholds)[::-1].copy()
        (stacked_keys,), (stacked_values,) = encode_chunks(
            encoder, [keys], [values]
        )
        assert_same_encoding(key_q.quantize(keys), stacked_keys, "keys.")
        assert_same_encoding(
            value_q.quantize(values), stacked_values, "values."
        )
        if mode == "exact_f64":
            ref_k, ref_v = _pair(config, dim, mode, ReferenceOakenQuantizer)
            assert_same_encoding(
                ref_k.quantize(keys), stacked_keys, "ref keys."
            )
            assert_same_encoding(
                ref_v.quantize(values), stacked_values, "ref values."
            )
        stacked = encoder.stacked
        whole = stacked.quantize(np.concatenate([keys, values]))
        assert (
            stacked.dequantize(whole).tobytes()
            == np.concatenate(
                [key_q.roundtrip(keys), value_q.roundtrip(values)]
            ).tobytes()
        )


class TestRowBlocks:
    """How a stacked encode is handed back, and joined again."""

    def test_blocks_carry_their_own_thresholds(self):
        key_q, value_q = _pair(OakenConfig(), 32, "deploy_f32")
        encoder = LayerEncoder(key_q, value_q)
        keys, values = _rows(6, 32, seed=3)
        whole = encoder.stacked.quantize(np.concatenate([keys, values]))
        assert whole.thresholds == (key_q.thresholds, value_q.thresholds)
        key_block, value_block = split_encoded(whole, [6])
        assert key_block.thresholds is key_q.thresholds
        assert value_block.thresholds is value_q.thresholds
        assert key_block.dense_codes.base is None  # owns its arrays

    @pytest.mark.parametrize("counts", [[6], [1, 0, 4, 1], [0], []])
    def test_zero_row_chunks_keep_their_blocks_thresholds(self, counts):
        """A block is told by position in the split, never by a row
        offset — which an empty chunk at a block edge does not have."""
        key_q, value_q = _pair(OakenConfig(), 32, "deploy_f32")
        encoder = LayerEncoder(key_q, value_q)
        keys, values = _rows(sum(counts), 32, seed=3)
        whole = encoder.stacked.quantize(np.concatenate([keys, values]))
        chunks = split_encoded(whole, counts)
        assert [c.num_tokens for c in chunks] == counts * 2
        for chunk in chunks[: len(counts)]:
            assert chunk.thresholds is key_q.thresholds
        for chunk in chunks[len(counts) :]:
            assert chunk.thresholds is value_q.thresholds

    def test_concat_is_the_inverse_of_split(self):
        key_q, value_q = _pair(OakenConfig(), 32, "deploy_f32")
        encoder = LayerEncoder(key_q, value_q)
        keys, values = _rows(7, 32, seed=8)
        whole = encoder.stacked.quantize(np.concatenate([keys, values]))
        chunks = split_encoded(whole, [1, 0, 4, 2])
        joined = concat_encoded(chunks[:4], chunks[4:])
        assert joined.thresholds[0] is key_q.thresholds
        assert joined.thresholds[1] is value_q.thresholds
        assert_same_encoding(whole, joined)
        assert (
            encoder.stacked.dequantize(joined).tobytes()
            == encoder.stacked.dequantize(whole).tobytes()
        )

    def test_concat_validates_each_block_against_its_own_thresholds(self):
        key_q, value_q = _pair(OakenConfig(), 32, "deploy_f32")
        keys, values = _rows(3, 32, seed=9)
        key_chunks = [key_q.quantize(keys), key_q.quantize(keys)]
        value_chunks = [value_q.quantize(values), value_q.quantize(values)]
        concat_encoded(key_chunks, value_chunks)  # fine
        with pytest.raises(ValueError, match="different thresholds"):
            concat_encoded(key_chunks, [value_chunks[0], key_chunks[1]])
        with pytest.raises(ValueError, match="must be equal"):
            concat_encoded(key_chunks, value_chunks[:1])
        with pytest.raises(ValueError, match="zero chunks"):
            concat_encoded(key_chunks, [])

    def test_chunks_match_per_sequence_encodes(self):
        key_q, value_q = _pair(OakenConfig(), 32, "deploy_f32")
        encoder = LayerEncoder(key_q, value_q)
        keys, values = _rows(7, 32, seed=4)
        counts = [1, 0, 4, 2]
        bounds = np.cumsum([0] + counts)
        key_blocks = [keys[a:b] for a, b in zip(bounds, bounds[1:])]
        value_blocks = [values[a:b] for a, b in zip(bounds, bounds[1:])]
        key_chunks, value_chunks = encode_chunks(
            encoder, key_blocks, value_blocks
        )
        for block, chunk in zip(key_blocks, key_chunks):
            assert_same_encoding(key_q.quantize(block), chunk)
            assert chunk.dense_codes.base is None  # owns its arrays
        for block, chunk in zip(value_blocks, value_chunks):
            assert_same_encoding(value_q.quantize(block), chunk)
            assert chunk.dense_codes.base is None

    def test_counts_partition_one_block(self):
        """A chunk cannot straddle two blocks: the counts describe one
        block and every block splits alike."""
        key_q, value_q = _pair(OakenConfig(), 32, "deploy_f32")
        encoder = LayerEncoder(key_q, value_q)
        keys, values = _rows(4, 32, seed=5)
        whole = encoder.stacked.quantize(np.concatenate([keys, values]))
        with pytest.raises(ValueError, match="2 row block"):
            split_encoded(whole, [3, 2, 3])
        assert [c.num_tokens for c in split_encoded(whole, [3, 1])] == [
            3, 1, 3, 1,
        ]

    def test_uneven_stack_rejected(self):
        key_q, value_q = _pair(OakenConfig(), 32, "deploy_f32")
        stacked = LayerEncoder(key_q, value_q).stacked
        with pytest.raises(ValueError, match="equal row blocks"):
            stacked.quantize(np.zeros((5, 32)))


class TestPairing:
    """Which quantizer pairs share a kernel call."""

    def test_other_kernels_keep_their_per_tensor_path(self):
        key_q, value_q = _pair(
            OakenConfig(), 32, "exact_f64", ReferenceOakenQuantizer
        )
        encoder = LayerEncoder(key_q, value_q)
        assert encoder.stacked is None and len(encoder.parts) == 2
        keys, values = _rows(3, 32, seed=6)
        (got_keys,), (got_values,) = encode_chunks(encoder, [keys], [values])
        assert_same_encoding(key_q.quantize(keys), got_keys)
        assert_same_encoding(value_q.quantize(values), got_values)

    def test_unequal_config_or_mode_is_not_paired(self):
        key_q, _ = _pair(OakenConfig(), 32, "exact_f64")
        _, other_mode = _pair(OakenConfig(), 32, "deploy_f32")
        _, other_config = _pair(OakenConfig(outlier_bits=4), 32, "exact_f64")
        assert LayerEncoder(key_q, other_mode).stacked is None
        assert LayerEncoder(key_q, other_config).stacked is None


# -- call-count guard ---------------------------------------------------
#
# One kernel call per layer per append, wherever a layer's rows are
# encoded — so a per-tensor call cannot silently come back.

LAYERS = 2
DIM = 16


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every encode-kernel entry as ``(class, method, input rows)``."""
    calls = []
    for owner, names in (
        (OakenQuantizer, ("quantize", "quantize_into")),
        # (it calls the kernel itself; its quantize goes through
        # its own quantize_into)
        (EngineBackedQuantizer, ("quantize_into",)),
    ):
        for name in names:
            original = vars(owner)[name]

            def counting(self, values, *args, _o=original, _n=name):
                calls.append(
                    (type(self).__name__, _n, np.atleast_2d(values).shape[0])
                )
                return _o(self, values, *args)

            monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture(scope="module")
def calibration():
    return [
        (
            make_kv_matrix(tokens=48, dim=DIM, seed=70 + layer,
                           outlier_channels=(1, 5)),
            make_kv_matrix(tokens=48, dim=DIM, seed=80 + layer,
                           outlier_channels=(1, 5)),
        )
        for layer in range(LAYERS)
    ]


def _pool(calibration, store, kind="auto", mode="deploy_f32"):
    factory = shared_backend_factory(
        "oaken", kind, calibration=calibration, mode=mode
    )
    tiering = None
    if store == "tiered":
        tiering = TieredKVStore(device_budget_bytes=2048.0, page_bytes=256.0)
    return KVCachePool(factory, tiering=tiering, arena=store == "arena")


def _updates(seq_ids, rows, seed):
    rng = np.random.default_rng(seed)
    return {
        seq_id: (
            rng.standard_normal((rows, DIM)).astype(np.float32),
            rng.standard_normal((rows, DIM)).astype(np.float32),
        )
        for seq_id in seq_ids
    }


class TestOneKernelCallPerLayer:
    @pytest.mark.parametrize("store", ["arena", "chunked", "tiered"])
    def test_pool_append_and_append_batch(
        self, calibration, kernel_calls, store
    ):
        pool = _pool(calibration, store)
        seq_ids = [0, 1, 2]
        for seq_id in seq_ids:
            pool.allocate(seq_id)
        for layer in range(LAYERS):
            # The prompt path: one sequence, many rows.
            del kernel_calls[:]
            keys, values = _updates([0], 5, seed=layer)[0]
            pool.append(0, layer, keys, values)
            assert kernel_calls == [("OakenQuantizer", "quantize_into", 10)]
            # The decode path: many sequences, one row each.
            del kernel_calls[:]
            before = pool.batched_encodes
            pool.append_batch(layer, _updates(seq_ids, 1, seed=9 + layer))
            assert kernel_calls == [("OakenQuantizer", "quantize_into", 6)]
            assert pool.batched_encodes == before + 1
        pool.check_invariants()

    def test_chunks_carry_the_right_tensors_thresholds(
        self, calibration, kernel_calls
    ):
        pool = _pool(calibration, "chunked")
        for seq_id in (0, 1):
            pool.allocate(seq_id)
        pool.append(0, 0, *_updates([0], 3, seed=1)[0])
        pool.append_batch(0, _updates([0, 1], 1, seed=2))
        for seq_id in (0, 1):
            layer = pool.get(seq_id).layers[0]
            assert layer.key_quantizer.thresholds != (
                layer.value_quantizer.thresholds
            )
            for chunk in layer._key_chunks:
                assert chunk.thresholds is layer.key_quantizer.thresholds
            for chunk in layer._value_chunks:
                assert chunk.thresholds is layer.value_quantizer.thresholds

    def _replay(self, **overrides):
        config = CacheReplayConfig(
            num_layers=LAYERS, dim=DIM, prompt_rows=4, **overrides
        )
        engine = _CacheReplay(
            config, get_system("oaken-hbm"), get_model("llama2-13b").arch
        )
        requests = [
            Request(request_id=rid, arrival_s=0.0, input_tokens=32,
                    output_tokens=8)
            for rid in range(3)
        ]
        for request in requests:
            engine.admit(request)
        return engine, requests

    @pytest.mark.parametrize("arena", [False, True])
    def test_one_replay_step(self, kernel_calls, arena):
        engine, requests = self._replay(arena=arena)
        del kernel_calls[:]
        engine.step(requests)
        assert kernel_calls == (
            [("OakenQuantizer", "quantize_into", 6)] * LAYERS
        )
        assert 0 < engine.pool.batched_encodes <= engine.batched_appends

    def test_engine_backed_replay_keeps_two_calls(self, kernel_calls):
        """The datapath models count cycles per tensor: untouched."""
        engine, requests = self._replay(engine_cycles=True)
        del kernel_calls[:]
        engine.step(requests)
        assert kernel_calls == (
            [("EngineBackedQuantizer", "quantize_into", 3)] * 2 * LAYERS
        )
        assert engine.pool.batched_encodes == 2 * LAYERS

    def test_adapter_pool_is_untouched(self, calibration, kernel_calls):
        """Adapter pools store exact rows and roundtrip per tensor
        through ``quantize`` when read."""
        pool = _pool(calibration, "chunked", kind="adapter")
        seq_ids = [0, 1, 2]
        for seq_id in seq_ids:
            pool.allocate(seq_id)
        pool.append_batch(0, _updates(seq_ids, 1, seed=3))
        assert kernel_calls == []
        pool.read_batch(0, seq_ids)
        assert kernel_calls == [("OakenQuantizer", "quantize", 3)] * 2
        assert pool.batched_encodes == 0


# -- decode contract ----------------------------------------------------
#
# The read side of the same guard: one ``dequantize`` per layer per
# read on either store, every row decoded once, and a pool read is the
# one-shot roundtrip.


@pytest.fixture
def decode_calls(monkeypatch):
    """Every decode-kernel entry as ``(class, encoded rows)``."""
    calls = []
    for owner in (
        OakenQuantizer, EngineBackedQuantizer, ReferenceOakenQuantizer
    ):
        original = vars(owner)["dequantize"]

        def counting(self, encoded, _o=original):
            calls.append((type(self).__name__, encoded.num_tokens))
            return _o(self, encoded)

        monkeypatch.setattr(owner, "dequantize", counting)
    return calls


class TestOneDecodePerLayer:
    def _filled(self, calibration, store):
        pool = _pool(calibration, store)
        seq_ids = [0, 1, 2]
        for seq_id in seq_ids:
            pool.allocate(seq_id)
        for layer in range(LAYERS):
            pool.append(0, layer, *_updates([0], 5, seed=layer)[0])
            pool.append_batch(layer, _updates(seq_ids, 1, seed=9 + layer))
        return pool, seq_ids, 5 + len(seq_ids)

    @pytest.mark.parametrize("store", ["arena", "chunked", "tiered"])
    def test_read_batch_and_lazy_read(self, calibration, decode_calls, store):
        pool, seq_ids, pending = self._filled(calibration, store)
        for layer in range(LAYERS):
            before = pool.batched_decodes
            pool.read_batch(layer, seq_ids)
            assert decode_calls == [("OakenQuantizer", 2 * pending)]
            assert pool.batched_decodes == before + 1
            # Nothing pending: no kernel call, nothing counted.
            del decode_calls[:]
            pool.read_batch(layer, seq_ids)
            pool.read(1, layer)
            assert decode_calls == []
            assert pool.batched_decodes == before + 1
            # The lazy single-sequence read is one call too.
            pool.append(1, layer, *_updates([1], 2, seed=3)[1])
            pool.read(1, layer)
            assert decode_calls == [("OakenQuantizer", 4)]
            del decode_calls[:]
        pool.check_invariants()

    def test_layer_cache_read_is_one_call(self, decode_calls):
        key_q, value_q = _pair(OakenConfig(), 32, "deploy_f32")
        cache = LayerKVCache(key_q, value_q)
        for rows in (5, 1, 1):
            cache.append(*_rows(rows, 32, seed=rows))
        cache.read()
        assert decode_calls == [("OakenQuantizer", 14)]
        cache.read()
        assert len(decode_calls) == 1

    @pytest.mark.parametrize(
        "cls", [ReferenceOakenQuantizer, EngineBackedQuantizer]
    )
    def test_unstackable_pairs_keep_two_calls(self, decode_calls, cls):
        """A pair that does not stack decodes per tensor, through the
        same chunk-store path."""
        def make(config, thresholds, mode):
            return cls(config, thresholds, mode=mode)

        key_q, value_q = _pair(OakenConfig(), 32, "exact_f64", make)
        caches = [LayerKVCache(key_q, value_q) for _ in range(2)]
        for seed, cache in enumerate(caches):
            cache.append(*_rows(3, 32, seed=seed))
            cache.append(*_rows(1, 32, seed=10 + seed))
        assert kvcache.decode_pending(caches) == 2
        assert decode_calls == [(cls.__name__, 8)] * 2
        assert kvcache.decode_pending(caches) == 0
        plain = _pair(OakenConfig(), 32, "exact_f64")
        for seed, cache in enumerate(caches):
            exact = [
                np.concatenate(parts)
                for parts in zip(
                    _rows(3, 32, seed=seed), _rows(1, 32, seed=10 + seed)
                )
            ]
            for got, quantizer, rows in zip(cache.read(), plain, exact):
                assert got.tobytes() == quantizer.roundtrip(rows).tobytes()
        # (the reads were memo hits: only the oracle decoded again)
        assert [c for c in decode_calls if c[0] == cls.__name__] == (
            [(cls.__name__, 8)] * 2
        )

    def test_adapter_pool_makes_no_decode_call(
        self, calibration, decode_calls
    ):
        """Adapter pools roundtrip; the chunk-store decode is not theirs."""
        pool = _pool(calibration, "chunked", kind="adapter")
        seq_ids = [0, 1, 2]
        for seq_id in seq_ids:
            pool.allocate(seq_id)
        pool.append_batch(0, _updates(seq_ids, 1, seed=3))
        assert decode_calls == []
        pool.read_batch(0, seq_ids)
        # (the merged per-tensor roundtrip's own decodes)
        assert decode_calls == [("OakenQuantizer", 3)] * 2
        del decode_calls[:]
        pool.read_batch(0, seq_ids)
        pool.read(1, 0)
        assert decode_calls == []
        assert pool.batched_decodes == 0

    def test_generation_decodes_every_row_once(self, calibration, decode_calls):
        """The O(new rows) pin: over a 40-step single-sequence
        generation, rows decoded == rows appended."""
        cache = shared_backend_factory(
            "oaken", calibration=calibration
        )()
        appended = 0
        for step in range(40):
            rows = 7 if step == 0 else 1
            for layer in range(LAYERS):
                cache.append(layer, *_updates([0], rows, seed=step)[0])
                cache.read(layer)
            appended += rows
        assert len(decode_calls) == 40 * LAYERS
        assert sum(rows for _, rows in decode_calls) == 2 * appended * LAYERS

    def test_engine_backed_arena_keeps_two_calls(self, decode_calls):
        """A pair that does not stack decodes per tensor, through the
        same arena path."""
        engine, requests = TestOneKernelCallPerLayer()._replay(
            engine_cycles=True, arena=True
        )
        assert engine.pool.arena_enabled
        del decode_calls[:]
        engine.step(requests)
        pending = len(requests) * (4 + 1)  # prompt rows + the new token
        assert decode_calls == (
            [("EngineBackedQuantizer", pending)] * 2 * LAYERS
        )
        assert engine.pool.batched_decodes == 2 * LAYERS
        del decode_calls[:]
        engine.pool.read_batch(0, [r.request_id for r in requests])
        assert decode_calls == []


def _snapshot(pool):
    return (
        pool.summary(),
        {
            seq_id: (pool.get(seq_id).footprint_bits(), pool.get(seq_id).length)
            for seq_id in pool.seq_ids
        },
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("store", ["arena", "chunked", "tiered"])
@pytest.mark.parametrize("mode", MODES)
class TestPoolReadIsTheRoundtrip:
    """Hostile rows through the pool boundary (``append_batch`` ->
    ``read_batch``): stacked decode == per-tensor decode == reference."""

    #: Rows per sequence of one hostile batch: ragged, one empty.
    COUNTS = (3, 0, 1, 4)

    def _quantizers(self, pool, layer):
        if pool.arena_enabled:
            encoder = pool._arena.layers[layer].encoder
            assert encoder.stacked is not None
        else:
            encoder = pool.get(0).layers[layer].encoder
        return encoder.key_quantizer, encoder.value_quantizer

    def test_hostile_ragged_batches(self, calibration, mode, store):
        pool = _pool(calibration, store, mode=mode)
        seq_ids = list(range(len(self.COUNTS)))
        for seq_id in seq_ids:
            pool.allocate(seq_id)
        bounds = np.cumsum((0,) + self.COUNTS)
        for layer in range(LAYERS):
            key_q, value_q = self._quantizers(pool, layer)
            keys = _hostile(DIM, key_q.thresholds)
            values = _hostile(DIM, value_q.thresholds)[::-1].copy()
            history = {
                seq_id: (keys[lo:hi], values[lo:hi])
                for seq_id, lo, hi in zip(seq_ids, bounds, bounds[1:])
            }
            pool.append_batch(layer, history)
            # A second, single-row round, read together with the first.
            step = {
                seq_id: (keys[seq_id : seq_id + 1], values[-1 - seq_id :][:1])
                for seq_id in seq_ids
            }
            pool.append_batch(layer, step)
            got = pool.read_batch(layer, seq_ids)
            for seq_id, (got_keys, got_values) in zip(seq_ids, got):
                for got_rows, quantizer, parts in (
                    (got_keys, key_q, (history[seq_id][0], step[seq_id][0])),
                    (got_values, value_q, (history[seq_id][1], step[seq_id][1])),
                ):
                    rows = np.concatenate(parts)
                    want = quantizer.roundtrip(rows)
                    assert got_rows.dtype == want.dtype
                    assert got_rows.shape == want.shape
                    assert got_rows.tobytes() == want.tobytes()
                    if mode == "exact_f64":
                        reference = ReferenceOakenQuantizer(
                            quantizer.config, quantizer.thresholds, mode
                        )
                        assert (
                            got_rows.tobytes()
                            == reference.roundtrip(rows).tobytes()
                        )
                lazy = pool.read(seq_id, layer)
                assert lazy[0].tobytes() == got_keys.tobytes()
                assert lazy[1].tobytes() == got_values.tobytes()
        pool.check_invariants()

    def test_refused_batch_changes_no_accounting(
        self, calibration, mode, store
    ):
        pool = _pool(calibration, store, mode=mode)
        seq_ids = [0, 1, 2]
        for seq_id in seq_ids:
            pool.allocate(seq_id)
        for layer in range(LAYERS):
            pool.append_batch(layer, _updates(seq_ids, 2, seed=layer))
        reads = [part.copy() for part in pool.read(1, 0)]
        before = _snapshot(pool)  # (after the read: it touches the tier)
        good = np.ones((1, DIM))
        for bad_keys, bad_values in (
            (np.ones((1, DIM + 1)), np.ones((1, DIM + 1))),  # wrong width
            (np.ones((2, DIM)), np.ones((1, DIM))),  # K/V shape mismatch
            (np.ones((1, 1, DIM)), np.ones((1, 1, DIM))),  # not [t, D]
        ):
            with pytest.raises(ValueError):
                pool.append_batch(
                    0, [(0, good, good), (1, bad_keys, bad_values),
                        (2, good, good)],
                )
            assert _snapshot(pool) == before
        pool.check_invariants()
        for left, right in zip(reads, pool.read(1, 0)):
            assert left.tobytes() == right.tobytes()
