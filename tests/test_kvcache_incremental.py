"""Memoized cache reads vs. the reference they stand for.

The cache decodes each chunk once into its memo; the reference —
"dequantize every chunk and concatenate", the seed's read — is three
lines of public API, spelled here (:func:`redecode`) rather than kept
as a mode of the cache.
"""

import numpy as np
import pytest

from repro.core.config import OakenConfig
from repro.core.kvcache import LayerKVCache, QuantizedKVCache
from repro.core.quantizer import OakenQuantizer
from repro.core.reference import ReferenceOakenQuantizer

from conftest import make_kv_matrix


def make_layer(samples):
    return LayerKVCache(
        key_quantizer=OakenQuantizer.from_samples(samples, OakenConfig()),
        value_quantizer=OakenQuantizer.from_samples(samples, OakenConfig()),
    )


def redecode(quantizer, blocks):
    """The full re-decode: every block's own encode, dequantized and
    concatenated — nothing memoized, nothing batched."""
    return np.concatenate(
        [quantizer.dequantize(quantizer.quantize(block)) for block in blocks]
    )


class TestIncrementalRead:
    def test_matches_full_redecode_after_interleaved_appends(
        self, kv_samples
    ):
        fast = make_layer(kv_samples)
        keys, values = [], []
        for step, rows in enumerate([3, 1, 1, 4, 1, 2, 1]):
            keys.append(make_kv_matrix(tokens=rows, seed=step))
            values.append(make_kv_matrix(tokens=rows, seed=100 + step))
            fast.append(keys[-1], values[-1])
            fk, fv = fast.read()
            sk = redecode(fast.key_quantizer, keys)
            sv = redecode(fast.value_quantizer, values)
            assert fk.tobytes() == sk.tobytes()
            assert fv.tobytes() == sv.tobytes()
            assert fk.shape[0] == fast.length

    def test_reads_are_readonly_views(self, kv_samples):
        cache = make_layer(kv_samples)
        cache.append(
            make_kv_matrix(tokens=4), make_kv_matrix(tokens=4, seed=1)
        )
        keys, values = cache.read()
        with pytest.raises(ValueError):
            keys[0, 0] = 1.0
        with pytest.raises(ValueError):
            values[0, 0] = 1.0

    def test_earlier_views_survive_buffer_growth(self, kv_samples):
        cache = make_layer(kv_samples)
        cache.append(
            make_kv_matrix(tokens=2), make_kv_matrix(tokens=2, seed=1)
        )
        first_keys, _ = cache.read()
        snapshot = first_keys.copy()
        # Force many growth cycles past the initial capacity.
        for step in range(40):
            cache.append(
                make_kv_matrix(tokens=3, seed=step),
                make_kv_matrix(tokens=3, seed=50 + step),
            )
            cache.read()
        np.testing.assert_array_equal(first_keys, snapshot)

    def test_zero_row_append_stores_nothing(self, kv_samples):
        """A zero-row append stores no chunk pair: the cache stays as
        empty as a fresh one (and as an arena sequence), and a read
        still says so."""
        cache = make_layer(kv_samples)
        empty = np.zeros((0, 64))
        cache.append(empty, empty)
        assert (cache.length, cache._key_chunks, cache._value_chunks) == (
            0, [], [],
        )
        with pytest.raises(RuntimeError, match="cache is empty"):
            cache.read()
        whole = QuantizedKVCache(
            [cache.key_quantizer], [cache.value_quantizer]
        )
        whole.append(0, empty, empty)
        with pytest.raises(RuntimeError, match="cache is empty"):
            whole.read(0)
        block = make_kv_matrix(tokens=3, seed=4)
        cache.append(block, block)
        cache.append(empty, empty)
        keys, values = cache.read()
        assert keys.tobytes() == redecode(cache.key_quantizer, [block]).tobytes()
        assert (
            cache._value_chunks[0].thresholds
            is cache.value_quantizer.thresholds
        )
        assert cache._decoded.chunks_decoded == 1
        cache.check_invariants()

    def test_each_chunk_decoded_once(self, kv_samples):
        cache = make_layer(kv_samples)
        for step in range(6):
            cache.append(
                make_kv_matrix(tokens=1, seed=step),
                make_kv_matrix(tokens=1, seed=10 + step),
            )
            cache.read()
        assert cache._decoded.chunks_decoded == 6
        assert cache._decoded.rows == 6

        # With the history memoized, further reads must not decode:
        # poison the dequantizers and read again.
        def explode(encoded):
            raise AssertionError("memoized chunk was re-decoded")

        cache.encoder.stacked.dequantize = explode
        keys, values = cache.read()
        assert keys.shape[0] == 6 and values.shape[0] == 6

    def test_memoized_read_equals_the_reference_redecode(self, kv_samples):
        """The fused memoized cache, read after every append, reads the
        bytes of the seed's read: the reference kernels' full re-decode
        of every block."""
        fused = make_layer(kv_samples)
        references = [
            ReferenceOakenQuantizer(quantizer.config, quantizer.thresholds)
            for quantizer in (fused.key_quantizer, fused.value_quantizer)
        ]
        keys, values = [], []
        for step in range(4):
            keys.append(make_kv_matrix(tokens=2, seed=step))
            values.append(make_kv_matrix(tokens=2, seed=20 + step))
            fused.append(keys[-1], values[-1])
            fused.read()
        fk, fv = fused.read()
        assert fk.tobytes() == redecode(references[0], keys).tobytes()
        assert fv.tobytes() == redecode(references[1], values).tobytes()

    def test_whole_model_passthrough(self, kv_samples):
        keys = [
            OakenQuantizer.from_samples(kv_samples, OakenConfig())
            for _ in range(2)
        ]
        values = [
            OakenQuantizer.from_samples(kv_samples, OakenConfig())
            for _ in range(2)
        ]
        fast = QuantizedKVCache(keys, values)
        history = [([], []) for _ in range(2)]
        for layer in range(2):
            for step in range(3):
                k = make_kv_matrix(tokens=2, seed=layer * 10 + step)
                v = make_kv_matrix(tokens=2, seed=500 + layer * 10 + step)
                fast.append(layer, k, v)
                history[layer][0].append(k)
                history[layer][1].append(v)
        for layer in range(2):
            fk, fv = fast.read(layer)
            assert fk.tobytes() == redecode(
                keys[layer], history[layer][0]
            ).tobytes()
            assert fv.tobytes() == redecode(
                values[layer], history[layer][1]
            ).tobytes()
