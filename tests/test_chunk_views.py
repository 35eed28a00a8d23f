"""The chunk store keeps a step's encode whole.

``kvcache.append_batch`` lists each sequence's chunk pair as views of
the step's one encode (``split_encoded``), and
``concat_encoded`` hands that encode back when a read asks for every
piece of it in order: a steady decode step decodes the very object it
encoded.  Every other read (prompt chunks pending beside a decode
chunk, forked prefixes, reordered or duplicated ids) concatenates as
before; all of them must read what per-sequence caches read, bit for
bit.
"""

import numpy as np
import pytest

from repro.core import encoding, kvcache
from repro.core.config import OakenConfig
from repro.core.encoding import concat_encoded, split_encoded
from repro.core.quantizer import LayerEncoder, OakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.engine import FusedCacheBackend, KVCachePool
from repro.hardware.datapath import EngineBackedQuantizer

from conftest import make_kv_matrix

LAYERS = 2
DIM = 16
#: The arrays of an encode under the default config (fused records,
#: so no ``sparse_fp16``).
ARRAYS = (
    "dense_codes", "middle_lo", "middle_hi", "band_lo", "band_hi",
    "sparse_token", "sparse_pos", "sparse_band", "sparse_side",
    "sparse_mag_code",
)


def _kv(tokens, seed):
    return make_kv_matrix(
        tokens=tokens, dim=DIM, seed=seed, outlier_channels=(1, 5, 11)
    )


def _calibration():
    return [
        (
            _kv(64, 30 + layer),
            _kv(64, 40 + layer),
        )
        for layer in range(LAYERS)
    ]


@pytest.fixture(scope="module")
def template():
    return FusedCacheBackend.from_calibration(_calibration())


def _rows(seed, tokens):
    """One step's ``(keys, values)`` blocks, one per layer."""
    return (
        [_kv(tokens, seed + 10 * layer)
         for layer in range(LAYERS)],
        [_kv(tokens, seed + 10 * layer + 5)
         for layer in range(LAYERS)],
    )


def _count_concat_builds(monkeypatch):
    """Count the tensors :func:`concat_encoded` builds, on the chunk
    store's reads and through the returned spelling of it."""
    built = []
    real_concat = encoding.concat_encoded
    real_tensor = encoding.EncodedKV

    def counting(*args, **kwargs):
        built.append(1)
        return real_tensor(*args, **kwargs)

    def concat(*blocks):
        with monkeypatch.context() as patch:
            patch.setattr(encoding, "EncodedKV", counting)
            return real_concat(*blocks)

    monkeypatch.setattr(kvcache, "concat_encoded", concat)
    return built, concat


def _reference_reads(template, history):
    """Each sequence's reads from its own cache, appended one item at a
    time: ``history`` is ``(seq_id, keys, values)`` in append order,
    ``keys`` / ``values`` one block per layer."""
    caches = {}
    for seq_id, keys, values in history:
        cache = caches.setdefault(seq_id, template.twin())
        for layer in range(LAYERS):
            cache.append(layer, keys[layer], values[layer])
    return {
        seq_id: [
            tuple(a.tobytes() for a in cache.read(layer))
            for layer in range(LAYERS)
        ]
        for seq_id, cache in caches.items()
    }


def _pool_reads(pool, seq_ids):
    return {
        seq_id: [
            tuple(a.tobytes() for a in pool.read(seq_id, layer))
            for layer in range(LAYERS)
        ]
        for seq_id in seq_ids
    }


class TestSplitViews:
    def _encode(self, rows):
        """The row-stacked encode of ``rows``-row key and value blocks,
        and each block's own encode, in split order: what the split's
        pieces must read as (encode is row-local)."""
        keys, values = (
            OakenQuantizer.from_samples(
                [_kv(96, seed)]
            )
            for seed in (2, 3)
        )
        encoder = LayerEncoder([keys], [values])
        blocks = [_kv(t, t) for t in rows]
        fresh = [q.quantize(block) for q in (keys, values) for block in blocks]
        return encoder.encode((0,), blocks + blocks), fresh

    def test_views_read_as_the_copies(self):
        whole, copies = self._encode([2, 3, 1])
        views = split_encoded(whole, [2, 3, 1])
        assert whole.num_outliers > 0
        for view, copy in zip(views, copies):
            assert view.shape == copy.shape
            assert view.thresholds is copy.thresholds
            assert view.num_outliers == copy.num_outliers
            assert view.footprint_bits() == copy.footprint_bits()
            for name in ARRAYS:
                got, want = getattr(view, name), getattr(copy, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), name
                if name != "sparse_token":
                    assert got.size == 0 or np.shares_memory(
                        got, getattr(whole, name)
                    )

    def test_every_piece_in_order_is_the_source(self, monkeypatch):
        whole, _ = self._encode([2, 3, 1])
        views = split_encoded(whole, [2, 3, 1])
        built, concat = _count_concat_builds(monkeypatch)
        assert concat(views[:3], views[3:]) is whole
        assert built == []

    @pytest.mark.parametrize(
        "pick",
        [
            lambda v: (v[:2], v[3:5]),          # a subset
            lambda v: (v[1::-1], v[4:2:-1]),    # reordered
            lambda v: (v[:3] + v[3:],),         # one block of two
        ],
        ids=["subset", "reordered", "regrouped"],
    )
    def test_anything_else_concatenates(self, pick, monkeypatch):
        whole, copies = self._encode([2, 3, 1])
        views = split_encoded(whole, [2, 3, 1])
        chosen = pick(views)
        if len(chosen) == 1:
            # The keys and values blocks carry different thresholds.
            with pytest.raises(ValueError, match="thresholds"):
                concat_encoded(*chosen)
            return
        by_id = {id(v): c for v, c in zip(views, copies)}
        want = concat_encoded(*[[by_id[id(v)] for v in b] for b in chosen])
        built, concat = _count_concat_builds(monkeypatch)
        got = concat(*chosen)
        assert built == [1]
        for name in ARRAYS:
            assert (
                getattr(got, name).tobytes() == getattr(want, name).tobytes()
            ), name

    def test_two_splits_of_one_encode_do_not_mix(self, monkeypatch):
        whole, _ = self._encode([2, 2])
        first = split_encoded(whole, [2, 2])
        second = split_encoded(whole, [1, 3])
        built, concat = _count_concat_builds(monkeypatch)
        # Pieces 0..3 of one source, in order, but of two splits: 2 + 3
        # rows a block, not the source's 2 + 2.
        mixed = concat([first[0], second[1]], [first[2], second[3]])
        assert mixed is not whole and built == [1]
        assert mixed.num_tokens == 10


class TestSteadyStep:
    def test_the_step_decodes_its_own_encode(self, template, monkeypatch):
        pool = KVCachePool(lambda: template)
        seqs = ["a", "b", "c"]
        for seq in seqs:
            pool.allocate(seq)
        pool.step([(seq, *_rows(i, 4)) for i, seq in enumerate(seqs)],
                  read=False)
        pool.step([(seq, *_rows(10 + i, 1)) for i, seq in enumerate(seqs)])

        encodes, decoded = [], []
        real_encode = LayerEncoder.encode
        real_decode = OakenQuantizer.dequantize

        def encode(self, layers, rows):
            encodes.append(real_encode(self, layers, rows))
            return encodes[-1]

        def dequantize(self, encoded):
            decoded.append(encoded)
            return real_decode(self, encoded)

        monkeypatch.setattr(LayerEncoder, "encode", encode)
        monkeypatch.setattr(OakenQuantizer, "dequantize", dequantize)
        built, _ = _count_concat_builds(monkeypatch)
        pool.step([(seq, *_rows(20 + i, 1)) for i, seq in enumerate(seqs)])

        assert len(encodes) == len(decoded) == LAYERS
        for encoded, handed in zip(encodes, decoded):
            assert handed is encoded
        assert built == []
        for layer in range(LAYERS):
            chunks = [
                pool.store.caches[seq].layers[layer]._key_chunks[-1]
                for seq in seqs
            ]
            assert all(c._view_of[0] is encodes[layer] for c in chunks)
        pool.check_invariants()


class TestFallbackReads:
    """Reads that are not one whole step concatenate, and still read
    what per-sequence caches read."""

    def _check(self, template, pool, history, monkeypatch, read):
        built, _ = _count_concat_builds(monkeypatch)
        read()
        assert built, "the read did not take the concatenating path"
        monkeypatch.undo()
        want = _reference_reads(template, history)
        assert _pool_reads(pool, list(want)) == want
        pool.check_invariants()

    def test_admission_prompt_chunks(self, template, monkeypatch):
        pool = KVCachePool(lambda: template)
        history = []
        for i, seq in enumerate(["a", "b"]):
            pool.allocate(seq)
            history.append((seq, *_rows(i, 5)))
        pool.step(history, read=False)
        decode = [(seq, *_rows(10 + i, 1)) for i, seq in enumerate("ab")]
        history += decode
        self._check(template, pool, history, monkeypatch,
                    lambda: pool.step(decode))

    def test_fork_prefixes(self, template, monkeypatch):
        pool = KVCachePool(lambda: template)
        pool.allocate("parent")
        prompt = ("parent", *_rows(0, 6))
        pool.step([prompt])
        pool.fork("parent", "child", 4)
        keys, values = prompt[1], prompt[2]
        history = [
            prompt,
            ("child", [k[:4] for k in keys], [v[:4] for v in values]),
        ]
        decode = [(seq, *_rows(10 + i, 1))
                  for i, seq in enumerate(["parent", "child"])]
        history += decode
        self._check(template, pool, history, monkeypatch,
                    lambda: pool.step(decode))

    def test_duplicate_ids(self, template, monkeypatch):
        pool = KVCachePool(lambda: template)
        for seq in "ab":
            pool.allocate(seq)
        pool.step([(seq, *_rows(i, 2)) for i, seq in enumerate("ab")])
        items = [("a", *_rows(10, 1)), ("b", *_rows(11, 1)),
                 ("a", *_rows(12, 1))]
        history = [(seq, *_rows(i, 2)) for i, seq in enumerate("ab")]
        history += items
        for layer in range(LAYERS):
            pool.append_batch(
                layer, [(s, k[layer], v[layer]) for s, k, v in items]
            )
        self._check(
            template, pool, history, monkeypatch,
            lambda: [pool.read_batch(layer, ["a", "b", "a"])
                     for layer in range(LAYERS)],
        )

    def test_read_order_reversed(self, template, monkeypatch):
        pool = KVCachePool(lambda: template)
        seqs = ["a", "b", "c"]
        for seq in seqs:
            pool.allocate(seq)
        pool.step([(seq, *_rows(i, 3)) for i, seq in enumerate(seqs)])
        items = [(seq, *_rows(10 + i, 1)) for i, seq in enumerate(seqs)]
        history = [(seq, *_rows(i, 3)) for i, seq in enumerate(seqs)]
        history += items
        for layer in range(LAYERS):
            pool.append_batch(
                layer, [(s, k[layer], v[layer]) for s, k, v in items]
            )
        self._check(
            template, pool, history, monkeypatch,
            lambda: [pool.read_batch(layer, seqs[::-1])
                     for layer in range(LAYERS)],
        )


class TestForkSplit:
    def test_a_mid_chunk_fork_views_the_chunk_it_splits(self, template):
        """A fork whose prefix ends inside a chunk replaces the parent's
        chunk with two pieces that share its memory; the parent reads,
        measures and checks as before."""
        pool = KVCachePool(lambda: template)
        pool.allocate("parent")
        pool.step([("parent", *_rows(0, 5))])
        parent = pool.store.caches["parent"]
        before = _pool_reads(pool, ["parent"])
        nbytes = (pool.nbytes(), pool.get("parent").nbytes())
        wholes = [
            (layer._key_chunks[0], layer._value_chunks[0])
            for layer in parent.layers
        ]
        pool.fork("parent", "child", 3)
        for layer, pair in zip(parent.layers, wholes):
            for chunks, whole in zip(
                (layer._key_chunks, layer._value_chunks), pair
            ):
                assert whole.num_outliers > 0
                assert [c.num_tokens for c in chunks] == [3, 2]
                for piece in chunks:
                    for name in ARRAYS:
                        if name == "sparse_token":  # rebased per split
                            continue
                        array = getattr(piece, name)
                        assert array.size == 0 or np.shares_memory(
                            array, getattr(whole, name)
                        ), name
        assert _pool_reads(pool, ["parent"]) == before
        assert (pool.nbytes(), pool.get("parent").nbytes()) == nbytes
        pool.check_invariants()


class TestCorruptionThroughAView:
    def test_a_flipped_slot_fails_the_batched_read(self):
        rng = np.random.default_rng(67)
        cfg = OakenConfig()
        thresholds = profile_thresholds(
            [rng.standard_normal((24, 32)) * 3.0], cfg
        )
        template = FusedCacheBackend(
            [EngineBackedQuantizer(cfg, thresholds)],
            [EngineBackedQuantizer(cfg, thresholds)],
        )
        pool = KVCachePool(lambda: template)
        for seq in "ab":
            pool.allocate(seq)
        pool.step(
            [(seq, *(rng.standard_normal((2, 1, 4, 32)) * 3.0))
             for seq in "ab"],
            read=False,
        )
        chunk = pool.store.caches["b"].layers[0]._value_chunks[0]
        assert chunk._view_of is not None
        assert chunk.sparse_token.size > 0
        token = int(chunk.sparse_token[-1])
        pos = int(chunk.sparse_pos[-1])
        chunk.dense_codes[token, pos] ^= 0b0100
        with pytest.raises(
            ValueError, match=f"fused nibble mismatch at position {pos}"
        ):
            pool.read_batch(0, ["a", "b"])
