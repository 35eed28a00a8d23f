"""Incremental footprint accounting: exact, atomic, and never a walk.

Both fused KV stores keep their encoded footprint as running integer
``(bits, elements)`` totals instead of re-summing the cached history on
every read.  Two things are pinned here:

* **The checker has teeth.**  Corrupting any one accumulator, or the
  sharing registry against the chunk lists, makes
  :meth:`KVCachePool.check_invariants` raise.
* **Complexity.**  ``EncodedKV.footprint`` is called a bounded number
  of times per chunk appended, however long the decode and however
  often ``measure()`` is polled — the guard that the O(history) walk
  cannot silently come back.

Exactness itself — the recomputing walk after every rule of every
configuration, refusals that change no accumulator, a drained pool at
exactly ``0.0`` bytes — is the pool's state machine
(``tests/test_pool_model.py``).
"""

import numpy as np
import pytest

from repro.core.config import OakenConfig
from repro.core.encoding import EncodedKV, sparse_record_bits
from repro.engine import (
    KVCachePool,
    TieredKVStore,
    shared_backend_factory,
)

from conftest import make_kv_matrix

LAYERS = 2
DIM = 8


@pytest.fixture(scope="module")
def factory():
    calibration = [
        (
            make_kv_matrix(
                tokens=48, dim=DIM, seed=70 + layer,
                outlier_channels=(1, 5),
            ),
            make_kv_matrix(
                tokens=48, dim=DIM, seed=80 + layer,
                outlier_channels=(1, 5),
            ),
        )
        for layer in range(LAYERS)
    ]
    return shared_backend_factory("oaken", calibration=calibration)


def _make_pool(factory, arena, tiered):
    tiering = None
    if tiered:
        # Small device budget so the op stream genuinely spills.
        tiering = TieredKVStore(device_budget_bytes=2048.0, page_bytes=256)
    return KVCachePool(factory, tiering=tiering, arena=arena)


class TestCheckerHasTeeth:
    """``check_invariants`` must notice a drifted accumulator."""

    def _pool(self, factory, arena=False, tiered=False):
        pool = _make_pool(factory, arena, tiered)
        rng = np.random.default_rng(3)
        pool.allocate("a")
        for layer in range(LAYERS):
            rows = rng.standard_normal((6, DIM)).astype(np.float32)
            pool.append("a", layer, rows, rows)
        pool.fork("a", "b", 4)
        pool.check_invariants()
        return pool

    def test_chunked_layer_total(self, factory):
        pool = self._pool(factory)
        pool.get("a").layers[0]._bits += 8
        with pytest.raises(AssertionError, match="footprint accumulator"):
            pool.check_invariants()

    def test_arena_slice_total(self, factory):
        pool = self._pool(factory, arena=True)
        pool.store.rows["b"].elements -= 1
        with pytest.raises(AssertionError, match="footprint accumulator"):
            pool.check_invariants()

    def test_registry_totals(self, factory):
        pool = self._pool(factory)
        assert pool.summary()["shared_extra_bytes"] > 0.0
        pool.store._extra_bits += 8
        with pytest.raises(AssertionError, match="registry totals"):
            pool.check_invariants()

    @pytest.mark.parametrize(
        "chunk, match",
        [(0, "the caches listing"), (-1, "registry entries")],
        ids=["shared-chunk", "exclusive-chunk"],
    )
    def test_registry_against_the_chunk_lists(self, factory, chunk, match):
        """A holder no live cache backs — what a fork that failed after
        aliasing one layer used to leave — is caught on a chunk two
        caches list and on one only its owner lists; the registry's own
        totals stay consistent, so only the cross-check can see it."""
        pool = self._pool(factory)
        listed = pool.get("a").layers[0]._key_chunks[chunk]
        pool.store.share(listed, 0, "a", "ghost")
        pool.store.check_registry()
        with pytest.raises(AssertionError, match=match):
            pool.check_invariants()

    @pytest.mark.parametrize("arena", [False, True], ids=["chunked", "arena"])
    def test_a_sequence_only_the_store_holds(self, factory, arena):
        """The store must hold exactly the pool's sequences: one the
        pool never allocated (or already dropped) is caught."""
        pool = self._pool(factory, arena=arena)
        pool.store.allocate("ghost")
        with pytest.raises(AssertionError, match="the store holds 3"):
            pool.check_invariants()

    def test_tier_watermark(self, factory):
        pool = self._pool(factory, tiered=True)
        # An append that bypasses the pool is never observed.
        rows = np.zeros((1, DIM), dtype=np.float32)
        pool.get("a").append(0, rows, rows)
        with pytest.raises(AssertionError, match="tier watermark"):
            pool.check_invariants()


class TestFootprintReads:
    def test_nbytes_and_bitwidth_derive_from_one_read(self, factory):
        for arena in (False, True):
            pool = _make_pool(factory, arena, tiered=False)
            cache = pool.allocate(0)
            assert cache.footprint_bits() == (0, 0)
            assert cache.nbytes() == 0.0
            assert cache.effective_bitwidth() == 0.0
            rows = make_kv_matrix(
                tokens=5, dim=DIM, seed=9, outlier_channels=(1, 5)
            )
            for layer in range(LAYERS):
                pool.append(0, layer, rows, rows)
            bits, elements = cache.footprint_bits()
            assert isinstance(bits, int) and isinstance(elements, int)
            assert elements == 2 * LAYERS * 5 * DIM
            assert cache.nbytes() == bits / 8.0
            assert cache.effective_bitwidth() == bits / elements

    def test_arena_and_chunked_agree_exactly(self, factory):
        chunked = _make_pool(factory, arena=False, tiered=False)
        arena = _make_pool(factory, arena=True, tiered=False)
        rng = np.random.default_rng(21)
        for pool in (chunked, arena):
            pool.allocate(0)
        for step in range(12):
            n = int(rng.integers(1, 5))
            for layer in range(LAYERS):
                keys = rng.standard_normal((n, DIM)).astype(np.float32) * 4
                values = rng.standard_normal((n, DIM)).astype(np.float32) * 4
                for pool in (chunked, arena):
                    pool.append(0, layer, keys, values)
            assert (
                arena.get(0).footprint_bits()
                == chunked.get(0).footprint_bits()
            )
        assert arena.measure() == chunked.measure()

    def test_config_constants_are_cached_not_fields(self):
        config = OakenConfig.from_ratio_string("2/2/90/3/3")
        twin = OakenConfig.from_ratio_string("2/2/90/3/3")
        assert config.num_sparse_bands == 4
        assert config.group_id_bits == 2
        assert sparse_record_bits(config) == 16
        assert config.token_metadata_bits == (2 + 2 * 4) * 16
        # Cached on the instance, invisible to equality / hash / repr.
        assert "group_id_bits" in vars(config)
        assert "group_id_bits" not in vars(twin)
        assert config == twin and hash(config) == hash(twin)
        assert repr(config) == repr(twin)
        naive = OakenConfig(fused_encoding=False)
        assert sparse_record_bits(naive) == 23


class TestFootprintCallComplexity:
    """``EncodedKV.footprint`` calls grow with chunks appended — never
    with history length x polls."""

    def _decode(self, factory, monkeypatch, steps, polls_per_step, tiered):
        calls = {"n": 0}
        original = EncodedKV.footprint

        def counting(chunk):
            calls["n"] += 1
            return original(chunk)

        with monkeypatch.context() as patch:
            patch.setattr(EncodedKV, "footprint", counting)
            self._run_decode(factory, steps, polls_per_step, tiered)
        chunks = 2 * LAYERS * 4 * steps
        return calls["n"], chunks

    @staticmethod
    def _run_decode(factory, steps, polls_per_step, tiered):
        pool = _make_pool(factory, arena=False, tiered=tiered)
        seqs = list(range(4))
        rng = np.random.default_rng(5)
        for seq_id in seqs:
            pool.allocate(seq_id)
        for _ in range(steps):
            for layer in range(LAYERS):
                pool.append_batch(
                    layer,
                    {
                        s: (
                            rng.standard_normal((1, DIM)).astype(np.float32),
                            rng.standard_normal((1, DIM)).astype(np.float32),
                        )
                        for s in seqs
                    },
                )
            for _ in range(polls_per_step):
                pool.measure()
                for seq_id in seqs:
                    pool.get(seq_id).nbytes()
                    pool.get(seq_id).effective_bitwidth()

    @pytest.mark.parametrize("tiered", [False, True], ids=["untiered", "tiered"])
    def test_linear_in_chunks_and_flat_in_polls(
        self, factory, monkeypatch, tiered
    ):
        short, short_chunks = self._decode(factory, monkeypatch, 40, 1, tiered)
        long, long_chunks = self._decode(factory, monkeypatch, 160, 1, tiered)
        polled, _ = self._decode(factory, monkeypatch, 160, 10, tiered)
        # Linear: a constant number of calls per chunk appended (the
        # walk made this ~steps/2 calls per chunk).
        assert short <= 2 * short_chunks
        assert long <= 2 * long_chunks
        # Polling measure() / nbytes() 10x more often costs no calls.
        assert polled == long
