"""Incremental footprint accounting: exact, atomic, and never a walk.

Both fused KV stores keep their encoded footprint as running integer
``(bits, elements)`` totals instead of re-summing the cached history on
every read.  Three things are pinned here:

* **Exactness.**  A seeded op-sequence machine over {chunked, arena} x
  {tiered, untiered} drives allocate / append / append_batch / fork
  (mid-chunk boundary splits included) / free / forced arena compaction
  / a ``capacity_bytes`` refusal, calling
  :meth:`KVCachePool.check_invariants` — the recomputing walk — after
  every op.  A refused batch leaves every accumulator untouched; a
  drained pool reads exactly ``0.0`` bytes.
* **The checker has teeth.**  Corrupting any one accumulator makes
  ``check_invariants`` raise.
* **Complexity.**  ``EncodedKV.footprint`` is called a bounded number
  of times per chunk appended, however long the decode and however
  often ``measure()`` is polled — the guard that the O(history) walk
  cannot silently come back.
"""

import numpy as np
import pytest

from repro.core.config import OakenConfig
from repro.core.encoding import EncodedKV, sparse_record_bits
from repro.engine import (
    CacheCapacityError,
    KVCachePool,
    TieredKVStore,
    shared_backend_factory,
)

from conftest import arena_state, make_kv_matrix

LAYERS = 2
DIM = 8
OPS = 140
MAX_LIVE = 7
MAX_ROWS = 48


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
        tiering = TieredKVStore(device_budget_bytes=2048.0, page_bytes=256.0)
    return KVCachePool(factory, tiering=tiering, arena=arena)


def _accounting(pool):
    """Every accumulator the pool's footprint reads depend on."""
    state = {
        "seqs": {
            seq_id: (pool.get(seq_id).footprint_bits(), pool.get(seq_id).length)
            for seq_id in pool.seq_ids
        },
        "registry": (
            pool._sharing.extra_bytes(),
            pool._sharing.shared_bytes(),
            pool._sharing.saved_bytes,
            len(pool._sharing),
        ),
        "tier_seen": dict(pool._tier_seen),
        "peak": pool._peak_bytes,
    }
    if pool.tiering is not None:
        state["tier"] = pool.tiering.summary()
    return state


class _Machine:
    """Seeded op-sequence driver; checks invariants after every op."""

    def __init__(self, factory, arena, tiered, seed):
        self.pool = _make_pool(factory, arena, tiered)
        self.rng = np.random.default_rng(seed)
        self.lengths = {}
        self.next_id = 0
        self.counts = {}

    def rows(self, n):
        return self.rng.standard_normal((n, DIM)).astype(np.float32)

    def did(self, name):
        """Count an op where it actually ran (ops fall back to others)."""
        self.counts[name] = self.counts.get(name, 0) + 1

    def pick(self, predicate=lambda length: True):
        seqs = [s for s, n in self.lengths.items() if predicate(n)]
        if not seqs:
            return None
        return seqs[int(self.rng.integers(len(seqs)))]

    def pick_batch(self):
        seqs = [s for s, n in self.lengths.items() if n < MAX_ROWS]
        if not seqs:
            return []
        size = int(self.rng.integers(1, min(4, len(seqs)) + 1))
        return [
            seqs[i]
            for i in self.rng.choice(len(seqs), size=size, replace=False)
        ]

    # -- ops -----------------------------------------------------------

    def op_allocate(self):
        self.pool.allocate(self.next_id)
        self.lengths[self.next_id] = 0
        self.next_id += 1
        self.did("allocate")

    def op_append(self):
        seq_id = self.pick(lambda n: n < MAX_ROWS)
        if seq_id is None:
            return self.op_free()
        # Multi-row chunks, so a later fork can land mid-chunk.
        n = int(self.rng.integers(1, 6))
        for layer in range(LAYERS):
            self.pool.append(seq_id, layer, self.rows(n), self.rows(n))
        self.lengths[seq_id] += n
        self.did("append")

    def op_append_batch(self):
        picked = self.pick_batch()
        for layer in range(LAYERS):
            self.pool.append_batch(
                layer,
                {s: (self.rows(1), self.rows(1)) for s in picked},
            )
        for seq_id in picked:
            self.lengths[seq_id] += 1
        self.did("append_batch")

    def op_fork(self):
        parent = self.pick(lambda n: n >= 2)
        if parent is None:
            return self.op_append()
        prefix_len = int(self.rng.integers(1, self.lengths[parent] + 1))
        if not self.pool.arena_enabled:
            chunks = self.pool.get(parent).layers[0]._key_chunks
            bounds = set(np.cumsum([c.num_tokens for c in chunks]).tolist())
            if prefix_len not in bounds:
                self.did("mid_chunk_fork")
        self.pool.fork(parent, self.next_id, prefix_len)
        self.lengths[self.next_id] = prefix_len
        self.next_id += 1
        self.did("fork")

    def op_free(self):
        seq_id = self.pick()
        if seq_id is None:
            return self.op_allocate()
        self.pool.free(seq_id)
        del self.lengths[seq_id]
        self.did("free")

    def op_compact(self):
        """Force an arena compaction pass (footprint-neutral, and it
        keeps every slice's capacity)."""
        if not self.pool.arena_enabled:
            return self.op_append()
        arena = self.pool._arena
        before = _accounting(self.pool)
        caps = {seq_id: slc.cap for seq_id, slc in arena.rows.items()}
        arena.compact()
        assert _accounting(self.pool) == before
        assert caps == {s: slc.cap for s, slc in arena.rows.items()}
        assert arena.dead_rows == 0
        self.did("compact")

    def op_refused_batch(self):
        """A ``capacity_bytes`` refusal in the middle of a step's
        batch appends: layer 0 lands, layer 1 is refused and must
        change nothing."""
        picked = self.pick_batch()
        used, _ = self.pool.measure()
        if not picked or used == 0.0:
            return self.op_append()
        batch = {s: (self.rows(1), self.rows(1)) for s in picked}
        self.pool.append_batch(0, batch)
        self.pool.check_invariants()
        self.pool.capacity_bytes = self.pool.measure()[0]
        def state():
            return _accounting(self.pool), arena_state(self.pool._arena)

        before = state()
        with pytest.raises(CacheCapacityError):
            self.pool.append_batch(1, batch)
        assert state() == before
        self.pool.capacity_bytes = None
        # Finish the step so layers stay in lock-step.
        self.pool.append_batch(1, batch)
        for seq_id in picked:
            self.lengths[seq_id] += 1
        self.did("refused_batch")

    # -- driver --------------------------------------------------------

    def run(self):
        ops = (
            ("allocate", 0.08),
            ("append", 0.26),
            ("append_batch", 0.16),
            ("fork", 0.16),
            ("free", 0.14),
            ("compact", 0.08),
            ("refused_batch", 0.12),
        )
        names = [name for name, _ in ops]
        weights = np.array([w for _, w in ops])
        weights /= weights.sum()
        self.op_allocate()
        for _ in range(OPS):
            name = names[int(self.rng.choice(len(names), p=weights))]
            if name in ("allocate", "fork") and len(self.lengths) >= MAX_LIVE:
                name = "free"
            getattr(self, f"op_{name}")()
            self.pool.check_invariants()
            for seq_id, length in self.lengths.items():
                assert self.pool.get(seq_id).length == length
        for seq_id in list(self.lengths):
            self.pool.free(seq_id)
            self.pool.check_invariants()
        # Exactly zero: integer accumulators leave no float residue.
        total, ebw = self.pool.measure()
        assert total == 0.0 and ebw == 0.0
        summary = self.pool.summary()
        assert summary["bytes"] == 0.0
        assert summary["shared_bytes"] == 0.0
        assert summary["shared_extra_bytes"] == 0.0
        assert not self.pool._tier_seen


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tiered", [False, True], ids=["untiered", "tiered"])
@pytest.mark.parametrize("arena", [False, True], ids=["chunked", "arena"])
def test_op_sequences_keep_accumulators_exact(factory, arena, tiered, seed):
    machine = _Machine(factory, arena, tiered, seed)
    machine.run()
    # The stream must actually have exercised the interesting ops.
    for name in ("fork", "free", "refused_batch"):
        assert machine.counts.get(name, 0) > 0, machine.counts
    if arena:
        assert machine.counts.get("compact", 0) > 0
        assert machine.pool.summary()["arena_compactions"] > 0.0
    else:
        assert machine.counts.get("mid_chunk_fork", 0) > 0


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
        pool._arena.rows["b"].elements -= 1
        with pytest.raises(AssertionError, match="footprint accumulator"):
            pool.check_invariants()

    def test_registry_totals(self, factory):
        pool = self._pool(factory)
        assert pool.summary()["shared_extra_bytes"] > 0.0
        pool._sharing._extra_bits += 8
        with pytest.raises(AssertionError, match="registry totals"):
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
