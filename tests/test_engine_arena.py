"""Structure-of-arrays arena pool vs. the chunked pool, bit-for-bit.

The pinned contract: ``KVCachePool(arena=True)`` is *indistinguishable*
from the chunked pool — every ``read()`` byte-identical, for every
registry method, with and without tiering, under looped and batched
paths, including after compaction and fork divergence.  The harness
replays seeded random op sequences (allocate / fork / append /
append_batch / read / read_batch / free at random points) against a
chunked mirror pool built from the same factory, asserting byte
equality plus footprint invariants after every op.

Only the fused paper method actually gets an arena (adapter baselines
keep their per-method cache objects; ``arena=True`` is a structural
no-op for them), so the differential sweep doubles as a regression
gate on that opt-in boundary.
"""

import numpy as np
import pytest

from repro.engine import (
    BASELINE_NAMES,
    FusedCacheBackend,
    KVArena,
    KVCachePool,
    TieredKVStore,
    shared_backend_factory,
)

from conftest import make_kv_matrix

pytestmark = pytest.mark.arena

LAYERS = 2
DIM = 8
SEEDS = range(3)
OPS = 160
MAX_LIVE = 8
MAX_ROWS = 60


def _factory(method):
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
    return shared_backend_factory(method, calibration=calibration)


@pytest.fixture(scope="module", params=sorted(BASELINE_NAMES))
def factory(request):
    """One shared-quantizer factory per registry method.

    Both twin pools are built from the *same* factory, so their
    backends share fitted quantizers — any byte difference is the
    arena's fault, never calibration drift.
    """
    return _factory(request.param)


# Only the fused paper method routes through the arena, so the
# arena-specific invariants (compaction counters, capacity geometry,
# refused-batch atomicity) have nothing to measure for adapter
# backends: those tests are parametrised over the fused methods alone
# rather than generated for every method and skipped.
FUSED_METHODS = ("oaken",)


@pytest.fixture(scope="module", params=FUSED_METHODS)
def fused_factory(request):
    factory = _factory(request.param)
    assert isinstance(factory(), FusedCacheBackend)
    return factory


class _Driver:
    """Twin-pool differential state machine.

    ``arena`` stores rows in the SoA arena (when the method is fused);
    ``mirror`` is the plain chunked pool.  ``history[seq][layer]`` is
    the exact float32 row stream both pools have seen for that
    sequence.  Forks diverge the storage models on purpose: the
    chunked mirror forks copy-on-write while the arena copies rows, so
    the byte-equality sweep exercises both against the same truth.
    """

    def __init__(self, factory, tiered, seed):
        tiering = None
        if tiered:
            # Small device budget so the op stream genuinely spills.
            tiering = TieredKVStore(
                device_budget_bytes=2048.0, page_bytes=256.0
            )
        self.arena = KVCachePool(factory, tiering=tiering, arena=True)
        self.mirror = KVCachePool(factory)
        self.fused = isinstance(factory(), FusedCacheBackend)
        # The opt-in boundary: fused pools get an arena, adapters are
        # a structural no-op.
        assert self.arena.arena_enabled == self.fused
        self.rng = np.random.default_rng(seed)
        self.history = {}
        self.next_id = 0
        self.forked = 0

    # -- helpers -------------------------------------------------------

    def rows(self, n):
        return self.rng.standard_normal((n, DIM)).astype(np.float32)

    def live(self):
        return list(self.history)

    def length(self, seq_id):
        return sum(k.shape[0] for k, _ in self.history[seq_id][0])

    def pick(self):
        seqs = self.live()
        return seqs[int(self.rng.integers(len(seqs)))]

    # -- ops -----------------------------------------------------------

    def op_allocate(self):
        seq_id = self.next_id
        self.next_id += 1
        self.arena.allocate(seq_id)
        self.mirror.allocate(seq_id)
        self.history[seq_id] = {layer: [] for layer in range(LAYERS)}
        return [seq_id]

    def op_fork(self):
        parent = self.pick()
        parent_len = self.length(parent)
        if parent_len < 1:
            return self.op_append()
        child = self.next_id
        self.next_id += 1
        prefix_len = int(self.rng.integers(1, parent_len + 1))
        self.arena.fork(parent, child, prefix_len)
        self.mirror.fork(parent, child, prefix_len)
        self.history[child] = {}
        for layer in range(LAYERS):
            keys = np.concatenate(
                [k for k, _ in self.history[parent][layer]]
            )[:prefix_len]
            values = np.concatenate(
                [v for _, v in self.history[parent][layer]]
            )[:prefix_len]
            self.history[child][layer] = [(keys, values)]
        self.forked += 1
        return [parent, child]

    def op_append(self):
        seq_id = self.pick()
        if self.length(seq_id) >= MAX_ROWS:
            return [seq_id]
        n = int(self.rng.integers(1, 4))
        for layer in range(LAYERS):
            keys, values = self.rows(n), self.rows(n)
            self.arena.append(seq_id, layer, keys, values)
            self.mirror.append(seq_id, layer, keys, values)
            self.history[seq_id][layer].append((keys, values))
        return [seq_id]

    def op_append_batch(self):
        seqs = [
            s for s in self.live() if self.length(s) < MAX_ROWS
        ]
        if not seqs:
            return []
        size = int(self.rng.integers(1, min(4, len(seqs)) + 1))
        picked = [
            seqs[i]
            for i in self.rng.choice(len(seqs), size=size, replace=False)
        ]
        for layer in range(LAYERS):
            batch = {}
            for seq_id in picked:
                keys, values = self.rows(1), self.rows(1)
                batch[seq_id] = (keys, values)
                self.history[seq_id][layer].append((keys, values))
            self.arena.append_batch(layer, batch)
            self.mirror.append_batch(layer, dict(batch))
        return picked

    def op_read(self):
        seq_id = self.pick()
        if self.length(seq_id) == 0:
            return [seq_id]
        layer = int(self.rng.integers(LAYERS))
        a = self.arena.read(seq_id, layer)
        b = self.mirror.read(seq_id, layer)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        return [seq_id]

    def op_read_batch(self):
        seqs = [s for s in self.live() if self.length(s) > 0]
        if not seqs:
            return []
        size = int(self.rng.integers(1, min(4, len(seqs)) + 1))
        picked = [
            seqs[i]
            for i in self.rng.choice(len(seqs), size=size, replace=False)
        ]
        layer = int(self.rng.integers(LAYERS))
        got = self.arena.read_batch(layer, picked)
        want = self.mirror.read_batch(layer, picked)
        for (ak, av), (bk, bv) in zip(got, want):
            np.testing.assert_array_equal(ak, bk)
            np.testing.assert_array_equal(av, bv)
        return picked

    def op_free(self):
        # Frees are how dead rows accumulate, so this op is the
        # compaction trigger; the post-op verify then re-reads every
        # survivor through relocated storage.
        seq_id = self.pick()
        self.arena.free(seq_id)
        self.mirror.free(seq_id)
        del self.history[seq_id]
        return list(self.history)

    # -- invariants ----------------------------------------------------

    def verify(self, seq_ids):
        """Byte equality for ``seq_ids`` + footprint invariants."""
        for seq_id in seq_ids:
            if seq_id not in self.history or self.length(seq_id) == 0:
                continue
            for layer in range(LAYERS):
                a = self.arena.read(seq_id, layer)
                b = self.mirror.read(seq_id, layer)
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])
            # Per-sequence accounting is storage-agnostic: the arena
            # backend's closed-form bit count must equal the chunked
            # backend's chunk-summed one.
            a_cache = self.arena._caches[seq_id]
            b_cache = self.mirror._caches[seq_id]
            assert np.isclose(a_cache.nbytes(), b_cache.nbytes())
            assert np.isclose(
                a_cache.effective_bitwidth(),
                b_cache.effective_bitwidth(),
            )
        # Accumulators == recomputed walks (arena rows / chunk lists).
        self.arena.check_invariants()
        self.mirror.check_invariants()
        arena_bytes, _ = self.arena.measure()
        mirror_bytes, _ = self.mirror.measure()
        summary = self.mirror.summary()
        # The arena copies forked rows while the chunked mirror
        # charges shared chunks once, so the arena pool's footprint is
        # the mirror's plus exactly the mirror's refcount savings.
        assert np.isclose(
            arena_bytes,
            mirror_bytes + summary.get("shared_extra_bytes", 0.0),
        ), (arena_bytes, mirror_bytes, summary)
        if self.fused:
            arena_summary = self.arena.summary()
            # Live rows are token rows: every layer holds one row per
            # token of every live sequence, dead or compacted storage
            # never leaks into the live count.
            total_tokens = sum(self.length(s) for s in self.history)
            assert arena_summary["arena_rows_live"] == float(
                LAYERS * total_tokens
            )
            assert arena_summary["arena_rows_dead"] >= 0.0
            if total_tokens:
                assert arena_summary["arena_capacity_bytes"] > 0.0

    def drain(self):
        for seq_id in list(self.history):
            self.arena.free(seq_id)
            self.mirror.free(seq_id)
        self.arena.check_invariants()
        arena_bytes, _ = self.arena.measure()
        assert arena_bytes == 0.0
        if self.fused:
            assert self.arena.summary()["arena_rows_live"] == 0.0


def _run(factory, tiered, seed):
    driver = _Driver(factory, tiered, seed)
    driver.op_allocate()
    ops = (
        ("allocate", 0.08),
        ("fork", 0.16),
        ("append", 0.26),
        ("append_batch", 0.14),
        ("read", 0.10),
        ("read_batch", 0.10),
        ("free", 0.16),
    )
    names = [name for name, _ in ops]
    weights = np.array([w for _, w in ops])
    weights /= weights.sum()
    for step in range(OPS):
        name = names[
            int(driver.rng.choice(len(names), p=weights))
        ]
        if name in ("allocate", "fork") and len(driver.live()) >= MAX_LIVE:
            name = "append"
        if name == "free" and len(driver.live()) <= 1:
            name = "allocate"
        touched = getattr(driver, f"op_{name}")()
        driver.verify(touched)
        if step % 16 == 15:
            driver.verify(driver.live())
    driver.verify(driver.live())
    assert driver.forked > 0, "op stream never forked; widen weights"
    driver.drain()


@pytest.mark.parametrize("seed", SEEDS)
class TestDifferentialReplay:
    """Seeded op-stream replays: every method, both tiering modes."""

    def test_untiered(self, factory, seed):
        _run(factory, tiered=False, seed=seed)

    def test_tiered(self, factory, seed):
        _run(factory, tiered=True, seed=seed)


class TestCompaction:
    """Deterministic compaction coverage: storage relocates, bytes
    don't change."""

    def test_free_churn_compacts_and_preserves_survivors(self, fused_factory):
        pool = KVCachePool(fused_factory, arena=True)
        mirror = KVCachePool(fused_factory)
        rng = np.random.default_rng(11)
        seqs = list(range(12))
        for seq_id in seqs:
            pool.allocate(seq_id)
            mirror.allocate(seq_id)
            for layer in range(LAYERS):
                rows = rng.standard_normal((5, DIM)).astype(np.float32)
                pool.append(seq_id, layer, rows, rows)
                mirror.append(seq_id, layer, rows, rows)
        # Free the front of the arena (never the tail slice) so dead
        # rows must accumulate until the watermark trips.
        for seq_id in seqs[:9]:
            pool.free(seq_id)
            mirror.free(seq_id)
        summary = pool.summary()
        assert summary["arena_compactions"] > 0.0
        assert summary["arena_rows_live"] == float(LAYERS * 3 * 5)
        # Post-free invariant: the arena is never left past the
        # compaction watermark (frees compact eagerly).
        assert not pool._arena.should_compact()
        for seq_id in seqs[9:]:
            for layer in range(LAYERS):
                a = pool.read(seq_id, layer)
                b = mirror.read(seq_id, layer)
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])
        pool_bytes, _ = pool.measure()
        mirror_bytes, _ = mirror.measure()
        assert np.isclose(pool_bytes, mirror_bytes)

    def test_fork_divergence_survives_compaction(self, fused_factory):
        pool = KVCachePool(fused_factory, arena=True)
        mirror = KVCachePool(fused_factory)
        rng = np.random.default_rng(13)
        prefix = rng.standard_normal((6, DIM)).astype(np.float32)
        pool.allocate("parent")
        mirror.allocate("parent")
        for layer in range(LAYERS):
            pool.append("parent", layer, prefix, prefix)
            mirror.append("parent", layer, prefix, prefix)
        pool.fork("parent", "child", 4)
        mirror.allocate("child")
        for layer in range(LAYERS):
            mirror.append(
                "child", layer, prefix[:4], prefix[:4]
            )
        # Diverge the fork, then churn enough short-lived sequences
        # through the arena to force at least one compaction pass.
        fresh = rng.standard_normal((3, DIM)).astype(np.float32)
        for layer in range(LAYERS):
            pool.append("child", layer, fresh, fresh)
            mirror.append("child", layer, fresh, fresh)
        before = pool.summary()["arena_compactions"]
        for burst in range(6):
            for offset in range(4):
                seq_id = ("churn", burst, offset)
                pool.allocate(seq_id)
                rows = rng.standard_normal((2, DIM)).astype(np.float32)
                for layer in range(LAYERS):
                    pool.append(seq_id, layer, rows, rows)
            for offset in range(4):
                pool.free(("churn", burst, offset))
        assert pool.summary()["arena_compactions"] > before
        for seq_id in ("parent", "child"):
            for layer in range(LAYERS):
                a = pool.read(seq_id, layer)
                b = mirror.read(seq_id, layer)
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])


class TestSharedGeometry:
    """One row table serves every layer: a sequence's slice is the same
    row range in each layer's store, but layers need not hold the same
    number of rows."""

    def test_layers_driven_unevenly_match_the_chunked_mirror(
        self, fused_factory
    ):
        pool = KVCachePool(fused_factory, arena=True)
        mirror = KVCachePool(fused_factory)
        arena = pool._arena
        rng = np.random.default_rng(29)
        lengths = {}

        def allocate(seq_id):
            pool.allocate(seq_id)
            mirror.allocate(seq_id)
            lengths[seq_id] = [0] * LAYERS

        def append(layer, counts):
            batch = {
                seq_id: (
                    rng.standard_normal((n, DIM)).astype(np.float32),
                    rng.standard_normal((n, DIM)).astype(np.float32),
                )
                for seq_id, n in counts.items()
            }
            pool.append_batch(layer, batch)
            mirror.append_batch(layer, dict(batch))
            for seq_id, n in counts.items():
                lengths[seq_id][layer] += n

        def check():
            pool.check_invariants()
            for seq_id, per_layer in lengths.items():
                assert arena.rows[seq_id].length == per_layer
                for layer, length in enumerate(per_layer):
                    if not length:
                        continue
                    got = pool.read(seq_id, layer)
                    want = mirror.read(seq_id, layer)
                    for left, right in zip(got, want):
                        assert left.shape == (length, DIM)
                        assert left.tobytes() == right.tobytes()
                assert np.isclose(
                    pool.get(seq_id).nbytes(), mirror.get(seq_id).nbytes()
                )
            assert pool.summary()["arena_rows_live"] == float(
                sum(sum(per_layer) for per_layer in lengths.values())
            )

        for seq_id in "abc":
            allocate(seq_id)
        for layer in range(LAYERS):
            append(layer, {"a": 3, "b": 3, "c": 3})
            check()
        # Layer 0 runs ahead (past the slices' first capacity, so "a"
        # relocates while layer 1 still holds its old row count).
        append(0, {"a": 7, "c": 2})
        check()
        assert arena.rows["a"].generation > 0
        # Fork mid-step: only rows every layer holds can be shared.
        with pytest.raises(ValueError):
            pool.fork("a", "x", 4)
        assert "x" not in pool
        check()
        pool.fork("a", "d", 2)
        mirror.fork("a", "d", 2)
        lengths["d"] = [2] * LAYERS
        check()
        # Layer 1 catches up, and runs ahead on the child.
        append(1, {"a": 7, "c": 2, "d": 5})
        check()
        # Free an interior sequence, then force a compaction pass.
        assert arena.rows["b"].start + arena.rows["b"].cap < arena.tail
        pool.free("b")
        mirror.free("b")
        del lengths["b"]
        check()
        generations = {s: arena.rows[s].generation for s in lengths}
        passes = arena.compactions
        arena.compact()
        assert arena.compactions == passes + 1 and arena.dead_rows == 0
        for seq_id, before in generations.items():
            slc = arena.rows[seq_id]
            assert slc.generation == before + 1
            assert slc.cap == max(8, *slc.length)
        check()
        # Relocation after compaction, led by layer 1 this time.
        append(1, {"a": 20})
        check()
        append(0, {"a": 20, "d": 5})
        check()
        assert pool.summary()["arena_compactions"] == float(
            LAYERS * arena.compactions
        )

    def test_one_store_per_layer_with_a_kv_axis(self, fused_factory):
        pool = KVCachePool(fused_factory, arena=True)
        pool.allocate("seq")
        rows = np.random.default_rng(31).standard_normal((3, DIM))
        for layer in range(LAYERS):
            pool.append("seq", layer, rows, -rows)
        arena = pool._arena
        assert len(arena.layers) == LAYERS and list(arena.rows) == ["seq"]
        buffers = [
            buf
            for store in arena.layers
            for buf in (*store.rows.values(), *store.log.values())
        ]
        # 8 row-parallel buffers + 4..5 record fields, once per layer.
        assert len(buffers) <= 13 * LAYERS
        for store in arena.layers:
            assert all(buf.shape[0] == 2 for buf in store.rows.values())
        # Reads are zero-copy, read-only, C-contiguous row-slice views.
        for layer, store in enumerate(arena.layers):
            for tensor, view in enumerate(pool.read("seq", layer)):
                assert np.shares_memory(view, store.decoded[tensor])
                assert view.flags.c_contiguous and not view.flags.writeable


class TestCapacityGeometry:
    """Row-slice growth is geometric: appends double a sequence's row
    cap in place (or relocate it to the tail) instead of reallocating
    per token."""

    def test_row_cap_doubles(self, fused_factory):
        template = fused_factory()
        arena = KVArena(
            [layer.key_quantizer for layer in template.layers],
            [layer.value_quantizer for layer in template.layers],
        )
        backend = arena.allocate("seq")
        rng = np.random.default_rng(17)
        caps = set()
        for _ in range(40):
            row = rng.standard_normal((1, DIM)).astype(np.float32)
            for layer in range(LAYERS):
                backend.append(layer, row, row)
            row_slice = arena.rows["seq"]
            caps.add(row_slice.cap)
            assert row_slice.cap >= max(row_slice.length)
        # Geometric schedule: every observed cap is the floor times a
        # power of two, and the number of distinct caps stays
        # logarithmic in the appended length.
        floor = min(caps)
        for cap in caps:
            ratio = cap / floor
            assert ratio == int(ratio) and int(ratio) & (int(ratio) - 1) == 0
        assert len(caps) <= 4

    def test_arena_capacity_tracks_growth(self, fused_factory):
        pool = KVCachePool(fused_factory, arena=True)
        pool.allocate("seq")
        rng = np.random.default_rng(19)
        first = None
        # 320 rows: past the arena's initial row capacity, so the
        # row-parallel buffers must have doubled at least once.
        for step in range(20):
            rows = rng.standard_normal((16, DIM)).astype(np.float32)
            for layer in range(LAYERS):
                pool.append("seq", layer, rows, rows)
            if first is None:
                first = pool.summary()["arena_capacity_bytes"]
        grown = pool.summary()["arena_capacity_bytes"]
        assert grown > first
        # Slack is reported separately from content: the admission
        # gate's measured footprint never includes arena headroom.
        content, _ = pool.measure()
        assert content < grown


class TestRefusedBatchIsAtomic:
    """A batch the kernel refuses leaves every sequence untouched."""

    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "chunked"])
    def test_wrong_width_block_changes_nothing(self, fused_factory, arena):
        pool = KVCachePool(fused_factory, arena=arena)
        rng = np.random.default_rng(23)
        seq_ids = [0, 1, 2]
        for seq_id in seq_ids:
            pool.allocate(seq_id)
            rows = rng.standard_normal((2, DIM)).astype(np.float32)
            for layer in range(LAYERS):
                pool.append(seq_id, layer, rows, rows)

        def state():
            return (
                [pool.get(seq_id).length for seq_id in seq_ids],
                pool.nbytes(),
                [
                    [part.copy() for part in pool.read(seq_id, layer)]
                    for seq_id in seq_ids
                    for layer in range(LAYERS)
                ],
            )

        lengths, nbytes, reads = state()
        good = rng.standard_normal((1, DIM)).astype(np.float32)
        bad = rng.standard_normal((1, DIM + 1)).astype(np.float32)
        with pytest.raises(ValueError):
            pool.append_batch(
                0, [(0, good, good), (1, bad, bad), (2, good, good)]
            )
        after_lengths, after_nbytes, after_reads = state()
        assert after_lengths == lengths
        assert after_nbytes == nbytes
        for before, after in zip(reads, after_reads):
            for left, right in zip(before, after):
                assert np.array_equal(left, right)
