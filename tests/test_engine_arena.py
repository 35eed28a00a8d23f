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

from conftest import arena_state, make_kv_matrix

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
        # Diverge the fork, then churn short-lived sequences through
        # the arena: each burst's regions are recycled by the next, so
        # the extent stops growing after the first burst and no pass is
        # needed to bound it.
        fresh = rng.standard_normal((3, DIM)).astype(np.float32)
        for layer in range(LAYERS):
            pool.append("child", layer, fresh, fresh)
            mirror.append("child", layer, fresh, fresh)
        arena = pool._arena
        before = arena.compactions
        tails = []
        for burst in range(6):
            for offset in range(4):
                seq_id = ("churn", burst, offset)
                pool.allocate(seq_id)
                rows = rng.standard_normal((2, DIM)).astype(np.float32)
                for layer in range(LAYERS):
                    pool.append(seq_id, layer, rows, rows)
            tails.append(arena.tail)
            for offset in range(4):
                pool.free(("churn", burst, offset))
            pool.check_invariants()
        assert arena.compactions == before
        assert max(tails) == tails[0]

        def check_reads():
            for seq_id in ("parent", "child"):
                for layer in range(LAYERS):
                    a = pool.read(seq_id, layer)
                    b = mirror.read(seq_id, layer)
                    np.testing.assert_array_equal(a[0], b[0])
                    np.testing.assert_array_equal(a[1], b[1])

        check_reads()
        # Bit-exactness *through* a pass stays pinned by forcing one:
        # the survivors move (an interior region is free-listed first,
        # so there is a gap to close), keep their capacity, and read
        # the same bytes.
        pool.allocate("gap")
        pool.allocate("last")
        for seq_id in ("gap", "last"):
            for layer in range(LAYERS):
                pool.append(seq_id, layer, fresh, fresh)
        mirror.allocate("last")
        for layer in range(LAYERS):
            mirror.append("last", layer, fresh, fresh)
        pool.free("gap")
        assert arena.dead_rows > 0
        geometry = {
            seq_id: (slc.cap, slc.generation)
            for seq_id, slc in arena.rows.items()
        }
        arena.compact()
        assert arena.compactions == before + 1 and arena.dead_rows == 0
        assert arena.tail == sum(cap for cap, _ in geometry.values())
        for seq_id, (cap, generation) in geometry.items():
            slc = arena.rows[seq_id]
            assert (slc.cap, slc.generation) == (cap, generation + 1)
        pool.check_invariants()
        check_reads()


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
        before = {
            s: (arena.rows[s].generation, arena.rows[s].cap) for s in lengths
        }
        passes = arena.compactions
        arena.compact()
        assert arena.compactions == passes + 1 and arena.dead_rows == 0
        for seq_id, (generation, cap) in before.items():
            slc = arena.rows[seq_id]
            assert slc.generation == generation + 1
            # A pass moves slices; it never trims their slack.
            assert slc.cap == cap
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


class TestRecycling:
    """Freed and outgrown regions are reused, exact fit, last freed
    first; the tail region is reclaimed in place."""

    def _arena(self, fused_factory, rows):
        template = fused_factory()
        arena = KVArena(
            [layer.key_quantizer for layer in template.layers],
            [layer.value_quantizer for layer in template.layers],
        )
        rng = np.random.default_rng(37)
        for seq_id, count in rows.items():
            self._fill(arena, seq_id, count, rng)
        return arena, rng

    @staticmethod
    def _fill(arena, seq_id, count, rng):
        if seq_id not in arena:
            arena.allocate(seq_id)
        block = rng.standard_normal((count, DIM)).astype(np.float32)
        for layer in range(LAYERS):
            arena.append_batch(layer, [(seq_id, block, block)])

    def test_free_lists_are_per_class_and_lifo(self, fused_factory):
        arena, rng = self._arena(
            fused_factory, {"a": 8, "b": 16, "c": 8, "d": 16, "e": 8}
        )
        starts = {s: arena.rows[s].start for s in "abcde"}
        assert [arena.rows[s].cap for s in "abcde"] == [8, 16, 8, 16, 8]
        for seq_id in "abc":
            arena.free(seq_id)
        assert arena.free_slices == {
            8: [starts["a"], starts["c"]], 16: [starts["b"]]
        }
        assert arena.dead_rows == 32 and arena.compactions == 0
        tail = arena.tail
        # Class 8 takes the region freed last; class 16 its own list;
        # neither moves the tail.
        self._fill(arena, "f", 5, rng)
        self._fill(arena, "g", 9, rng)
        assert arena.rows["f"].start == starts["c"]
        assert arena.rows["g"].start == starts["b"]
        assert arena.tail == tail and arena.dead_rows == 8
        # No class-32 region is free: exact fit, so the tail moves and
        # the free class-8 region stays where it is.
        self._fill(arena, "h", 20, rng)
        assert arena.rows["h"].start == tail and arena.tail == tail + 32
        assert arena.free_slices[8] == [starts["a"]]
        arena.check_invariants()

    def test_outgrown_region_is_recycled(self, fused_factory):
        arena, rng = self._arena(fused_factory, {"a": 8, "b": 8})
        old = arena.rows["a"].start
        self._fill(arena, "a", 1, rng)  # 9 rows: class 8 -> 16
        slc = arena.rows["a"]
        assert (slc.cap, slc.generation) == (16, 1) and slc.start != old
        assert arena.free_slices == {8: [old]} and arena.dead_rows == 8
        self._fill(arena, "c", 3, rng)
        assert arena.rows["c"].start == old and arena.dead_rows == 0
        arena.check_invariants()

    def test_tail_region_reclaims_and_extends_in_place(self, fused_factory):
        arena, rng = self._arena(fused_factory, {"a": 8, "b": 8})
        start = arena.rows["b"].start
        self._fill(arena, "b", 1, rng)  # the tail slice grows where it is
        slc = arena.rows["b"]
        assert (slc.start, slc.cap, slc.generation) == (start, 16, 0)
        assert arena.tail == start + 16 and arena.dead_rows == 0
        arena.free("b")
        assert arena.tail == start and arena.dead_rows == 0
        assert not arena.free_slices
        arena.check_invariants()

    def test_dead_payload_records_rebuild_the_log_alone(self, fused_factory):
        arena, rng = self._arena(fused_factory, {"a": 40, "b": 8, "c": 8})
        generations = {s: arena.rows[s].generation for s in "bc"}
        starts = {s: arena.rows[s].start for s in "bc"}
        want = {
            (s, layer): [part.copy() for part in arena.read(s, layer)]
            for s in "bc" for layer in range(LAYERS)
        }
        logs = [store.log_len for store in arena.layers]
        assert all(logs), "calibrated outliers must emit payload records"
        # "a" holds most records; freeing it leaves more dead than live
        # — but only 64 of 256 buffer rows free-listed: no pass.
        arena.free("a")
        assert arena.compactions == 0 and arena.dead_rows == 64
        for store, before in zip(arena.layers, logs):
            assert store.dead_records == 0 and 0 < store.log_len < before
        # Rows stayed put; only their payload addressing was rewritten.
        for seq_id in "bc":
            slc = arena.rows[seq_id]
            assert slc.start == starts[seq_id]
            assert slc.generation == generations[seq_id]
            for layer in range(LAYERS):
                # (Re-decode from the rebuilt log, not the mirror.)
                slc.decoded[layer] = 0
                got = arena.read(seq_id, layer)
                for left, right in zip(got, want[seq_id, layer]):
                    assert left.tobytes() == right.tobytes()
        arena.check_invariants()


class TestBoundedUnderChurn:
    """Steady admit -> decode -> retire churn is absorbed by recycling:
    neither the extent, the buffers nor the payload log (at most twice
    its live records) keeps growing, and a row moves O(log cap) times
    plus once per pass."""

    BATCH = 32
    ROUNDS = 8
    STEPS = 24
    #: Rounds whose high-water marks bound every later round: the fill,
    #: the first at full batch, and the first to start from what a
    #: retirement left behind (free lists, dead payload records).
    SETTLED = 3

    def test_identical_rounds_stop_growing(self, fused_factory):
        pool = KVCachePool(fused_factory, arena=True)
        arena = pool._arena
        half = self.BATCH // 2
        born = {}
        marks = []

        def sample(mark):
            # The log holds at most as many dead records as live ones
            # (``check_invariants`` pins it), so bounded live records
            # bound the log; where in a round a pass falls moves
            # ``log_len`` itself a little from round to round.
            now = [
                arena.tail,
                pool.summary()["arena_capacity_bytes"],
                *(s.log_len - s.dead_records for s in arena.layers),
            ]
            return [max(pair) for pair in zip(mark, now)]

        for number in range(self.ROUNDS):
            # The same rows every round: admit half a batch (prompts of
            # 3..18 rows), decode the whole resident batch, retire the
            # half admitted a round ago.
            rng = np.random.default_rng(41)
            mark = [0] * (2 + LAYERS)
            for i in range(half):
                seq_id = (number, i)
                pool.allocate(seq_id)
                born[seq_id] = arena.compactions
                prompt = rng.standard_normal((3 + i, DIM)).astype(np.float32)
                for layer in range(LAYERS):
                    pool.append(seq_id, layer, prompt, prompt)
            for _ in range(self.STEPS):
                live = pool.seq_ids
                for layer in range(LAYERS):
                    rows = rng.standard_normal(
                        (2, len(live), 1, DIM)
                    ).astype(np.float32)
                    pool.append_batch(
                        layer,
                        [
                            (seq_id, rows[0, i], rows[1, i])
                            for i, seq_id in enumerate(live)
                        ],
                    )
                    pool.read_batch(layer, live)
                mark = sample(mark)
            assert len(pool) == (self.BATCH if number else half)
            for seq_id in pool.seq_ids[: len(pool) - half]:
                slc = arena.rows[seq_id]
                growth = int(np.log2(slc.cap // 8))
                passes = arena.compactions - born[seq_id]
                assert slc.generation <= growth + passes, (
                    seq_id, slc.generation, slc.cap, passes,
                )
                pool.free(seq_id)
                mark = sample(mark)
            pool.check_invariants()
            marks.append(mark)
        settled = [max(column) for column in zip(*marks[: self.SETTLED])]
        for mark in marks[self.SETTLED :]:
            assert all(a <= b for a, b in zip(mark, settled)), (mark, settled)
        # The extent itself is flat from the first full round on.
        assert {mark[0] for mark in marks[1:]} == {marks[1][0]}
        for seq_id in pool.seq_ids:
            pool.free(seq_id)
        pool.check_invariants()
        summary = pool.summary()
        assert summary["arena_rows_live"] == 0.0
        assert summary["bytes"] == 0.0


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

    def test_unknown_id_late_in_a_batch_changes_nothing(self, fused_factory):
        """Reachable through the public arena API (the pool happens to
        pre-check ids): earlier items must not be left claiming rows
        that were never written."""
        pool = KVCachePool(fused_factory, arena=True)
        arena = pool._arena
        rng = np.random.default_rng(43)
        for seq_id in (0, 1):
            pool.allocate(seq_id)
            rows = rng.standard_normal((7, DIM)).astype(np.float32)
            for layer in range(LAYERS):
                pool.append(seq_id, layer, rows, rows)

        def snapshot():
            return arena_state(arena), pool.measure()

        before = snapshot()
        # Enough rows that sequence 0 would have to relocate.
        block = rng.standard_normal((5, DIM)).astype(np.float32)
        with pytest.raises(KeyError):
            arena.append_batch(
                0, [(0, block, block), ("nobody", block, block)]
            )
        with pytest.raises(KeyError):
            pool.get(0).arena.append_batch(
                1, [(1, block, block), (0, block, block), (2, block, block)]
            )
        assert snapshot() == before
        pool.check_invariants()
        # The same batch without the stranger lands, in order.
        arena.append_batch(0, [(0, block, block), (0, block[:2], block[:2])])
        assert arena.rows[0].length == [14, 7]
        pool.check_invariants()
