"""Structure-of-arrays arena pool: compaction, shared geometry,
capacity growth, recycling and refused batches, case by case.

The randomized contract — arena reads match the one-shot roundtrip of
the rows byte for byte, for every registry method (``arena=True`` is a
no-op for adapter pools) × tiering × batching, through recycling,
compaction and fork divergence — is the pool's state machine
(``tests/test_pool_model.py``).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.quantizer import OakenQuantizer
from repro.engine import (
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
        assert not pool.store.should_compact()
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
        arena = pool.store
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
        arena = pool.store
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

    def test_one_store_with_a_layer_and_a_kv_axis(self, fused_factory):
        pool = KVCachePool(fused_factory, arena=True)
        pool.allocate("seq")
        rows = np.random.default_rng(31).standard_normal((3, DIM))
        for layer in range(LAYERS):
            pool.append("seq", layer, rows, -rows)
        arena = pool.store
        store = arena.store
        assert len(arena.encoder.key_quantizers) == LAYERS
        assert list(arena.rows) == ["seq"]
        # 8 row-parallel buffers + 4..5 record fields, once per arena.
        assert len(store.rows) == 8 and len(store.log) <= 5
        for name, buf in store.rows.items():
            assert buf.shape[:3] == (LAYERS, 2, arena.capacity)
            flat = store.flat[name]
            assert flat.shape[0] == LAYERS * 2 * arena.capacity
            assert flat.shape[1:] == buf.shape[3:]
            assert np.shares_memory(flat, buf)
        # One payload log holds every layer's records, keys' and values'.
        assert all(buf.ndim == 1 for buf in store.log.values())
        start = arena.rows["seq"].start
        assert store.log_len == store.rows["pay_len"][:, :, start:start + 3].sum()
        # Reads are zero-copy, read-only, C-contiguous row-slice views.
        for layer in range(LAYERS):
            for tensor, view in enumerate(pool.read("seq", layer)):
                assert np.shares_memory(
                    view, store.rows["decoded"][layer, tensor]
                )
                assert view.flags.c_contiguous and not view.flags.writeable

    def test_quantizers_of_unequal_config_are_refused(self, fused_factory):
        """Every layer's rows share the store's buffers: one config for
        every layer's keys and values."""
        template = fused_factory()
        keys = [layer.key_quantizer for layer in template.layers]
        values = [layer.value_quantizer for layer in template.layers]
        odd = OakenQuantizer(
            dataclasses.replace(keys[1].config, outlier_bits=4),
            keys[1].thresholds,
            keys[1].mode,
        )
        for k, v in ((keys[:1] + [odd], values), (keys, values[:1] + [odd])):
            with pytest.raises(ValueError, match="share one config"):
                KVArena(k, v)


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


class TestBatchCharge:
    """A batch charges every item the records of its own rows."""

    def test_zero_row_item_beside_a_multi_row_one(self, fused_factory):
        """Items of 2 and 0 rows make as many rows as items: the
        footprint of each must still come from its own rows."""
        arena_pool = KVCachePool(fused_factory, arena=True)
        chunked = KVCachePool(fused_factory)
        arena = arena_pool.store
        for pool in (arena_pool, chunked):
            pool.allocate("full")
            pool.allocate("empty")
        for step in range(3):
            block = make_kv_matrix(
                tokens=2, dim=DIM, seed=90 + step, outlier_channels=(1, 5)
            ).astype(np.float32)
            items = [("full", block, block), ("empty", block[:0], block[:0])]
            for layer in range(LAYERS):
                arena.append_batch(layer, items[:: 1 if step % 2 else -1])
                chunked.append("full", layer, block, block)
            arena_pool.check_invariants()
        for seq_id in ("full", "empty"):
            assert (
                arena_pool.get(seq_id).footprint_bits()
                == chunked.get(seq_id).footprint_bits()
            )
        assert arena.seq_footprint("empty") == (0, 0)


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
        log = arena.store.log_len
        assert log, "calibrated outliers must emit payload records"
        # "a" holds most records; freeing it leaves more dead than live
        # — but only 64 of 256 buffer rows free-listed: no pass.
        arena.free("a")
        assert arena.compactions == 0 and arena.dead_rows == 64
        assert arena.store.dead_records == 0 and 0 < arena.store.log_len < log
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
        arena = pool.store
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
                arena.store.log_len - arena.store.dead_records,
            ]
            return [max(pair) for pair in zip(mark, now)]

        for number in range(self.ROUNDS):
            # The same rows every round: admit half a batch (prompts of
            # 3..18 rows), decode the whole resident batch, retire the
            # half admitted a round ago.
            rng = np.random.default_rng(41)
            mark = [0] * 3
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

    @staticmethod
    def _tiered_pool(fused_factory, arena):
        """A two-layer tiered pool holding one row of sequence 1."""
        tiering = TieredKVStore(device_budget_bytes=2048.0, page_bytes=256.0)
        pool = KVCachePool(fused_factory, tiering=tiering, arena=arena)
        pool.allocate(1)
        rows = np.random.default_rng(31).standard_normal((1, DIM))
        pool.step([(1, [rows] * LAYERS, [rows] * LAYERS)])
        return pool, rows.astype(np.float32)

    @staticmethod
    def _state(pool):
        return (
            pool.summary(),
            pool.get(1).length,
            pool.get(1).footprint_bits(),
            arena_state(pool.store if pool.arena_enabled else None),
            {seq: sorted(streams) for seq, streams in pool.tiering._seqs.items()},
        )

    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "chunked"])
    @pytest.mark.parametrize("layer", [-1, LAYERS])
    def test_a_layer_outside_the_pool_changes_nothing(
        self, fused_factory, arena, layer
    ):
        """Layer -1 used to write layer 1's rows into a second tier
        stream ``(1, -1)``; layer 2 died with a bare ``IndexError``."""
        pool, rows = self._tiered_pool(fused_factory, arena)
        before = self._state(pool)
        for call in (
            lambda: pool.append(1, layer, rows, rows),
            lambda: pool.append_batch(layer, [(1, rows, rows)]),
            lambda: pool.read(1, layer),
            lambda: pool.read_batch(layer, [1]),
        ):
            with pytest.raises(ValueError, match="outside the pool's 2 layers"):
                call()
            assert self._state(pool) == before
        pool.check_invariants()

    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "chunked"])
    @pytest.mark.parametrize("blocks", [LAYERS + 1, LAYERS - 1])
    def test_a_step_of_another_layer_count_changes_nothing(
        self, fused_factory, arena, blocks
    ):
        """Three blocks used to store layers 0 and 1, then raise
        ``IndexError`` (length 1 -> 2 on the arena); one block was
        accepted, leaving layer 0 a row ahead of layer 1."""
        pool, rows = self._tiered_pool(fused_factory, arena)
        before = self._state(pool)
        with pytest.raises(ValueError, match=f"{blocks} key and {blocks} "
                           f"value blocks for {LAYERS} layers"):
            pool.step([(1, [rows] * blocks, [rows] * blocks)])
        assert self._state(pool) == before
        pool.check_invariants()

    def test_a_block_of_another_width_on_layer_1_changes_nothing(
        self, fused_factory
    ):
        """The arena holds every layer's rows at one width: after layer
        0's rows, a layer-1 block of another width is refused, as is a
        fresh arena's step whose layers disagree."""
        pool = KVCachePool(fused_factory, arena=True)
        rng = np.random.default_rng(29)
        pool.allocate(0)
        rows = rng.standard_normal((2, DIM)).astype(np.float32)
        wide = rng.standard_normal((2, DIM + 1)).astype(np.float32)
        before = arena_state(pool.store), pool.measure()
        with pytest.raises(ValueError, match="one width"):
            pool.step([(0, [rows, wide], [rows, wide])])
        assert (arena_state(pool.store), pool.measure()) == before
        pool.append(0, 0, rows, rows)
        before = arena_state(pool.store), pool.measure()
        with pytest.raises(ValueError, match=f"holds rows of width {DIM}"):
            pool.append(0, 1, wide, wide)
        assert (arena_state(pool.store), pool.measure()) == before
        pool.check_invariants()

    def test_unknown_id_late_in_a_batch_changes_nothing(self, fused_factory):
        """Reachable through the public arena API (the pool happens to
        pre-check ids): earlier items must not be left claiming rows
        that were never written."""
        pool = KVCachePool(fused_factory, arena=True)
        arena = pool.store
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


class TestRefusedFork:
    """A fork the arena refuses leaves no child behind."""

    @pytest.mark.parametrize("prefix_len", [-3, -1, 6])
    def test_a_prefix_outside_the_parent_changes_nothing(
        self, fused_factory, prefix_len
    ):
        template = fused_factory()
        arena = KVArena(
            [layer.key_quantizer for layer in template.layers],
            [layer.value_quantizer for layer in template.layers],
        )
        arena.allocate("parent")
        block = np.random.default_rng(47).standard_normal((5, DIM))
        for layer in range(LAYERS):
            arena.append_batch(layer, [("parent", block, block)])
        before = arena_state(arena)
        with pytest.raises(ValueError, match="outside the rows"):
            arena.fork("parent", "child", prefix_len)
        assert "child" not in arena and arena_state(arena) == before
        arena.check_invariants()
