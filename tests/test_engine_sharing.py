"""Shared-prefix copy-on-write pool vs. a no-sharing twin, bit-for-bit.

The pinned contract: a forked sequence is *indistinguishable* from an
unshared copy — every ``read()`` byte-identical, for every registry
method, with and without tiering, under looped and batched paths.  The
harness replays seeded random op sequences (allocate / fork / append /
append_batch / read / read_batch / free at random points) against a
mirrored pool that never forks (the mirror re-encodes every forked
prefix from the same raw rows), asserting byte equality plus
refcount/footprint invariants after every op.
"""

import numpy as np
import pytest

from repro.engine import (
    BASELINE_NAMES,
    FusedCacheBackend,
    KVCachePool,
    TieredKVStore,
    shared_backend_factory,
)

from conftest import make_kv_matrix

pytestmark = pytest.mark.sharing

LAYERS = 2
DIM = 8
SEEDS = range(5)
OPS = 200
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
    sharing layer's fault, never calibration drift.
    """
    return _factory(request.param)


class _Driver:
    """Twin-pool differential state machine.

    ``sharing`` forks; ``mirror`` re-encodes forked prefixes from the
    recorded raw rows.  ``history[seq][layer]`` is the exact float32
    row stream both pools have seen for that sequence, so a mirror of
    any fork can always be rebuilt from first principles.
    """

    def __init__(self, factory, tiered, seed):
        tiering = None
        if tiered:
            # Small device budget so the op stream genuinely spills.
            tiering = TieredKVStore(
                device_budget_bytes=2048.0, page_bytes=256.0
            )
        self.sharing = KVCachePool(factory, tiering=tiering)
        self.mirror = KVCachePool(factory)
        # Only the fused chunked backend aliases storage; adapter
        # backends fork by exact-row copy (bit-exact, no byte savings).
        self.cow = isinstance(factory(), FusedCacheBackend)
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
        self.sharing.allocate(seq_id)
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
        self.sharing.fork(parent, child, prefix_len)
        self.mirror.allocate(child)
        self.history[child] = {}
        for layer in range(LAYERS):
            keys = np.concatenate(
                [k for k, _ in self.history[parent][layer]]
            )[:prefix_len]
            values = np.concatenate(
                [v for _, v in self.history[parent][layer]]
            )[:prefix_len]
            self.mirror.append(child, layer, keys, values)
            self.history[child][layer] = [(keys, values)]
        self.forked += 1
        # The boundary split rewrites the parent's chunk list in
        # place, so the parent's bytes must be re-verified too.
        return [parent, child]

    def op_append(self):
        seq_id = self.pick()
        if self.length(seq_id) >= MAX_ROWS:
            return [seq_id]
        n = int(self.rng.integers(1, 4))
        for layer in range(LAYERS):
            keys, values = self.rows(n), self.rows(n)
            self.sharing.append(seq_id, layer, keys, values)
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
            self.sharing.append_batch(layer, batch)
            self.mirror.append_batch(layer, dict(batch))
        return picked

    def op_read(self):
        seq_id = self.pick()
        if self.length(seq_id) == 0:
            return [seq_id]
        layer = int(self.rng.integers(LAYERS))
        a = self.sharing.read(seq_id, layer)
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
        got = self.sharing.read_batch(layer, picked)
        want = self.mirror.read_batch(layer, picked)
        for (ak, av), (bk, bv) in zip(got, want):
            np.testing.assert_array_equal(ak, bk)
            np.testing.assert_array_equal(av, bv)
        return picked

    def op_free(self):
        seq_id = self.pick()
        self.sharing.free(seq_id)
        assert self.mirror.free(seq_id) or self.length(seq_id) == 0
        del self.history[seq_id]
        return []

    # -- invariants ----------------------------------------------------

    def verify(self, seq_ids):
        """Byte equality for ``seq_ids`` + footprint invariants."""
        for seq_id in seq_ids:
            if seq_id not in self.history or self.length(seq_id) == 0:
                continue
            for layer in range(LAYERS):
                a = self.sharing.read(seq_id, layer)
                b = self.mirror.read(seq_id, layer)
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])
        # Accumulators == recomputed walks, registry totals included.
        self.sharing.check_invariants()
        self.mirror.check_invariants()
        shared_bytes, _ = self.sharing.measure()
        mirror_bytes, _ = self.mirror.measure()
        summary = self.sharing.summary()
        # Charge-once accounting: the sharing pool's footprint is the
        # mirror's minus exactly the refcounted overcount.
        assert np.isclose(
            shared_bytes, mirror_bytes - summary["shared_extra_bytes"]
        ), (shared_bytes, mirror_bytes, summary)
        assert shared_bytes <= mirror_bytes + 1e-9
        assert summary["shared_extra_bytes"] >= 0.0
        assert summary["shared_bytes"] <= mirror_bytes + 1e-9

    def drain(self):
        for seq_id in list(self.history):
            self.sharing.free(seq_id)
            self.mirror.free(seq_id)
        self.sharing.check_invariants()
        summary = self.sharing.summary()
        assert summary["shared_chunks"] == 0.0
        assert summary["shared_bytes"] == 0.0
        assert summary["shared_extra_bytes"] == 0.0
        shared_bytes, _ = self.sharing.measure()
        assert shared_bytes == 0.0
        if self.forked and self.cow:
            assert summary["shared_bytes_saved"] > 0.0


def _run(factory, tiered, seed):
    driver = _Driver(factory, tiered, seed)
    driver.op_allocate()
    ops = (
        ("allocate", 0.08),
        ("fork", 0.16),
        ("append", 0.28),
        ("append_batch", 0.14),
        ("read", 0.10),
        ("read_batch", 0.10),
        ("free", 0.14),
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


# Adapter backends fork by exact-row copy (no byte aliasing), so the
# zero-new-bytes / delta-only properties only hold for the fused
# chunk-aliasing backend: the charge-once tests are parametrised over
# the fused methods alone rather than generated for every method and
# skipped.
FUSED_METHODS = ("oaken",)


@pytest.fixture(scope="module", params=FUSED_METHODS)
def cow_factory(request):
    factory = _factory(request.param)
    assert isinstance(factory(), FusedCacheBackend)
    return factory


class TestChargeOnceAccounting:
    """The admission-capacity face of sharing: shared bytes are
    charged exactly once by ``nbytes()``/``measure``."""

    def test_fork_adds_zero_bytes(self, cow_factory):
        pool = KVCachePool(cow_factory)
        pool.allocate("parent")
        rng = np.random.default_rng(0)
        for layer in range(LAYERS):
            rows = rng.standard_normal((6, DIM)).astype(np.float32)
            pool.append("parent", layer, rows, rows)
        before, _ = pool.measure()
        child = pool.fork("parent", "child", 6)
        after, _ = pool.measure()
        assert after == before
        assert child.nbytes() > 0.0

    def test_divergence_charges_only_the_delta(self, cow_factory):
        pool = KVCachePool(cow_factory)
        twin = KVCachePool(cow_factory)
        rng = np.random.default_rng(1)
        prefix = rng.standard_normal((5, DIM)).astype(np.float32)
        fresh = rng.standard_normal((2, DIM)).astype(np.float32)
        pool.allocate("parent")
        twin.allocate("solo")
        for layer in range(LAYERS):
            pool.append("parent", layer, prefix, prefix)
        pool.fork("parent", "child", 5)
        before, _ = pool.measure()
        for layer in range(LAYERS):
            pool.append("child", layer, fresh, fresh)
            twin.append("solo", layer, fresh, fresh)
        after, _ = pool.measure()
        delta, _ = twin.measure()
        assert np.isclose(after - before, delta)

    def test_last_reference_drop_releases_everything(self, factory):
        pool = KVCachePool(factory)
        pool.allocate("a")
        rng = np.random.default_rng(2)
        for layer in range(LAYERS):
            rows = rng.standard_normal((4, DIM)).astype(np.float32)
            pool.append("a", layer, rows, rows)
        pool.fork("a", "b", 4)
        pool.fork("a", "c", 2)
        for seq_id in ("a", "b", "c"):
            pool.free(seq_id)
        total, _ = pool.measure()
        assert total == 0.0
        assert pool.summary()["shared_chunks"] == 0.0


class TestForkValidation:
    def test_unknown_parent(self, factory):
        pool = KVCachePool(factory)
        with pytest.raises(KeyError, match="ghost"):
            pool.fork("ghost", "child", 1)

    def test_child_already_allocated(self, factory):
        pool = KVCachePool(factory)
        pool.allocate("a")
        pool.allocate("b")
        rows = np.zeros((2, DIM), dtype=np.float32)
        for layer in range(LAYERS):
            pool.append("a", layer, rows, rows)
        with pytest.raises(ValueError, match="already allocated"):
            pool.fork("a", "b", 1)

    def test_prefix_past_cached_length(self, factory):
        pool = KVCachePool(factory)
        pool.allocate("a")
        rows = np.zeros((2, DIM), dtype=np.float32)
        for layer in range(LAYERS):
            pool.append("a", layer, rows, rows)
        with pytest.raises(ValueError, match="prefix_len"):
            pool.fork("a", "child", 3)
