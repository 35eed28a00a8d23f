"""Shared-prefix copy-on-write pool: charge-once accounting and fork
validation, case by case.

The randomized contract — a forked sequence reads bit-identically to
an unshared copy, for every registry method, tiered or not, looped or
batched — is a rule of the pool's state machine
(``tests/test_pool_model.py``).
"""

import numpy as np
import pytest

from repro.engine import (
    BASELINE_NAMES,
    FusedCacheBackend,
    KVCachePool,
    shared_backend_factory,
)

from conftest import make_kv_matrix

pytestmark = pytest.mark.sharing

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


@pytest.fixture(scope="module", params=sorted(BASELINE_NAMES))
def factory(request):
    """One shared-quantizer factory per registry method."""
    return _factory(request.param)


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
