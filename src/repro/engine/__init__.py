"""Unified cache-engine API.

One protocol (:class:`CacheBackend`), one factory
(:func:`create_backend`), one multi-sequence arena
(:class:`KVCachePool`).  Every quantized-KV consumer in the repo — the
autoregressive generation loop, the serving simulator's cache-replay
mode, the evaluation harness and the CLI — constructs caches through
this package, for the paper method and every Table 2 baseline alike.
Both hot directions batch across the pool's resident set: one fused
encode per iteration (:meth:`KVCachePool.append_batch`) and one fused
decode (:meth:`KVCachePool.read_batch`), each bit-identical to
per-sequence loops.

Quickstart (full walkthrough in ``docs/engine_api.md``)::

    from repro.engine import create_backend, shared_backend_factory
    from repro.engine import KVCachePool

    backend = create_backend("kivi", num_layers=2)   # any method
    backend.append(0, keys, values)                  # stream KV rows
    k, v = backend.read(0)                           # lossy history

    pool = KVCachePool(
        shared_backend_factory("oaken", calibration=calibration)
    )
    pool.allocate("req-0"); pool.allocate("req-1")
    ...
    pool.append_batch(0, {"req-0": (k0, v0), "req-1": (k1, v1)})
    pool.read_batch(layer=0, seq_ids=["req-0", "req-1"])
"""

from repro.engine.arena import ArenaCacheBackend, KVArena
from repro.engine.errors import CacheCapacityError, MemoryCapacityError
from repro.engine.backend import (
    BASELINE_NAMES,
    BaselineCacheBackend,
    CacheBackend,
    FusedCacheBackend,
    available_methods,
    backend_for_model,
    create_backend,
    create_quantizer,
    shared_backend_factory,
)
from repro.engine.pool import KVCachePool
from repro.engine.sharing import ChunkStore
from repro.engine.synthetic import SyntheticKVStream
from repro.engine.tiering import (
    EVICTION_POLICIES,
    TieredKVStore,
    TransferModel,
    default_transfer_model,
)

__all__ = [
    "ArenaCacheBackend",
    "BASELINE_NAMES",
    "BaselineCacheBackend",
    "KVArena",
    "CacheBackend",
    "CacheCapacityError",
    "ChunkStore",
    "EVICTION_POLICIES",
    "FusedCacheBackend",
    "KVCachePool",
    "MemoryCapacityError",
    "SyntheticKVStream",
    "TieredKVStore",
    "TransferModel",
    "available_methods",
    "backend_for_model",
    "create_backend",
    "create_quantizer",
    "default_transfer_model",
    "shared_backend_factory",
]
