"""Read probe: the pool's reads against a one-shot oracle.

Output check (c) of the benchmark, run outside the timed region.  A
:class:`~repro.engine.KVCachePool` with the workload's store settings
streams :class:`~repro.engine.SyntheticKVStream` rows through
``append_batch`` / ``read_batch`` — one ``fork`` and one ``free``
mid-stream — and every read must be bit-equal to the oracle: that
sequence's rows, kept as plain per-sequence arrays, pushed through the
layer quantizer's one-shot ``roundtrip``.  The oracle shares only the
fitted quantizers with the pool; chunking, scatter/gather, forking,
compaction and tier placement are all on the pool's side alone.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

STEPS = 64
SEQUENCES = 16
LAYERS = 2
DIM = 32
CALIBRATION_TOKENS = 64
FORK_STEP, FORK_PARENT, FORK_CHILD = 24, 3, SEQUENCES
FREE_STEP, FREE_SEQ = 40, 5


def read_probe(
    replay_kwargs: Dict[str, Any], seed: int, corrupt: bool = False
) -> Dict[str, float]:
    """Run the probe; return ``reads``, ``mismatches`` and ``sqnr_db``.

    ``corrupt`` flips the sign of one element of one read before it is
    compared — the benchmark's self-test that a wrong read fails the
    run.
    """
    from repro.engine import (
        KVCachePool,
        SyntheticKVStream,
        TieredKVStore,
        shared_backend_factory,
    )

    stream = SyntheticKVStream(DIM, seed=seed)
    factory = shared_backend_factory(
        "oaken",
        calibration=stream.calibration(LAYERS, CALIBRATION_TOKENS),
        mode="deploy_f32",
    )
    quantizers = [
        (layer.key_quantizer, layer.value_quantizer)
        for layer in factory().layers
    ]
    tiering = None
    if replay_kwargs.get("device_budget_mb") is not None:
        tiering = TieredKVStore(
            device_budget_bytes=replay_kwargs["device_budget_mb"] * 2.0**20,
            page_bytes=1024,
            policy=replay_kwargs.get("eviction", "lru"),
            prefetch_pages=1,
        )
    pool = KVCachePool(
        factory, tiering=tiering, arena=replay_kwargs.get("arena", False)
    )

    # rows[seq][layer][tensor] -> list of [1, DIM] float rows
    rows: Dict[int, list] = {}
    for seq in range(SEQUENCES):
        pool.allocate(seq)
        rows[seq] = [([], []) for _ in range(LAYERS)]
    reads = mismatches = 0
    signal = noise = 0.0
    for step in range(STEPS):
        if step == FORK_STEP:
            pool.fork(FORK_PARENT, FORK_CHILD, pool.get(FORK_PARENT).length)
            rows[FORK_CHILD] = [
                (list(keys), list(values))
                for keys, values in rows[FORK_PARENT]
            ]
        if step == FREE_STEP:
            pool.free(FREE_SEQ)
            del rows[FREE_SEQ]
        live = pool.seq_ids
        last = step == STEPS - 1
        for layer in range(LAYERS):
            keys = stream.draw(len(live))
            values = stream.draw(len(live))
            pool.append_batch(
                layer,
                [
                    (seq, keys[i : i + 1], values[i : i + 1])
                    for i, seq in enumerate(live)
                ],
            )
            for i, seq in enumerate(live):
                rows[seq][layer][0].append(keys[i : i + 1])
                rows[seq][layer][1].append(values[i : i + 1])
            for seq, got in zip(live, pool.read_batch(layer, live)):
                for tensor in (0, 1):
                    exact = np.concatenate(rows[seq][layer][tensor])
                    want = quantizers[layer][tensor].roundtrip(exact)
                    have = got[tensor]
                    if corrupt and last and seq == live[0]:
                        have = np.array(have)
                        have[0, 0] = -have[0, 0] - 1.0
                        corrupt = False
                    reads += 1
                    if not np.array_equal(have, want):
                        mismatches += 1
                    if last:
                        signal += float(np.sum(exact * exact))
                        error = exact - have
                        noise += float(np.sum(error * error))
    return {
        "reads": reads,
        "mismatches": mismatches,
        "sqnr_db": 10.0 * math.log10(signal / noise),
    }
