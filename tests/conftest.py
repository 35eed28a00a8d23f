"""Shared fixtures for the test suite.

Model construction and corpus generation are the expensive parts, so
they are session-scoped and shared; everything else is cheap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.config import get_model
from repro.models.transformer import DecoderModel


def make_kv_matrix(
    tokens: int = 128,
    dim: int = 64,
    seed: int = 0,
    outlier_channels=(3, 17, 40),
    outlier_gain: float = 10.0,
) -> np.ndarray:
    """A KV-like matrix with channel-concentrated outliers.

    Mirrors the paper's Observation 3 structure: heavy channels plus a
    sprinkle of isolated exceptions.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((tokens, dim))
    gains = np.ones(dim)
    gains[list(outlier_channels)] = outlier_gain
    x = x * gains[None, :]
    spikes = rng.random((tokens, dim)) < 0.002
    return np.where(spikes, x * outlier_gain, x)


def encode_chunks(encoder, key_blocks, value_blocks):
    """``(key_chunks, value_chunks)``, chunk ``i`` the encode of block
    ``i``: what the chunk store keeps of a ``LayerEncoder``'s output
    (``encode`` + ``split_encoded``), spelled once for the tests that
    pin it field by field."""
    from repro.core.encoding import split_encoded

    rows = [block.shape[0] for block in key_blocks]
    chunks = split_encoded(
        encoder.encode((0,), [*key_blocks, *value_blocks]), rows
    )
    return chunks[: len(rows)], chunks[len(rows) :]


def adapter_backend(method, calibration):
    """``method``'s registry quantizers, fitted per layer to the
    ``(keys, values)`` samples of ``calibration``, lifted into the
    streaming interface as a ``BaselineCacheBackend`` under the engine
    layer's ``deploy_f32`` (what ``create_backend`` builds for every
    method but ``oaken``, whose backend is the fused cache)."""
    from repro.engine import BaselineCacheBackend, create_quantizer

    mode = "deploy_f32"
    fitted = [
        [
            create_quantizer(method, kind, mode=mode).fit([samples])
            for kind, samples in zip(("key", "value"), layer)
        ]
        for layer in calibration
    ]
    return BaselineCacheBackend(
        [keys for keys, _ in fitted],
        [values for _, values in fitted],
        method=method,
        mode=mode,
    )


def decode_logits(model, generate, *args, **kwargs):
    """``(result, logits)``: what ``generate(model, *args, **kwargs)``
    returns, and the logits of its prefill and decode steps joined
    along time — [B, T - 1, vocab] for T generated tokens, the shape of
    ``model.forward(tokens[:, :-1])``."""
    steps = []
    decode = model._decode

    def recording(block, start_pos, kv_source):
        steps.append(decode(block, start_pos, kv_source))
        return steps[-1]

    model._decode = recording
    try:
        result = generate(model, *args, **kwargs)
    finally:
        del model._decode
    return result, np.concatenate(steps, axis=1)


def arena_state(arena):
    """Everything of a :class:`~repro.engine.KVArena`'s row table, free
    lists and payload-log counters that a refused operation must leave
    untouched (``None`` for a chunked pool's missing arena)."""
    if arena is None:
        return None
    return (
        arena.tail,
        arena.dead_rows,
        arena.capacity,
        arena.compactions,
        {cap: list(starts) for cap, starts in arena.free_slices.items()},
        {
            seq_id: (
                slc.start, slc.cap, slc.generation, slc.bits, slc.elements,
                tuple(slc.length), tuple(slc.decoded),
            )
            for seq_id, slc in arena.rows.items()
        },
        (arena.store.log_len, arena.store.dead_records),
    )


@pytest.fixture(scope="session")
def kv_matrix() -> np.ndarray:
    """Standard structured KV matrix."""
    return make_kv_matrix()


@pytest.fixture(scope="session")
def kv_samples():
    """Calibration-run samples with the same channel structure."""
    return [make_kv_matrix(seed=s) for s in range(1, 5)]


@pytest.fixture(scope="session")
def small_model() -> DecoderModel:
    """The Llama2-7B sim model (shared across tests)."""
    return DecoderModel(get_model("llama2-7b"))


@pytest.fixture(scope="session")
def small_tokens(small_model) -> np.ndarray:
    """A small evaluation corpus for the shared model."""
    from repro.data.corpus import build_corpus

    return build_corpus(small_model, "wikitext2", batch=3, length=64)
