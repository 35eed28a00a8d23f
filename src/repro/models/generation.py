"""Autoregressive generation: exact corpus sampling and the quantized
deployment loop.

Both generators run the model's one decoder pass
(:meth:`~repro.models.transformer.DecoderModel._decode`) through one
sampling loop — prefill the prompt, then one token per step — and
differ only in where each layer's attention reads its keys and values:

* :func:`generate_tokens` keeps an exact float64 history.  It
  *constructs* the evaluation corpora (see :mod:`repro.data.corpus`):
  sampling sequences from the FP model at temperature makes the model
  "perfectly trained" on its own output distribution, which gives
  perplexity and zero-shot comparisons a meaningful, reproducible
  reference point without requiring pretrained checkpoints (the
  substitution is documented in DESIGN.md).  Quantizers only enter
  during evaluation, through the teacher-forced forward pass.
* :func:`generate_with_quantized_cache` quantizes every new KV row into
  a cache backend and attends over its dequantized history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.models.ops import softmax
from repro.models.transformer import DecoderModel, KVSource

if TYPE_CHECKING:
    from repro.engine import CacheBackend


@dataclass
class QuantizedGenerationResult:
    """Output of a quantized-cache generation run.

    Attributes:
        tokens: [B, T] generated tokens (prompt included).
        cache: the cache backend after the run (inspect bytes,
            effective bitwidth).
        steps: decode steps executed.
    """

    tokens: np.ndarray
    cache: "CacheBackend"
    steps: int


def _sample(
    model: DecoderModel,
    kv_source: KVSource,
    batch: int,
    length: int,
    temperature: float,
    seed: int,
    prompt: Optional[np.ndarray],
) -> Tuple[np.ndarray, int]:
    """Prefill the prompt, then sample one token per step.

    Returns the [batch, length] tokens and the number of sampled steps.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    rng = np.random.default_rng(seed)
    if prompt is None:
        prompt = rng.integers(0, model.shape.vocab, size=(batch, 1))
    tokens = np.array(prompt, dtype=np.int64, ndmin=2)
    if tokens.shape[0] != batch:
        raise ValueError(
            f"prompt has {tokens.shape[0]} sequences, expected {batch}"
        )
    steps = 0
    logits = model._decode(tokens, 0, kv_source)
    while tokens.shape[1] < length:
        probs = softmax(logits[:, -1, :] / temperature, axis=-1)
        draws = rng.random((batch, 1))
        next_token = np.minimum(
            (np.cumsum(probs, axis=-1) < draws).sum(axis=-1),
            model.shape.vocab - 1,
        )
        tokens = np.concatenate([tokens, next_token[:, None]], axis=1)
        steps += 1
        if tokens.shape[1] >= length:
            break
        logits = model._decode(
            next_token[:, None], tokens.shape[1] - 1, kv_source
        )
    return tokens[:, :length], steps


def generate_tokens(
    model: DecoderModel,
    batch: int,
    length: int,
    temperature: float = 1.0,
    seed: int = 0,
    prompt: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sample ``batch`` sequences of ``length`` tokens from ``model``.

    Args:
        model: the FP decoder model.
        batch: sequences generated in parallel.
        length: total tokens per sequence (including the prompt).
        temperature: softmax temperature (> 0).
        seed: sampling RNG seed — corpora are fully reproducible.
        prompt: optional [B, P] int prompt tokens; defaults to one
            uniformly random start token per sequence.

    Returns:
        int64 token array of shape [batch, length].
    """
    history = [None] * model.shape.n_layers

    def exact(index, k, v, rope):
        block = (model._rotate(k, rope), v)
        if history[index] is not None:
            block = tuple(
                np.concatenate([old, new], axis=1)
                for old, new in zip(history[index], block)
            )
        history[index] = block
        return block

    tokens, _ = _sample(
        model, exact, batch, length, temperature, seed, prompt
    )
    return tokens


def generate_with_quantized_cache(
    model: DecoderModel,
    cache: "CacheBackend",
    length: int,
    prompt: Optional[np.ndarray] = None,
    temperature: float = 1.0,
    seed: int = 0,
) -> QuantizedGenerationResult:
    """Generate a single sequence reading attention from ``cache``.

    This is the *deployment* path, the numpy twin of the hardware flow
    in Figures 8/9: QKV generation -> quantization engine -> memory ->
    dequantization engine -> attention.  Each layer hands the block's
    post-RoPE KV rows to ``cache.append``, which quantizes them, and
    attends over ``cache.read``, the dequantized history cast to
    float64, so errors compound across steps exactly as they would on
    the accelerator.
    With a row-local kernel the logits therefore equal the
    teacher-forced :meth:`~repro.models.transformer.DecoderModel.forward`
    under the cache's quantizers' ``roundtrip``.

    Only ``num_layers``, ``length``, ``append`` and ``read`` are used,
    so any :class:`~repro.engine.CacheBackend` runs through the loop:
    the fused cache decodes only the newly appended rows per read,
    adapter backends make every registry baseline generatable, and the
    perf harness's seed cache (``repro.bench.hotpath._SeedCache``)
    re-decodes the whole history on every read.

    Args:
        model: FP decoder model (weights stay exact; only the cache is
            lossy, as in the paper).
        cache: a fresh :class:`~repro.engine.CacheBackend` fitted for
            ``model``.
        length: total tokens including the prompt.
        prompt: [1, P] int tokens; default one random token.
        temperature: sampling temperature.
        seed: sampling seed.

    Returns:
        A :class:`QuantizedGenerationResult`.
    """
    if cache.num_layers != model.shape.n_layers:
        raise ValueError("cache layer count does not match the model")
    if cache.length != 0:
        raise ValueError("cache must be fresh")
    kv_heads = (model.shape.n_kv_heads, model.shape.head_dim)

    def quantized(index, k, v, rope):
        k = model._rotate(k, rope)
        cache.append(
            index,
            k.reshape(-1, model.shape.kv_dim),
            v.reshape(-1, model.shape.kv_dim),
        )
        return tuple(
            rows.reshape(1, -1, *kv_heads).astype(np.float64)
            for rows in cache.read(index)
        )

    tokens, steps = _sample(
        model, quantized, 1, length, temperature, seed, prompt
    )
    return QuantizedGenerationResult(tokens=tokens, cache=cache, steps=steps)
