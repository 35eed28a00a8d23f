"""Autoregressive generation through a quantized KV cache.

The teacher-forced harness (:mod:`repro.eval.harness`) measures how a
quantized cache perturbs likelihoods; this module runs the actual
*deployment* path: tokens are generated one at a time, every new KV
vector is quantized into the paged cache as it is produced, and each
step's attention reads the **dequantized** history — errors compound
across steps exactly as they would on the accelerator.

This is the numpy twin of the hardware flow in Figure 8/9: QKV
generation -> quantization engine -> memory -> dequantization engine ->
attention.

The per-layer loop rides the cache's memoized read path: appends go
through the streaming ``quantize_into`` entry point and each
``cache.read`` decodes only the newly appended rows (the history is
memoized), so a generation run costs O(T) decode work instead of the
seed's O(T^2).  The returned key/value views are read-only; attention
copies them into float64 working precision anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import OakenConfig
from repro.engine import CacheBackend, backend_for_model
from repro.models.ops import apply_rope, rope_angles, softmax
from repro.models.transformer import DecoderModel


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
    cache: CacheBackend
    steps: int


def build_cache_for_model(
    model: DecoderModel,
    calibration_tokens: np.ndarray,
    config: Optional[OakenConfig] = None,
    method: str = "oaken",
    kind: str = "auto",
    mode=None,
) -> CacheBackend:
    """Calibrate on sample text and build a fresh cache backend.

    Historically this built the paper method's fused cache; it now
    routes through :func:`repro.engine.backend_for_model`, so any
    registry method becomes generatable — ``method="kivi"`` hands the
    generation loop a streaming KIVI cache.  ``mode`` selects the
    :class:`~repro.core.modes.ComputeMode`; the engine-layer default
    is ``deploy_f32``, pass ``"exact_f64"`` for bit-exact work.
    """
    return backend_for_model(
        model,
        method=method,
        kind=kind,
        calibration_tokens=calibration_tokens,
        config=config,
        mode=mode,
    )


def generate_with_quantized_cache(
    model: DecoderModel,
    cache: CacheBackend,
    length: int,
    prompt: Optional[np.ndarray] = None,
    temperature: float = 1.0,
    seed: int = 0,
) -> QuantizedGenerationResult:
    """Generate a single sequence reading attention from ``cache``.

    Every produced KV row passes through the cache's quantizers before
    storage; each decode step reads the dequantized history (the
    software analogue of the streaming dequantization engine).  With
    the fused cache (the default backend) only the newly appended rows
    are decoded per step; the seed's full re-decode — every chunk
    dequantized and concatenated on every read — survives only as the
    perf harness's private slow side
    (``repro.bench.hotpath._SeedCache``).  Adapter backends make every
    registry baseline runnable through the same loop.

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
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if cache.num_layers != model.shape.n_layers:
        raise ValueError("cache layer count does not match the model")
    if cache.length != 0:
        raise ValueError("cache must be fresh")
    shape = model.shape
    weights = model.weights
    rng = np.random.default_rng(seed)
    if prompt is None:
        prompt = rng.integers(0, shape.vocab, size=(1, 1))
    prompt = np.atleast_2d(np.asarray(prompt, dtype=np.int64))
    if prompt.shape[0] != 1:
        raise ValueError("quantized generation runs one sequence")

    repeat = shape.n_heads // shape.n_kv_heads
    scale = 1.0 / np.sqrt(shape.head_dim)
    tokens = prompt.copy()
    steps = 0

    def advance(block: np.ndarray, start_pos: int) -> np.ndarray:
        """Run new tokens through all layers against the lossy cache."""
        b, t = block.shape
        x = weights.embedding[block]
        if not model.spec.uses_rope:
            x = x + weights.position_embedding[
                None, start_pos : start_pos + t, :
            ]
        cos, sin = rope_angles(
            shape.head_dim, np.arange(start_pos, start_pos + t)
        )
        for index, layer in enumerate(weights.layers):
            h = model._norm(x, layer.attn_norm_gain,
                            layer.attn_norm_bias)
            q = (h @ layer.wq).reshape(
                b, t, shape.n_heads, shape.head_dim
            )
            k = (h @ layer.wk).reshape(
                b, t, shape.n_kv_heads, shape.head_dim
            )
            v = (h @ layer.wv).reshape(
                b, t, shape.n_kv_heads, shape.head_dim
            )
            if model.spec.uses_rope:
                q = apply_rope(q, cos, sin)
                k = apply_rope(k, cos, sin)
            # Quantize the new rows into the cache, then read the whole
            # dequantized history back for attention.
            cache.append(
                index,
                k.reshape(t, shape.kv_dim),
                v.reshape(t, shape.kv_dim),
            )
            keys_flat, values_flat = cache.read(index)
            s = keys_flat.shape[0]
            full_k = keys_flat.reshape(
                1, s, shape.n_kv_heads, shape.head_dim
            ).astype(np.float64)
            full_v = values_flat.reshape(
                1, s, shape.n_kv_heads, shape.head_dim
            ).astype(np.float64)
            if shape.sliding_window is not None:
                window = shape.sliding_window + t
                full_k = full_k[:, -window:]
                full_v = full_v[:, -window:]
                s = full_k.shape[1]
            if repeat > 1:
                full_k = np.repeat(full_k, repeat, axis=2)
                full_v = np.repeat(full_v, repeat, axis=2)
            scores = np.einsum(
                "bthd,bshd->bhts", q, full_k
            ) * scale
            q_pos = np.arange(s - t, s)[:, None]
            k_pos = np.arange(s)[None, :]
            visible = k_pos <= q_pos
            if shape.sliding_window is not None:
                visible &= k_pos > q_pos - shape.sliding_window
            scores = scores + np.where(visible[None, None], 0.0, -1e9)
            attn = softmax(scores, axis=-1)
            context = np.einsum(
                "bhts,bshd->bthd", attn, full_v
            ).reshape(b, t, shape.n_heads * shape.head_dim)
            x = x + context @ layer.wo
            h = model._norm(x, layer.ffn_norm_gain,
                            layer.ffn_norm_bias)
            x = x + model._ffn(layer, h)
        x = model._norm(
            x, weights.final_norm_gain, weights.final_norm_bias
        )
        return x @ weights.unembedding

    logits = advance(tokens, 0)
    while tokens.shape[1] < length:
        last = logits[:, -1, :] / temperature
        probs = softmax(last, axis=-1)
        cumulative = np.cumsum(probs, axis=-1)
        draw = rng.random((1, 1))
        next_token = np.minimum(
            (cumulative < draw).sum(axis=-1), shape.vocab - 1
        )
        tokens = np.concatenate([tokens, next_token[:, None]], axis=1)
        steps += 1
        if tokens.shape[1] >= length:
            break
        logits = advance(next_token[:, None], tokens.shape[1] - 1)
    return QuantizedGenerationResult(
        tokens=tokens[:, :length], cache=cache, steps=steps
    )
