"""Deterministic weight synthesis with KV outlier-structure injection.

The accuracy experiments need models whose KV caches exhibit the
distributional properties the paper measures on real LLMs (Section 4.1):

* **Observation 1** — KV value ranges differ per model and per decoder
  layer: each layer's K/V projections receive a per-layer scale drawn
  from a model-seeded RNG, keys wider than values (the paper's Figure 6a
  shows key ranges of roughly +-20 vs value ranges of +-6 for Llama2).
* **Observation 3** — large magnitudes concentrate in a few channels,
  with isolated exceptions: a small set of KV output channels is scaled
  up by heavy-tailed factors, and a sprinkle of individual weights gets
  extra gain so single elements occasionally spike in "quiet" channels.
* **Observation 2** — input-insensitivity follows automatically: the
  structure lives in the weights, not the inputs.

Weights are variance-scaled so activations stay O(1) through the stack,
the unembedding has enough gain that the output distribution is peaked
(perplexity well below vocabulary size), and query/key projections have
enough gain that attention is decisively non-uniform — otherwise KV
corruption would not propagate to logits and every quantizer would look
perfect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.models.config import ModelSpec, SimShape

#: Fraction of KV channels that become systematic outlier channels.
OUTLIER_CHANNEL_FRACTION = 0.05

#: Mean multiplicative gain of outlier channels (lognormal).
KEY_OUTLIER_GAIN = 5.0
VALUE_OUTLIER_GAIN = 3.0

#: Probability of an isolated spiked weight outside outlier channels
#: (the "discontinuous lines and dots" exceptions of Observation 3).
EXCEPTION_WEIGHT_PROB = 0.003

#: Gain applied to query/key projections so attention logits have
#: useful dynamic range.
ATTENTION_GAIN = 1.0

#: Gain applied to the unembedding so next-token distributions are
#: peaked enough for perplexity to respond to KV corruption.
OUTPUT_GAIN = 3.0


def _matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Variance-preserving random matrix (std = 1/sqrt(rows))."""
    return rng.standard_normal((rows, cols)) / np.sqrt(rows)


@dataclass
class LayerWeights:
    """All parameters of one decoder layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    attn_norm_gain: np.ndarray
    attn_norm_bias: np.ndarray
    ffn_norm_gain: np.ndarray
    ffn_norm_bias: np.ndarray
    # FFN: gated models use (w_gate, w_up, w_down); plain use (w_up,
    # w_down).  MoE models hold one set per expert plus a router.
    ffn_up: List[np.ndarray] = field(default_factory=list)
    ffn_gate: List[np.ndarray] = field(default_factory=list)
    ffn_down: List[np.ndarray] = field(default_factory=list)
    router: np.ndarray = None


@dataclass
class ModelWeights:
    """All parameters of a sim-shape model."""

    embedding: np.ndarray
    position_embedding: np.ndarray
    unembedding: np.ndarray
    final_norm_gain: np.ndarray
    final_norm_bias: np.ndarray
    layers: List[LayerWeights] = field(default_factory=list)


def _inject_kv_structure(
    matrix: np.ndarray,
    rng: np.random.Generator,
    layer_scale: float,
    outlier_gain: float,
) -> np.ndarray:
    """Scale output channels/weights to create Observation 1+3 structure.

    Args:
        matrix: [d_model, kv_dim] projection.
        rng: layer-specific generator.
        layer_scale: Observation 1 per-layer range factor.
        outlier_gain: mean gain of the systematic outlier channels.

    Returns:
        The structured projection matrix.
    """
    kv_dim = matrix.shape[1]
    out = matrix * layer_scale
    n_outlier = max(1, int(round(kv_dim * OUTLIER_CHANNEL_FRACTION)))
    channels = rng.choice(kv_dim, size=n_outlier, replace=False)
    gains = outlier_gain * rng.lognormal(mean=0.0, sigma=0.4, size=n_outlier)
    out[:, channels] *= gains[None, :]
    # Isolated exceptions: single spiked weights in non-outlier channels.
    spikes = rng.random(out.shape) < EXCEPTION_WEIGHT_PROB
    spikes[:, channels] = False
    out = np.where(spikes, out * outlier_gain, out)
    return out


def build_weights(spec: ModelSpec, max_positions: int = 4096) -> ModelWeights:
    """Synthesize the full deterministic weight set for ``spec``'s sim shape.

    Args:
        spec: model spec from the zoo (supplies shape, family, seed).
        max_positions: size of the learned position table (OPT family).

    Returns:
        A fully populated :class:`ModelWeights`.
    """
    shape: SimShape = spec.sim
    rng = np.random.default_rng(spec.seed)
    d = shape.d_model
    q_dim = shape.n_heads * shape.head_dim
    kv_dim = shape.kv_dim

    embedding = rng.standard_normal((shape.vocab, d))
    position_embedding = 0.3 * rng.standard_normal((max_positions, d))
    unembedding = OUTPUT_GAIN * _matrix(rng, d, shape.vocab)
    final_norm_gain = np.ones(d)
    final_norm_bias = np.zeros(d)

    layers: List[LayerWeights] = []
    for layer_index in range(shape.n_layers):
        layer_rng = np.random.default_rng(
            spec.seed * 1000 + layer_index
        )
        # Observation 1: per-layer key/value range factors, different
        # per model (seeded) and per layer, keys wider than values.
        key_scale = 1.0 + 0.8 * layer_rng.random()
        value_scale = 0.5 + 0.5 * layer_rng.random()

        wq = ATTENTION_GAIN * _matrix(layer_rng, d, q_dim)
        wk = _inject_kv_structure(
            ATTENTION_GAIN * _matrix(layer_rng, d, kv_dim),
            layer_rng,
            key_scale,
            KEY_OUTLIER_GAIN,
        )
        wv = _inject_kv_structure(
            _matrix(layer_rng, d, kv_dim),
            layer_rng,
            value_scale,
            VALUE_OUTLIER_GAIN,
        )
        wo = _matrix(layer_rng, q_dim, d)

        n_experts = max(1, shape.n_experts)
        ffn_up = [
            _matrix(layer_rng, d, shape.d_ffn) for _ in range(n_experts)
        ]
        ffn_gate = (
            [_matrix(layer_rng, d, shape.d_ffn) for _ in range(n_experts)]
            if shape.gated_ffn
            else []
        )
        ffn_down = [
            _matrix(layer_rng, shape.d_ffn, d) for _ in range(n_experts)
        ]
        router = (
            _matrix(layer_rng, d, n_experts) if n_experts > 1 else None
        )

        layers.append(
            LayerWeights(
                wq=wq,
                wk=wk,
                wv=wv,
                wo=wo,
                attn_norm_gain=np.ones(d),
                attn_norm_bias=np.zeros(d),
                ffn_norm_gain=np.ones(d),
                ffn_norm_bias=np.zeros(d),
                ffn_up=ffn_up,
                ffn_gate=ffn_gate,
                ffn_down=ffn_down,
                router=router,
            )
        )

    return ModelWeights(
        embedding=embedding,
        position_embedding=position_embedding,
        unembedding=unembedding,
        final_norm_gain=final_norm_gain,
        final_norm_bias=final_norm_bias,
        layers=layers,
    )
