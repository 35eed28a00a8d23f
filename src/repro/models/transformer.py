"""The numpy decoder-only transformer with a pluggable KV transform.

The substrate runs real forward passes: embeddings, pre-norm decoder
layers (MHA/GQA with RoPE or learned positions, optional sliding
window, dense or mixture-of-experts FFN), final norm, unembedding.
:meth:`DecoderModel._decode` is the one decoder pass: teacher-forced
scoring (:meth:`DecoderModel.forward`) and both generators
(:mod:`repro.models.generation`) run it and differ only in the
:data:`KVSource` that hands each layer's attention its keys and values.

The single hook that the whole reproduction hangs on is the **KV
transform**: right after the key/value projections (and RoPE), each
layer's [B*T, kv_dim] key and value matrices pass through a per-layer
callable before attention uses them.  Plugging in a quantizer's
``roundtrip`` reproduces exactly the corruption a quantized KV cache
inflicts at generation time; plugging in the identity gives the FP
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.models.config import ModelSpec
from repro.models.ops import (
    apply_rope,
    causal_mask,
    layernorm,
    log_softmax,
    relu,
    rmsnorm,
    rope_angles,
    silu,
    softmax,
)
from repro.models.weights import LayerWeights, ModelWeights, build_weights

#: A lossy (or identity) transform on a [N, kv_dim] matrix.
KVTransform = Callable[[np.ndarray], np.ndarray]

#: RoPE (cos, sin) tables for a block's positions, each [t, head_dim // 2].
RopeTables = Tuple[np.ndarray, np.ndarray]

#: Where one layer's attention reads its keys and values.  Called with
#: the layer index, the block's [B, t, H_kv, Dh] keys and values before
#: RoPE, and the block's RoPE tables; returns the float64 [B, s, H_kv,
#: Dh] (keys, values) history the block attends over, the block itself
#: as its newest t positions.
KVSource = Callable[
    [int, np.ndarray, np.ndarray, RopeTables], Tuple[np.ndarray, np.ndarray]
]


@dataclass
class KVTransformBundle:
    """Per-layer key/value transforms for a whole model.

    Attributes:
        key_fns: one callable per decoder layer for keys.
        value_fns: one callable per decoder layer for values.
        pre_rope_keys: apply the key transform *before* rotary position
            embedding.  KVQuant caches pre-RoPE keys because RoPE's
            pairwise rotations smear the per-channel outlier structure
            its per-channel quantization relies on; most other methods
            (and Oaken) quantize the cache as stored, post-RoPE.
    """

    key_fns: List[KVTransform]
    value_fns: List[KVTransform]
    pre_rope_keys: bool = False

    @classmethod
    def identity(cls, n_layers: int) -> "KVTransformBundle":
        """A bundle that leaves the KV cache untouched."""
        same = [lambda x: x] * n_layers
        return cls(key_fns=list(same), value_fns=list(same))

    def __len__(self) -> int:
        return len(self.key_fns)


class DecoderModel:
    """A runnable sim-shape model from the zoo.

    Args:
        spec: model spec (supplies shape, family, and weight seed).
        max_positions: learned-position table size (OPT family).
    """

    def __init__(self, spec: ModelSpec, max_positions: int = 4096):
        self.spec = spec
        self.shape = spec.sim
        self.weights: ModelWeights = build_weights(spec, max_positions)

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------

    def _norm(self, x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
        if self.spec.norm == "rmsnorm":
            return rmsnorm(x, gain)
        return layernorm(x, gain, bias)

    def _rotate(self, x: np.ndarray, rope: RopeTables) -> np.ndarray:
        """RoPE on [B, t, H, Dh] (identity for learned positions)."""
        if self.spec.uses_rope:
            return apply_rope(x, *rope)
        return x

    def _ffn(self, layer: LayerWeights, x: np.ndarray) -> np.ndarray:
        """Dense or mixture-of-experts feed-forward on [..., d]."""
        shape = self.shape
        if shape.n_experts <= 1:
            return self._expert(layer, 0, x)
        # Top-k routing per token.
        router_logits = x @ layer.router
        gates = softmax(router_logits, axis=-1)
        top = np.argsort(-gates, axis=-1)[..., : shape.experts_per_token]
        out = np.zeros_like(x)
        total_gate = np.zeros(x.shape[:-1] + (1,))
        for slot in range(shape.experts_per_token):
            chosen = top[..., slot]
            gate = np.take_along_axis(
                gates, chosen[..., None], axis=-1
            )
            for expert in range(shape.n_experts):
                mask = chosen == expert
                if not mask.any():
                    continue
                selected = x[mask]
                out[mask] += gate[mask] * self._expert(
                    layer, expert, selected
                )
            total_gate += gate
        return out / np.maximum(total_gate, 1e-9)

    def _expert(
        self, layer: LayerWeights, index: int, x: np.ndarray
    ) -> np.ndarray:
        if self.shape.gated_ffn:
            gate = silu(x @ layer.ffn_gate[index])
            up = x @ layer.ffn_up[index]
            return (gate * up) @ layer.ffn_down[index]
        return relu(x @ layer.ffn_up[index]) @ layer.ffn_down[index]

    # ------------------------------------------------------------------
    # forward pass
    # ------------------------------------------------------------------

    def _decode(
        self, block: np.ndarray, start_pos: int, kv_source: KVSource
    ) -> np.ndarray:
        """The decoder pass: logits [B, t, vocab] for a [B, t] int64
        token block at positions ``start_pos ..``, each layer attending
        over the history ``kv_source`` returns."""
        shape = self.shape
        weights = self.weights
        bad = block[(block < 0) | (block >= shape.vocab)]
        if bad.size:
            raise ValueError(
                f"token id {bad[0]} is outside the vocabulary"
                f" [0, {shape.vocab})"
            )
        batch, t = block.shape
        x = weights.embedding[block]
        if not self.spec.uses_rope:
            x = x + weights.position_embedding[
                None, start_pos : start_pos + t, :
            ]
        rope = rope_angles(
            shape.head_dim, np.arange(start_pos, start_pos + t)
        )
        heads = (batch, t, shape.n_heads, shape.head_dim)
        kv_heads = (batch, t, shape.n_kv_heads, shape.head_dim)
        repeat = shape.n_heads // shape.n_kv_heads
        scale = 1.0 / np.sqrt(shape.head_dim)
        for index, layer in enumerate(weights.layers):
            h = self._norm(x, layer.attn_norm_gain, layer.attn_norm_bias)
            q = self._rotate((h @ layer.wq).reshape(heads), rope)
            k, v = kv_source(
                index,
                (h @ layer.wk).reshape(kv_heads),
                (h @ layer.wv).reshape(kv_heads),
                rope,
            )
            if shape.sliding_window is not None:
                # Only the newest W + t positions can be visible.
                k = k[:, -shape.sliding_window - t :]
                v = v[:, -shape.sliding_window - t :]
            if repeat > 1:
                k = np.repeat(k, repeat, axis=2)
                v = np.repeat(v, repeat, axis=2)
            visible = causal_mask(t, k.shape[1], shape.sliding_window)
            scores = (
                np.einsum("bthd,bshd->bhts", q, k) * scale
                + np.where(visible, 0.0, -1e9)
            )
            attn = softmax(scores, axis=-1)
            context = np.einsum("bhts,bshd->bthd", attn, v).reshape(
                batch, t, shape.n_heads * shape.head_dim
            )
            x = x + context @ layer.wo
            h = self._norm(x, layer.ffn_norm_gain, layer.ffn_norm_bias)
            x = x + self._ffn(layer, h)
        x = self._norm(
            x, weights.final_norm_gain, weights.final_norm_bias
        )
        return x @ weights.unembedding

    def forward(
        self,
        tokens: np.ndarray,
        kv_transforms: Optional[KVTransformBundle] = None,
        collect_kv: bool = False,
    ):
        """Teacher-forced forward pass.

        Args:
            tokens: int array [B, T] (or [T], auto-promoted).
            kv_transforms: per-layer lossy KV transforms; None = exact.
            collect_kv: also return the per-layer post-RoPE (keys,
                values) matrices of shape [B*T, kv_dim] — the exact
                tensors a KV quantizer sees (used for calibration and
                for the Figure 6 distribution study).

        Returns:
            ``logits`` of shape [B, T, vocab]; if ``collect_kv``, a
            tuple ``(logits, kv_list)`` with one (keys, values) pair per
            layer.

        Raises:
            ValueError: a token id lies outside ``[0, vocab)``.
        """
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        rows = (tokens.size, self.shape.kv_dim)
        pre_rope = kv_transforms is not None and kv_transforms.pre_rope_keys
        collected: List[Tuple[np.ndarray, np.ndarray]] = []

        def transformed(index, k, v, rope):
            kv_heads = k.shape
            if pre_rope:
                # KVQuant-style: quantize keys before rotation, where
                # per-channel structure is intact; RoPE is applied to
                # the reconstructed keys afterwards.
                k = np.asarray(
                    kv_transforms.key_fns[index](k.reshape(rows)),
                    dtype=np.float64,
                ).reshape(kv_heads)
            k = self._rotate(k, rope).reshape(rows)
            v = v.reshape(rows)
            if collect_kv:
                collected.append((k.copy(), v.copy()))
            if kv_transforms is not None:
                if not pre_rope:
                    k = kv_transforms.key_fns[index](k)
                v = kv_transforms.value_fns[index](v)
            return (
                np.asarray(k, dtype=np.float64).reshape(kv_heads),
                np.asarray(v, dtype=np.float64).reshape(kv_heads),
            )

        logits = self._decode(tokens, 0, transformed)
        if collect_kv:
            return logits, collected
        return logits

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------

    def sequence_log_likelihood(
        self,
        tokens: np.ndarray,
        kv_transforms: Optional[KVTransformBundle] = None,
        start: int = 1,
    ) -> np.ndarray:
        """Per-sequence sum log P(token_t | tokens_<t) for t >= start.

        Args:
            tokens: int array [B, T].
            kv_transforms: optional lossy KV transforms.
            start: first predicted position (skip the unpredictable
                first token by default).

        Returns:
            float array [B] of summed log-likelihoods.
        """
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        logits = self.forward(tokens, kv_transforms=kv_transforms)
        logprobs = log_softmax(logits[:, start - 1 : -1, :], axis=-1)
        targets = tokens[:, start:]
        picked = np.take_along_axis(
            logprobs, targets[..., None], axis=-1
        )[..., 0]
        return picked.sum(axis=1)

    def perplexity(
        self,
        tokens: np.ndarray,
        kv_transforms: Optional[KVTransformBundle] = None,
    ) -> float:
        """Teacher-forced perplexity over a [B, T] token batch."""
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        total_ll = self.sequence_log_likelihood(
            tokens, kv_transforms=kv_transforms
        ).sum()
        predicted = tokens.shape[0] * (tokens.shape[1] - 1)
        return float(np.exp(-total_ll / predicted))

    def collect_layer_kv(
        self, tokens: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-layer exact (keys, values) matrices for calibration."""
        _, collected = self.forward(tokens, collect_kv=True)
        return collected
