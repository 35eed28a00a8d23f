"""Elementary numpy operations for the transformer substrate.

Everything operates on float32/float64 numpy arrays with explicit
shapes documented per function.  Batched shapes use ``B`` (batch), ``T``
(tokens), ``H`` (heads), ``Dh`` (head dim).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """RMS normalization over the last axis (Llama family)."""
    scale = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x / scale * gain


def layernorm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Layer normalization over the last axis (OPT family)."""
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation."""
    return x / (1.0 + np.exp(-x))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    return np.maximum(x, 0.0)


def rope_angles(head_dim: int, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rotary embedding (cos, sin) tables.

    Args:
        head_dim: per-head dimension (must be even).
        positions: int array of token positions, shape [T].

    Returns:
        ``(cos, sin)`` arrays of shape [T, head_dim // 2].
    """
    if head_dim % 2:
        raise ValueError("head_dim must be even for RoPE")
    half = head_dim // 2
    freqs = 1.0 / (10000.0 ** (np.arange(half) / half))
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(angles), np.sin(angles)


def apply_rope(
    x: np.ndarray, cos: np.ndarray, sin: np.ndarray
) -> np.ndarray:
    """Rotate query/key vectors with precomputed (cos, sin) tables.

    Args:
        x: [..., T, H, Dh] array.
        cos: [T, Dh // 2].
        sin: [T, Dh // 2].

    Returns:
        Rotated array of the same shape.
    """
    half = x.shape[-1] // 2
    x1 = x[..., :half]
    x2 = x[..., half:]
    # Broadcast (T, half) across leading batch and head axes.
    shape = [1] * (x.ndim - 3) + [cos.shape[0], 1, half]
    c = cos.reshape(shape)
    s = sin.reshape(shape)
    rotated = np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)
    return rotated


def causal_mask(
    queries: int, keys: int, sliding_window: Optional[int] = None
) -> np.ndarray:
    """Boolean [queries, keys] mask; True marks attendable pairs.

    The queries are the newest ``queries`` of ``keys`` positions (all
    of them for a teacher-forced pass, one for a decode step).  With a
    sliding window only the last ``sliding_window`` keys are visible to
    each query (Mistral/Mixtral-style attention).
    """
    q = np.arange(keys - queries, keys)[:, None]
    k = np.arange(keys)[None, :]
    mask = k <= q
    if sliding_window is not None:
        mask &= k > q - sliding_window
    return mask
