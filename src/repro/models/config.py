"""Model zoo: the paper's eight LLMs, in two shapes each.

``ArchShape`` holds the published architecture dimensions and is used
*analytically* — parameter counts, KV bytes per token, FLOPs per token —
by the hardware/serving simulator.  ``SimShape`` is a scaled-down shape
with the same architectural features (GQA ratio, sliding window, MoE)
that the numpy substrate actually runs for the accuracy experiments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


def hash_once(cls):
    """Class decorator for a frozen dataclass: hash its fields once.

    The analytic pricer's LRU cache keys on ``ServingSystem`` and
    ``ArchShape`` at every serving iteration; the generated
    ``__hash__`` re-hashes every field (recursively) each time.  This
    one hashes the same fields as the generated one on first use and
    keeps the value on the instance, so equal values still hash equal.
    The kept value is left out of pickled state, because string
    hashes differ between processes.
    """
    names = tuple(
        f.name for f in dataclasses.fields(cls)
        if (f.compare if f.hash is None else f.hash)
    )

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash(tuple(getattr(self, name) for name in names))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@hash_once
@dataclass(frozen=True)
class ArchShape:
    """Published architecture dimensions of a paper model.

    Attributes:
        n_layers: decoder layer count.
        d_model: hidden size.
        n_heads: attention (query) heads.
        n_kv_heads: key/value heads (< n_heads means GQA).
        head_dim: per-head dimension.
        d_ffn: feed-forward inner size (per expert for MoE).
        vocab: vocabulary size.
        n_experts: MoE expert count (1 = dense FFN).
        experts_per_token: active experts per token.
        sliding_window: attention window in tokens, or None.
        gated_ffn: SiLU-gated (Llama-family, 3 matrices) vs plain ReLU
            (OPT, 2 matrices) feed-forward.
    """

    n_layers: int
    d_model: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    d_ffn: int
    vocab: int
    n_experts: int = 1
    experts_per_token: int = 1
    sliding_window: Optional[int] = None
    gated_ffn: bool = True

    @property
    def kv_dim(self) -> int:
        """Width of one token's key (or value) vector per layer."""
        return self.n_kv_heads * self.head_dim

    @property
    def params(self) -> int:
        """Approximate parameter count (embeddings + decoder stack)."""
        attn = self.d_model * (
            self.n_heads * self.head_dim  # W_Q
            + 2 * self.kv_dim             # W_K, W_V
            + self.n_heads * self.head_dim  # W_O
        )
        ffn_matrices = 3 if self.gated_ffn else 2
        ffn = ffn_matrices * self.d_model * self.d_ffn * self.n_experts
        if self.n_experts > 1:
            ffn += self.d_model * self.n_experts  # router
        per_layer = attn + ffn
        embeddings = 2 * self.vocab * self.d_model
        return self.n_layers * per_layer + embeddings

    @property
    def active_params(self) -> int:
        """Parameters touched per token (MoE activates a subset)."""
        attn = self.d_model * (
            2 * self.n_heads * self.head_dim + 2 * self.kv_dim
        )
        ffn_matrices = 3 if self.gated_ffn else 2
        ffn = ffn_matrices * self.d_model * self.d_ffn * min(
            self.experts_per_token, self.n_experts
        )
        per_layer = attn + ffn
        embeddings = 2 * self.vocab * self.d_model
        return self.n_layers * per_layer + embeddings

    def weight_bytes(self, bits_per_weight: float = 16.0) -> float:
        """Model weight storage in bytes."""
        return self.params * bits_per_weight / 8.0

    def kv_bytes_per_token(self, bits_per_element: float = 16.0) -> float:
        """KV cache bytes appended per generated token (keys + values)."""
        elements = 2 * self.n_layers * self.kv_dim
        return elements * bits_per_element / 8.0

    def kv_elements_per_token(self) -> int:
        """KV cache elements (key + value scalars) per token."""
        return 2 * self.n_layers * self.kv_dim

    def attended_length(self, context: int) -> int:
        """Tokens actually read by attention at a given context length."""
        if self.sliding_window is None:
            return context
        return min(context, self.sliding_window)

    def flops_per_token_nonattn(self) -> float:
        """Dense (batchable) FLOPs per token: projections + FFN + head."""
        return 2.0 * self.active_params

    def flops_per_token_attn(self, context: int) -> float:
        """Attention (non-batchable) FLOPs per token at ``context``."""
        length = self.attended_length(context)
        # QK^T and SV, per head.
        return 2.0 * 2.0 * self.n_heads * self.head_dim * length


@dataclass(frozen=True)
class SimShape:
    """Scaled-down shape runnable by the numpy substrate.

    Field meanings match :class:`ArchShape`.  Shapes preserve each
    model's architectural character (GQA ratio, window, MoE) at roughly
    1/40 scale so forward passes complete in milliseconds.
    """

    n_layers: int
    d_model: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    d_ffn: int
    vocab: int
    n_experts: int = 1
    experts_per_token: int = 1
    sliding_window: Optional[int] = None
    gated_ffn: bool = True

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim


@dataclass(frozen=True)
class ModelSpec:
    """A paper model: name, family, and its two shapes.

    Attributes:
        name: registry key, e.g. ``"llama2-7b"``.
        family: ``"llama2"``, ``"opt"``, ``"mistral"``, or ``"mixtral"``
            — selects norm type, positional scheme, and FFN flavour.
        arch: published dimensions (analytical use).
        sim: scaled dimensions (numpy substrate).
        seed: base RNG seed for deterministic weight synthesis.
    """

    name: str
    family: str
    arch: ArchShape
    sim: SimShape
    seed: int

    @property
    def uses_rope(self) -> bool:
        """Llama/Mistral/Mixtral use RoPE; OPT uses learned positions."""
        return self.family != "opt"

    @property
    def norm(self) -> str:
        """``"rmsnorm"`` for the Llama family, ``"layernorm"`` for OPT."""
        return "layernorm" if self.family == "opt" else "rmsnorm"


def _llama(name, layers, d, heads, kv, ffn, sim, seed):
    return ModelSpec(
        name=name,
        family="llama2",
        arch=ArchShape(
            n_layers=layers, d_model=d, n_heads=heads, n_kv_heads=kv,
            head_dim=d // heads, d_ffn=ffn, vocab=32000,
        ),
        sim=sim,
        seed=seed,
    )


def _opt(name, layers, d, heads, ffn, sim, seed):
    return ModelSpec(
        name=name,
        family="opt",
        arch=ArchShape(
            n_layers=layers, d_model=d, n_heads=heads, n_kv_heads=heads,
            head_dim=d // heads, d_ffn=ffn, vocab=50272, gated_ffn=False,
        ),
        sim=sim,
        seed=seed,
    )


#: The eight models of the paper's evaluation (Section 6.1).
MODEL_ZOO: Dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        _llama(
            "llama2-7b", 32, 4096, 32, 32, 11008,
            SimShape(n_layers=6, d_model=96, n_heads=6, n_kv_heads=6,
                     head_dim=16, d_ffn=256, vocab=512),
            seed=101,
        ),
        _llama(
            "llama2-13b", 40, 5120, 40, 40, 13824,
            SimShape(n_layers=8, d_model=128, n_heads=8, n_kv_heads=8,
                     head_dim=16, d_ffn=320, vocab=512),
            seed=102,
        ),
        _llama(
            "llama2-70b", 80, 8192, 64, 8, 28672,
            SimShape(n_layers=10, d_model=160, n_heads=10, n_kv_heads=2,
                     head_dim=16, d_ffn=448, vocab=512),
            seed=103,
        ),
        _opt(
            "opt-6.7b", 32, 4096, 32, 16384,
            SimShape(n_layers=6, d_model=96, n_heads=6, n_kv_heads=6,
                     head_dim=16, d_ffn=384, vocab=512, gated_ffn=False),
            seed=104,
        ),
        _opt(
            "opt-13b", 40, 5120, 40, 20480,
            SimShape(n_layers=8, d_model=128, n_heads=8, n_kv_heads=8,
                     head_dim=16, d_ffn=512, vocab=512, gated_ffn=False),
            seed=105,
        ),
        _opt(
            "opt-30b", 48, 7168, 56, 28672,
            SimShape(n_layers=10, d_model=160, n_heads=10, n_kv_heads=10,
                     head_dim=16, d_ffn=640, vocab=512, gated_ffn=False),
            seed=106,
        ),
        ModelSpec(
            name="mistral-7b",
            family="mistral",
            arch=ArchShape(
                n_layers=32, d_model=4096, n_heads=32, n_kv_heads=8,
                head_dim=128, d_ffn=14336, vocab=32000,
                sliding_window=4096,
            ),
            sim=SimShape(
                n_layers=6, d_model=96, n_heads=6, n_kv_heads=2,
                head_dim=16, d_ffn=256, vocab=512, sliding_window=96,
            ),
            seed=107,
        ),
        ModelSpec(
            name="mixtral-8x7b",
            family="mixtral",
            arch=ArchShape(
                n_layers=32, d_model=4096, n_heads=32, n_kv_heads=8,
                head_dim=128, d_ffn=14336, vocab=32000,
                n_experts=8, experts_per_token=2, sliding_window=4096,
            ),
            sim=SimShape(
                n_layers=6, d_model=96, n_heads=6, n_kv_heads=2,
                head_dim=16, d_ffn=256, vocab=512,
                n_experts=4, experts_per_token=2, sliding_window=96,
            ),
            seed=108,
        ),
    )
}


def list_models() -> Tuple[str, ...]:
    """All model names, in the paper's Table 2 order."""
    return tuple(MODEL_ZOO)


def get_model(name: str) -> ModelSpec:
    """Look up a model spec by name."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {list(MODEL_ZOO)}"
        ) from None
