"""From-scratch numpy transformer substrate.

The paper evaluates on eight public LLMs (Llama2-7/13/70B, OPT-6.7/13/
30B, Mistral-7B, Mixtral-8x7B).  Running those requires GPUs and
checkpoint downloads this environment does not have, so this package
provides the substitution documented in DESIGN.md:

* :mod:`repro.models.config` carries **two shapes per model**: the
  paper's full architecture dimensions (used analytically by the
  hardware simulator for byte/FLOP accounting) and a scaled-down
  simulation shape (used to run actual numpy forward passes for the
  accuracy experiments).
* :mod:`repro.models.weights` synthesizes deterministic weights whose
  K/V projections carry injected per-channel outlier structure matching
  the paper's Observation 1-3 (per-layer ranges, input-insensitivity,
  channel-concentrated outliers with isolated exceptions).
* :mod:`repro.models.transformer` implements the decoder stack —
  RMSNorm/LayerNorm, RoPE or learned positions, MHA/GQA, sliding-window
  attention, SiLU-gated or ReLU FFN, and mixture-of-experts — as one
  decoder pass whose attention reads each layer's keys and values from
  a caller-supplied source.  The teacher-forced ``forward`` passes the
  block through a pluggable KV transform so every quantization method
  can corrupt the cache exactly where the hardware would.
* :mod:`repro.models.generation` runs the same pass autoregressively
  through one sampling loop, over an exact history
  (``generate_tokens``, which builds the self-consistent evaluation
  corpora of :mod:`repro.data.corpus`) or over a quantized cache
  backend (``generate_with_quantized_cache``, the deployment path).
"""

from repro.models.config import (
    MODEL_ZOO,
    ArchShape,
    ModelSpec,
    SimShape,
    get_model,
    list_models,
)
from repro.models.generation import generate_tokens
from repro.models.transformer import DecoderModel, KVTransformBundle

__all__ = [
    "ArchShape",
    "DecoderModel",
    "KVTransformBundle",
    "MODEL_ZOO",
    "ModelSpec",
    "SimShape",
    "generate_tokens",
    "get_model",
    "list_models",
]
