"""Reproduction of Oaken (ISCA 2025): online-offline hybrid KV-cache
quantization for fast and efficient LLM serving.

Package map (see DESIGN.md for the full inventory and substitutions):

* :mod:`repro.core` — the paper's contribution: threshold profiling,
  group-shift quantization, fused dense-and-sparse encoding, paged
  quantized KV cache, byte-stream serialization.
* :mod:`repro.quant` — shared quantization primitives.
* :mod:`repro.baselines` — KVQuant/KIVI/QServe/Atom/Tender/FP16.
* :mod:`repro.engine` — the unified cache API: one ``CacheBackend``
  protocol over the fused cache and every baseline, the multi-sequence
  ``KVCachePool`` with batched reads, one ``create_backend`` factory.
* :mod:`repro.models` — numpy transformer substrate (8-model zoo).
* :mod:`repro.data` — corpora, QA tasks, Azure-style traces.
* :mod:`repro.eval` — accuracy harness and KV-distribution analysis.
* :mod:`repro.hardware` — accelerator/memory/MMU/engine simulation.
* :mod:`repro.serving` — continuous batching and trace replay.
* :mod:`repro.experiments` — one module per paper figure/table.
* :mod:`repro.commands` — ``python -m repro`` (one module per verb).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
