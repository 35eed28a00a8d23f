"""The Table 2 accuracy harness.

For each (model, method) pair the harness:

1. samples a held-out calibration corpus and collects per-layer exact
   KV matrices,
2. fits one quantizer per layer per tensor kind (keys and values are
   calibrated independently — several methods treat them differently),
3. wraps the fitted quantizers into a
   :class:`~repro.models.transformer.KVTransformBundle`,
4. measures Wikitext2-analogue perplexity, the three QA-task
   accuracies, and the measured effective bitwidth.

Effective bitwidth is additionally reported at the *paper* model's KV
width (``arch.kv_dim``) so the Table 2 bottom rows can be compared
directly: per-token metadata amortizes over the real models' much wider
KV vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import KVCacheQuantizer
from repro.data.corpus import build_corpus, calibration_corpus
from repro.engine import BASELINE_NAMES, create_quantizer
from repro.data.qa_tasks import QA_TASK_PROFILES, build_qa_batch
from repro.eval.zeroshot import score_qa_batch
from repro.models.config import ModelSpec, get_model
from repro.models.transformer import DecoderModel, KVTransformBundle


@dataclass
class FittedMethod:
    """A method fitted for every layer of one model."""

    name: str
    key_quantizers: List[KVCacheQuantizer]
    value_quantizers: List[KVCacheQuantizer]

    def bundle(self) -> KVTransformBundle:
        """The per-layer lossy transforms for the forward pass."""
        return KVTransformBundle(
            key_fns=[q.roundtrip for q in self.key_quantizers],
            value_fns=[q.roundtrip for q in self.value_quantizers],
            pre_rope_keys=self.key_quantizers[0].pre_rope_keys,
        )

    def layer_footprints(
        self, kv_samples: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> List[Tuple[object, int]]:
        """One (footprint, token_count) per (layer, tensor) sample.

        Each ``footprint`` call quantizes its tensor, so the batched
        per-layer sweep runs once here and every bitwidth metric is
        derived from the same list instead of re-encoding the samples.
        """
        footprints = []
        for layer, (keys, values) in enumerate(kv_samples):
            for quantizer, tensor in (
                (self.key_quantizers[layer], keys),
                (self.value_quantizers[layer], values),
            ):
                footprints.append(
                    (quantizer.footprint(tensor), tensor.shape[0])
                )
        return footprints

    def measured_bitwidth(
        self, kv_samples: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> float:
        """Storage-weighted bits/element over sample KV tensors."""
        return measured_bitwidth_from_footprints(
            self.layer_footprints(kv_samples)
        )


def build_method_bundle(
    model: DecoderModel,
    method: str,
    calibration_tokens: np.ndarray,
) -> FittedMethod:
    """Fit ``method`` on per-layer KV calibration data.

    The calibration token batch is split back into per-sequence runs so
    methods with multi-run offline phases (Oaken's ~100-inference
    threshold averaging) see separate runs, as the paper describes.
    Method instances come from the unified engine factory
    (:func:`repro.engine.create_quantizer`), the same entry point the
    CLI and the cache backends use.
    """
    tokens = np.atleast_2d(calibration_tokens)
    batch, length = tokens.shape
    kv = model.collect_layer_kv(tokens)
    key_quantizers: List[KVCacheQuantizer] = []
    value_quantizers: List[KVCacheQuantizer] = []
    for keys, values in kv:
        dim = keys.shape[1]
        key_runs = [r for r in keys.reshape(batch, length, dim)]
        value_runs = [r for r in values.reshape(batch, length, dim)]
        key_quantizers.append(
            create_quantizer(method, "key").fit(key_runs)
        )
        value_quantizers.append(
            create_quantizer(method, "value").fit(value_runs)
        )
    return FittedMethod(
        name=method,
        key_quantizers=key_quantizers,
        value_quantizers=value_quantizers,
    )


@dataclass
class AccuracyResult:
    """One Table 2 cell-row: a method evaluated on one model."""

    model: str
    method: str
    perplexity: float
    accuracy: Dict[str, float] = field(default_factory=dict)
    effective_bits: float = 0.0
    effective_bits_paper_dim: float = 0.0

    def mean_accuracy(self) -> float:
        if not self.accuracy:
            return 0.0
        return float(np.mean(list(self.accuracy.values())))


def evaluate_method(
    model: DecoderModel,
    spec: ModelSpec,
    method: str,
    eval_tokens: np.ndarray,
    qa_batches: Dict[str, object],
    calibration_tokens: np.ndarray,
) -> AccuracyResult:
    """Fit and evaluate a single method on a single model."""
    fitted = build_method_bundle(model, method, calibration_tokens)
    bundle = fitted.bundle()
    perplexity = model.perplexity(eval_tokens, kv_transforms=bundle)
    accuracy = {
        task: score_qa_batch(model, batch, kv_transforms=bundle)
        for task, batch in qa_batches.items()
    }
    kv_eval = model.collect_layer_kv(eval_tokens[: min(4, len(eval_tokens))])
    # Quantize the sample tensors once; both bitwidth metrics reuse the
    # same footprints (the seed re-encoded every tensor twice here).
    footprints = fitted.layer_footprints(kv_eval)
    measured_bits = measured_bitwidth_from_footprints(footprints)
    paper_bits = _paper_dim_bitwidth_from_footprints(footprints, spec)
    return AccuracyResult(
        model=spec.name,
        method=method,
        perplexity=perplexity,
        accuracy=accuracy,
        effective_bits=measured_bits,
        effective_bits_paper_dim=paper_bits,
    )


def measured_bitwidth_from_footprints(
    footprints: Sequence[Tuple[object, int]],
) -> float:
    """Storage-weighted bits/element from precomputed footprints."""
    bits = 0.0
    elements = 0
    for fp, _tokens in footprints:
        bits += fp.total_bits
        elements += fp.element_count
    return bits / elements if elements else 0.0


def _paper_dim_bitwidth_from_footprints(
    footprints: Sequence[Tuple[object, int]],
    spec: ModelSpec,
) -> float:
    """Bits/element rescaled to the paper model's KV width.

    Measured footprints split into bits that scale with elements
    (dense + sparse) and per-token metadata; re-amortizing the metadata
    over ``arch.kv_dim`` reproduces the paper's Table 2 numbers.
    """
    scale_bits = 0.0
    payload_bits = 0.0
    elements = 0
    tokens = 0
    for fp, sample_tokens in footprints:
        payload_bits += fp.dense_bits + fp.sparse_bits
        scale_bits += fp.metadata_bits
        elements += fp.element_count
        tokens += sample_tokens
    if elements == 0:
        return 0.0
    per_element_payload = payload_bits / elements
    metadata_per_token = scale_bits / tokens if tokens else 0.0
    return per_element_payload + metadata_per_token / spec.arch.kv_dim


def run_accuracy_harness(
    model_names: Sequence[str],
    methods: Sequence[str] = BASELINE_NAMES,
    eval_batch: int = 8,
    qa_items: int = 32,
    calibration_batch: int = 8,
    calibration_length: int = 96,
    qa_tasks: Optional[Sequence[str]] = None,
) -> List[AccuracyResult]:
    """Run the full Table 2 grid.

    Args:
        model_names: zoo model names to evaluate.
        methods: quantization methods (registry names).
        eval_batch: perplexity corpus sequences per model.
        qa_items: items per QA task.
        calibration_batch / calibration_length: offline profiling size.
        qa_tasks: QA task subset; defaults to all three.

    Returns:
        One :class:`AccuracyResult` per (model, method), model-major.
    """
    tasks = tuple(qa_tasks) if qa_tasks else tuple(QA_TASK_PROFILES)
    results: List[AccuracyResult] = []
    for name in model_names:
        spec = get_model(name)
        model = DecoderModel(spec)
        eval_tokens = build_corpus(model, "wikitext2", batch=eval_batch)
        qa_batches = {
            task: build_qa_batch(model, task, num_items=qa_items)
            for task in tasks
        }
        cal_tokens = calibration_corpus(
            model, batch=calibration_batch, length=calibration_length
        )
        for method in methods:
            results.append(
                evaluate_method(
                    model, spec, method, eval_tokens, qa_batches,
                    cal_tokens,
                )
            )
    return results
