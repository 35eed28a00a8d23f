"""Functional, bit-exact model of the Figure 9 engines.

This package *implements* the quantization/dequantization engines
structurally: each module of the paper's Figure 9 (decomposer, min/max
finder, σ-calculator, inlier/outlier quantizers, zero-remove/zero-insert
shifters, OR-merge concatenator) is a whole-tensor stage class running
its arithmetic over ``[T, D]`` arrays in one pass
(:mod:`~repro.hardware.datapath.vectorized`), and each engine returns
the modeled per-stage cycles of the hardware alongside its bits.  Their
end-to-end cycle count is the one cost model of the engines:
:meth:`DatapathTiming.cycles` / :meth:`DequantTiming.cycles`
(:mod:`~repro.hardware.datapath.timing`).

The tests hold it equal to the scalar element-streaming golden model
kept in ``tests/datapath_oracle.py`` — bit for bit and cycle for cycle,
in both :class:`~repro.core.modes.ComputeMode`\\ s — and to
:class:`~repro.core.quantizer.OakenQuantizer`: the functional check the
authors ran between their RTL and their algorithm.  ``exact_f64``
anchors bit-exactness; ``deploy_f32`` runs every stage's arithmetic in
float32 — the datapath's float32 golden model that makes ``deploy_f32``
safe as the serving default.

Public API:

* :class:`VectorizedQuantEngine` / :class:`VectorizedDequantEngine` —
  the engines, returning ``(EncodedKV | matrix, CycleReport)``.
* :class:`DatapathTiming` / :class:`DequantTiming` — lane widths,
  clocks, turnaround latencies, and the closed-form ``cycles(tokens,
  dim)`` every engine pass reports.
* :class:`CycleReport` — per-stage busy-cycle occupancy.
* :class:`EngineBackedQuantizer` — the engines behind the
  ``quantize``/``dequantize`` surface of the software quantizer.
"""

from repro.hardware.datapath.adapter import EngineBackedQuantizer
from repro.hardware.datapath.timing import (
    CycleReport,
    DatapathTiming,
    DequantTiming,
    StageActivity,
)
from repro.hardware.datapath.vectorized import (
    VectorizedDecomposer,
    VectorizedDequantEngine,
    VectorizedFusedConcatenator,
    VectorizedInlierDequantizer,
    VectorizedMinMaxFinder,
    VectorizedOutlierDequantizer,
    VectorizedOutlierExtractor,
    VectorizedQuantEngine,
    VectorizedScaleCalculator,
    VectorizedZeroInsertShifter,
)

__all__ = [
    "CycleReport",
    "EngineBackedQuantizer",
    "DatapathTiming",
    "DequantTiming",
    "StageActivity",
    "VectorizedDecomposer",
    "VectorizedDequantEngine",
    "VectorizedFusedConcatenator",
    "VectorizedInlierDequantizer",
    "VectorizedMinMaxFinder",
    "VectorizedOutlierDequantizer",
    "VectorizedOutlierExtractor",
    "VectorizedQuantEngine",
    "VectorizedScaleCalculator",
    "VectorizedZeroInsertShifter",
]
