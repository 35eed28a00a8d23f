"""The Figure 9 engines as a pricing of the fused kernel.

The paper's quantization and dequantization engines (decomposer,
min/max finder, σ-calculator, inlier/outlier quantizers,
zero-remove/zero-insert shifters, OR-merge concatenator) are hardware
for the same algorithm as :class:`~repro.core.quantizer.OakenQuantizer`,
so ``src/`` keeps one arithmetic: the fused kernel.  What the engines
add is their cycle accounting, read off the kernel's encoded output:
:meth:`DatapathTiming.report` / :meth:`DequantTiming.report`
(:mod:`~repro.hardware.datapath.timing`), whose end-to-end count is the
closed-form :meth:`DatapathTiming.cycles` / :meth:`DequantTiming.cycles`.

The scalar element-streaming golden model kept in
``tests/datapath_oracle.py`` implements every Figure 9 module one
element at a time; the tests hold the kernel equal to it bit for bit in
both :class:`~repro.core.modes.ComputeMode`\\ s, and the reports equal
to its independent cycle count — the functional check the authors ran
between their RTL and their algorithm.

Public API:

* :class:`EngineBackedQuantizer` — an
  :class:`~repro.core.quantizer.OakenQuantizer` that accumulates the
  engines' cycles into :class:`EngineCycles` counters (a row-stacked
  one prices each row block as its own tensor) and keeps the
  zero-insert shifter's corruption check.
* :class:`DatapathTiming` / :class:`DequantTiming` — lane widths,
  clocks, turnaround latencies, ``cycles(tokens, dim)`` and
  ``report(encoded)``.
* :class:`CycleReport` — per-stage busy-cycle occupancy.
"""

from repro.hardware.datapath.adapter import (
    EngineBackedQuantizer,
    EngineCycles,
)
from repro.hardware.datapath.timing import (
    CycleReport,
    DatapathTiming,
    DequantTiming,
    StageActivity,
)

__all__ = [
    "CycleReport",
    "EngineBackedQuantizer",
    "EngineCycles",
    "DatapathTiming",
    "DequantTiming",
    "StageActivity",
]
