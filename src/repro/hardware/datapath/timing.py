"""Cycle model of the Figure 9 engines: timings and cycle reports.

:class:`DatapathTiming` / :class:`DequantTiming` hold the physical
parameters of the quantization and dequantization datapaths (lanes per
cycle, clock, turnaround and fill latencies) and are the engines' one
cost model: each one's :meth:`cycles` is the closed-form end-to-end
cycle count of a ``[tokens, dim]`` pass.  Each one's :meth:`report`
prices one pass of the fused kernel as the engine would have run it —
the engines compute the kernel's arithmetic, so what they add is only
this accounting, read off the encoded layout (its shape and its
per-token outlier counts).  :class:`StageActivity` /
:class:`CycleReport` carry what a pass cost: per-stage busy-cycle
counters plus the end-to-end count.  The tests hold every report equal
to the independent element-streaming count of the golden model in
``tests/datapath_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

import numpy as np

if TYPE_CHECKING:
    from repro.core.encoding import EncodedKV


@dataclass(frozen=True)
class DatapathTiming:
    """Physical parameters of the quantization engine.

    Attributes:
        lanes: elements processed per cycle in each streaming pass.
        freq_ghz: engine clock.
        scale_latency_cycles: turnaround of the σ-calculator for one
            token — every group has its own subtract/divide unit, so
            this is a fixed latency, not per-group.
    """

    lanes: int = 32
    freq_ghz: float = 1.0
    scale_latency_cycles: int = 4

    def pass_cycles(self, dim: int) -> int:
        """Cycles for one streaming pass over a ``dim``-element token."""
        return max(1, math.ceil(dim / self.lanes))

    def cycles(self, tokens: int, dim: int) -> int:
        """End-to-end cycles to quantize ``tokens`` rows of ``dim``.

        Tokens are buffered three deep: while token *t* streams through
        the quantize/emit pass, token *t+1* sits in the σ-calculator
        and token *t+2* streams through decompose/min-max.  One token
        fills the pipe (two passes and the turnaround); after it the
        slowest of the three stages sets the initiation interval.
        """
        if tokens <= 0:
            return 0
        pass_cycles = self.pass_cycles(dim)
        scale = self.scale_latency_cycles
        return 2 * pass_cycles + scale + (tokens - 1) * max(
            pass_cycles, scale
        )

    def report(self, encoded: "EncodedKV") -> "CycleReport":
        """Per-stage cycles of quantizing ``encoded``'s rows (Figure 9a).

        Every token makes two element passes (decompose + min/max, then
        quantize) around one σ-calculator turnaround; the zero-remove
        shifter compacts in line with the second pass, busy in one cycle
        per outlier up to the pass length.
        """
        tokens, dim = encoded.shape
        report = CycleReport(tokens=tokens, elements=tokens * dim)
        if tokens:
            pass_cycles = self.pass_cycles(dim)
            groups = 1 + encoded.config.num_sparse_bands
            token = encoded.sparse_token
            counts = np.bincount(token, minlength=tokens)
            report.stage("decomposer").record(
                tokens * dim, tokens * pass_cycles
            )
            report.stage("minmax_finder").record(
                tokens * dim, tokens * pass_cycles
            )
            report.stage("scale_calculator").record(
                tokens * groups, tokens * self.scale_latency_cycles
            )
            report.stage("quantizer").record(
                tokens * dim, tokens * pass_cycles
            )
            report.stage("zero_remove_shifter").record(
                int(token.size),
                int(np.minimum(counts, pass_cycles).sum()),
            )
        report.total_cycles = self.cycles(tokens, dim)
        return report


@dataclass(frozen=True)
class DequantTiming:
    """Physical parameters of the dequantization datapath.

    Wider than the quantization engine (it must keep pace with the
    attention read stream), with a short fixed fill.
    """

    lanes: int = 128
    freq_ghz: float = 1.0
    fill_cycles: int = 16

    def pass_cycles(self, dim: int) -> int:
        """Cycles for one pass over a ``dim``-element token row."""
        return max(1, math.ceil(dim / self.lanes))

    def cycles(self, tokens: int, dim: int) -> int:
        """End-to-end cycles to dequantize ``tokens`` rows of ``dim``:
        the fill, then one pass per row.  An empty pass is free."""
        if tokens <= 0:
            return 0
        return self.fill_cycles + tokens * self.pass_cycles(dim)

    def report(self, encoded: "EncodedKV") -> "CycleReport":
        """Per-stage cycles of dequantizing ``encoded`` (Figure 9b).

        One pass per token row through the inlier dequantizer; the
        zero-insert shifter and the outlier dequantizer are busy in one
        cycle per outlier, up to the pass length.
        """
        tokens, dim = encoded.shape
        report = CycleReport(tokens=tokens, elements=tokens * dim)
        if tokens:
            pass_cycles = self.pass_cycles(dim)
            token = encoded.sparse_token
            counts = np.bincount(token, minlength=tokens)
            busy = int(np.minimum(counts, pass_cycles).sum())
            report.stage("zero_insert_shifter").record(int(token.size), busy)
            report.stage("inlier_dequantizer").record(
                tokens * dim, tokens * pass_cycles
            )
            report.stage("outlier_dequantizer").record(int(token.size), busy)
        report.total_cycles = self.cycles(tokens, dim)
        return report


@dataclass
class StageActivity:
    """Busy-cycle accounting of one pipeline stage.

    Attributes:
        name: stage name (matches the Figure 9 module names).
        busy_cycles: cycles the stage spent processing elements.
        elements: elements that traversed the stage.
    """

    name: str
    busy_cycles: int = 0
    elements: int = 0

    def record(self, elements: int, cycles: int) -> None:
        """Accumulate one burst of work."""
        self.elements += elements
        self.busy_cycles += cycles


@dataclass
class CycleReport:
    """End-to-end cycle accounting of one engine pass.

    Attributes:
        total_cycles: engine cycles from first element in to last
            element out, including pipeline fill and the per-token
            scale-calculation turnaround.
        tokens: tokens processed.
        elements: total elements processed.
        stages: per-stage busy counters keyed by stage name.
    """

    total_cycles: int = 0
    tokens: int = 0
    elements: int = 0
    stages: Dict[str, StageActivity] = field(default_factory=dict)

    def stage(self, name: str) -> StageActivity:
        """Fetch (or create) the activity counter of a stage."""
        if name not in self.stages:
            self.stages[name] = StageActivity(name)
        return self.stages[name]

    def time_s(self, freq_ghz: float) -> float:
        """Wall-clock seconds at the given engine clock."""
        return self.total_cycles / (freq_ghz * 1e9)

    def occupancy(self) -> Dict[str, float]:
        """Per-stage busy fraction of the total cycle count."""
        if self.total_cycles <= 0:
            return {name: 0.0 for name in self.stages}
        return {
            name: activity.busy_cycles / self.total_cycles
            for name, activity in self.stages.items()
        }
