"""Hardware-in-the-loop adapter: datapath engines behind the KV cache.

:class:`EngineBackedQuantizer` exposes the same ``quantize`` /
``dequantize`` surface as :class:`~repro.core.quantizer.OakenQuantizer`
but routes every call through the Figure 9 engine models,
accumulating their cycle reports.  Dropping it into
:class:`~repro.core.kvcache.QuantizedKVCache` (or the model substrate's
quantized generation) runs the whole software stack on the hardware
datapath — the system-level counterpart of the per-tensor equivalence
tests, and the source of end-to-end engine cycle counts.  The engines
honour the adapter's :class:`~repro.core.modes.ComputeMode`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import OakenConfig
from repro.core.encoding import EncodedKV
from repro.core.grouping import GroupThresholds
from repro.core.modes import (
    EXACT_F64,
    ComputeMode,
    ComputeModeLike,
    resolve_compute_mode,
)
from repro.hardware.datapath.timing import DatapathTiming, DequantTiming
from repro.hardware.datapath.vectorized import (
    VectorizedDequantEngine,
    VectorizedQuantEngine,
)


class EngineBackedQuantizer:
    """Drop-in OakenQuantizer replacement backed by the engines.

    Args:
        config: quantizer hyper-parameters.
        thresholds: offline-profiled thresholds.
        quant_timing / dequant_timing: datapath physical parameters.
        mode: :class:`~repro.core.modes.ComputeMode` precision policy
            (default ``exact_f64``, the golden anchor).

    Attributes:
        quant_cycles: engine cycles spent quantizing so far.
        dequant_cycles: engine cycles spent dequantizing so far.
    """

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        quant_timing: Optional[DatapathTiming] = None,
        dequant_timing: Optional[DequantTiming] = None,
        mode: ComputeModeLike = None,
    ):
        self.config = config
        self.thresholds = thresholds
        self.mode: ComputeMode = resolve_compute_mode(mode, EXACT_F64)
        self._quant = VectorizedQuantEngine(
            config, thresholds, timing=quant_timing, mode=self.mode
        )
        self._dequant = VectorizedDequantEngine(
            config, thresholds, timing=dequant_timing, mode=self.mode
        )
        self.quant_cycles = 0
        self.dequant_cycles = 0

    @property
    def compute_dtype(self) -> np.dtype:
        """Working dtype of the engine stages (from the mode policy)."""
        return self.mode.compute_dtype

    def quantize(self, values: np.ndarray) -> EncodedKV:
        """Stream a [T, D] matrix through the quantization engine."""
        encoded, report = self._quant.quantize_matrix(values)
        self.quant_cycles += report.total_cycles
        return encoded

    def quantize_into(self, values: np.ndarray, scratch=None) -> EncodedKV:
        """Streaming-append entry point (scratch-buffer signature).

        The cache layer and the serving pool prefer ``quantize_into``
        when a quantizer offers it; the engines allocate internally, so
        ``scratch`` is accepted for interface compatibility and
        ignored.  Cycle accounting is identical to :meth:`quantize` —
        this is what lets an engine-backed cache ride the pool's
        batched ``append_batch`` path while still accumulating modeled
        datapath cycles.
        """
        return self.quantize(values)

    def dequantize(self, encoded: EncodedKV) -> np.ndarray:
        """Stream an encoded tensor through the dequantization engine."""
        matrix, report = self._dequant.dequantize_matrix(encoded)
        self.dequant_cycles += report.total_cycles
        return matrix

    def roundtrip(self, values: np.ndarray) -> np.ndarray:
        """Quantize then dequantize through both engines."""
        return self.dequantize(self.quantize(values))

    def engine_time_s(self) -> float:
        """Wall-clock engine time accumulated so far, each engine's
        cycles at its own timing's clock."""
        quant_hz = self._quant.timing.freq_ghz * 1e9
        dequant_hz = self._dequant.timing.freq_ghz * 1e9
        return (
            self.quant_cycles / quant_hz + self.dequant_cycles / dequant_hz
        )
