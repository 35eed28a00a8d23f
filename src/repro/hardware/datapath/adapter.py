"""Hardware-in-the-loop adapter: the Figure 9 engines behind the KV cache.

:class:`EngineBackedQuantizer` is an
:class:`~repro.core.quantizer.OakenQuantizer` whose every encode and
decode is also priced in engine cycles.  The engines are hardware for
the fused kernel's arithmetic, so the adapter runs the kernel and adds
each pass's closed-form cycle count (:mod:`~repro.hardware.datapath.timing`)
to an :class:`EngineCycles` counter.  Dropping it into
:class:`~repro.core.kvcache.QuantizedKVCache` (or the serving replay's
pool) runs the whole software stack as the accelerator would, and is
the source of end-to-end engine cycle counts.

It stacks like its base class: a layer's keys and values (the arena:
every layer of a step) go through one row-stacked twin, which prices
each of its equal row blocks as the per-tensor pass it stands for, so
the counts are those of per-tensor calls.

Its one check of its own is the zero-insert shifter's: every fused
nibble a decode reads back must equal its COO record's low code bits.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

import numpy as np

from repro.core.config import OakenConfig
from repro.core.encoding import EncodedKV
from repro.core.grouping import GroupThresholds
from repro.core.modes import ComputeModeLike
from repro.core.quantizer import (
    OakenQuantizer,
    QuantizeScratch,
    _fused_dequantize,
    _fused_nibbles,
    _fused_quantize,
)
from repro.hardware.datapath.timing import DatapathTiming, DequantTiming


class EngineCycles:
    """Engine cycles accrued so far, by one or more quantizers.

    Attributes:
        quant: quantization-engine cycles.
        dequant: dequantization-engine cycles.
    """

    __slots__ = ("quant", "dequant")

    def __init__(self) -> None:
        self.quant = 0
        self.dequant = 0


class EngineBackedQuantizer(OakenQuantizer):
    """An OakenQuantizer that counts the engines' cycles.

    Calls the fused kernels directly, beside the frozen
    :class:`OakenQuantizer` entry points.  A row-stacked one (G
    thresholds, or a twin from :meth:`stack`) prices each of its G equal
    row blocks as its own pass of ``rows // G`` tokens, into that
    block's counter, so the counts equal those of the per-tensor calls:
    the engines are priced per tensor, as the hardware runs them.

    Args:
        config: quantizer hyper-parameters.
        thresholds: offline-profiled thresholds (a sequence for a
            row-stacked quantizer).
        quant_timing / dequant_timing: datapath physical parameters.
        mode: :class:`~repro.core.modes.ComputeMode` precision policy
            (default ``exact_f64``, the golden anchor).
        counters: one :class:`EngineCycles` per row block (default one
            fresh counter for every block); quantizers given the same
            counter accrue into it together.

    Attributes:
        quant_cycles / dequant_cycles: engine cycles in this
            quantizer's counters so far.
    """

    def __init__(
        self,
        config: OakenConfig,
        thresholds: GroupThresholds,
        quant_timing: Optional[DatapathTiming] = None,
        dequant_timing: Optional[DequantTiming] = None,
        mode: ComputeModeLike = None,
        counters: Optional[Sequence[EngineCycles]] = None,
    ):
        super().__init__(config, thresholds, mode)
        self.quant_timing = (
            quant_timing if quant_timing is not None else DatapathTiming()
        )
        self.dequant_timing = (
            dequant_timing if dequant_timing is not None else DequantTiming()
        )
        self._blocks = self._plan.groups
        if counters is None:
            counters = [EngineCycles()] * self._blocks
        if len(counters) != self._blocks:
            raise ValueError(
                f"need one counter per row block ({self._blocks}), got "
                f"{len(counters)}"
            )
        self.counters = tuple(counters)
        #: ``(counter, blocks it counts)`` per distinct counter.
        self._accrual = tuple(Counter(self.counters).items())

    @property
    def quant_cycles(self) -> int:
        return sum(counter.quant for counter, _ in self._accrual)

    @property
    def dequant_cycles(self) -> int:
        return sum(counter.dequant for counter, _ in self._accrual)

    def _stack_key(self) -> tuple:
        return super()._stack_key() + (self.quant_timing, self.dequant_timing)

    def _stacked(self, quantizers: Sequence) -> "EngineBackedQuantizer":
        """The twin: the members' timings, mode and counters."""
        return EngineBackedQuantizer(
            self.config,
            tuple(q.thresholds for q in quantizers),
            self.quant_timing,
            self.dequant_timing,
            self.mode,
            counters=[q.counters[0] for q in quantizers],
        )

    def quantize(self, values: np.ndarray) -> EncodedKV:
        """Encode a [T, D] matrix through the quantization engine."""
        return self.quantize_into(values, None)

    def quantize_into(
        self, values: np.ndarray, scratch: Optional[QuantizeScratch] = None
    ) -> EncodedKV:
        """Streaming encode reusing ``scratch``, priced in engine cycles."""
        encoded = _fused_quantize(
            self._plan, self.thresholds, values, scratch
        )
        rows, dim = encoded.shape
        cycles = self.quant_timing.cycles(rows // self._blocks, dim)
        for counter, blocks in self._accrual:
            counter.quant += blocks * cycles
        return encoded

    def dequantize(self, encoded: EncodedKV) -> np.ndarray:
        """Decode through the dequantization engine, after the
        zero-insert shifter's corruption check."""
        self._check_fused_nibbles(encoded)
        matrix = _fused_dequantize(self._plan, encoded)
        rows, dim = encoded.shape
        cycles = self.dequant_timing.cycles(rows // self._blocks, dim)
        for counter, blocks in self._accrual:
            counter.dequant += blocks * cycles
        return matrix

    def _check_fused_nibbles(self, encoded: EncodedKV) -> None:
        """Raise ValueError when a dense slot disagrees with its record."""
        token = encoded.sparse_token
        if not self.config.fused_encoding or token.size == 0:
            return
        pos = encoded.sparse_pos
        expected = _fused_nibbles(
            self.config, encoded.sparse_side, encoded.sparse_mag_code
        )
        slots = encoded.dense_codes[token, pos]
        mismatch = slots != expected
        if mismatch.any():
            first = int(np.argmax(mismatch))
            raise ValueError(
                f"fused nibble mismatch at position {int(pos[first])}: "
                f"dense slot holds {int(slots[first])}, record says "
                f"{int(expected[first])}"
            )

    def engine_time_s(self) -> float:
        """Wall-clock engine time accumulated so far, each engine's
        cycles at its own timing's clock."""
        quant_hz = self.quant_timing.freq_ghz * 1e9
        dequant_hz = self.dequant_timing.freq_ghz * 1e9
        return (
            self.quant_cycles / quant_hz + self.dequant_cycles / dequant_hz
        )
