"""Common interface for all KV-cache quantization methods.

The evaluation harness treats every method as a lossy transform on a
token-major [T, D] matrix (one decoder layer's keys or values), with an
optional offline calibration step.  Keys and values get independent
quantizer instances because several methods treat them differently
(KVQuant and KIVI quantize keys per channel but values per token).
"""

from __future__ import annotations

import abc
from typing import List, Sequence

import numpy as np

from repro.quant.metrics import StorageFootprint


class KVCacheQuantizer(abc.ABC):
    """Abstract lossy KV transform with storage accounting.

    Attributes:
        name: short method identifier (registry key).
        tensor_kind: ``"key"`` or ``"value"`` — several methods pick a
            different quantization axis per kind.
    """

    #: Registry key, overridden by subclasses.
    name: str = "abstract"

    #: Whether this method quantizes keys before rotary embedding
    #: (KVQuant does; see KVTransformBundle.pre_rope_keys).
    pre_rope_keys: bool = False

    #: Whether ``roundtrip`` output row ``i`` depends only on input row
    #: ``i`` — true for per-token methods whose scales/permutations are
    #: fixed offline.  Row-local methods let a streaming reader keep
    #: every previously decoded row and quantize only the new ones.
    row_local: bool = False

    def __init__(self, tensor_kind: str = "key"):
        if tensor_kind not in ("key", "value"):
            raise ValueError(
                f"tensor_kind must be 'key' or 'value', got {tensor_kind!r}"
            )
        self.tensor_kind = tensor_kind
        self._fitted = False

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------

    def fit(self, samples: Sequence[np.ndarray]) -> "KVCacheQuantizer":
        """Offline calibration on sample [T, D] tensors.

        Methods without an offline phase (e.g. KIVI, which is
        tuning-free) accept any input and ignore it.  Returns ``self``
        for chaining.
        """
        self._calibrate(samples)
        self._fitted = True
        return self

    def _calibrate(self, samples: Sequence[np.ndarray]) -> None:
        """Subclass hook; default is calibration-free."""

    @property
    def requires_calibration(self) -> bool:
        """Whether :meth:`fit` must run before :meth:`roundtrip`."""
        return False

    def _check_ready(self) -> None:
        if self.requires_calibration and not self._fitted:
            raise RuntimeError(
                f"{self.name} requires fit() before quantization"
            )

    # ------------------------------------------------------------------
    # the lossy transform
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def roundtrip(self, values: np.ndarray) -> np.ndarray:
        """Quantize then dequantize a [T, D] matrix.

        This is the transform the attention computation observes when
        reading the KV cache back from memory.
        """

    def roundtrip_batch(
        self, blocks: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Roundtrip many [t_i, D] blocks, merging when sound.

        The batched-quantize contract behind the serving pool's
        multi-sequence adapter paths: for *row-local* methods (a
        roundtrip row depends only on that input row) the blocks are
        concatenated into one [sum t_i, D] matrix, transformed with a
        **single** :meth:`roundtrip` call, and split back — bit-for-bit
        what per-block calls would return, at one transform's worth of
        per-call overhead.  History-global methods (whose output
        depends on the whole matrix, e.g. KVQuant's online topK or
        KIVI's sliding window) must not be merged across sequences and
        fall back to one :meth:`roundtrip` per block.

        Returned entries may be read-only views into one shared merged
        result; copy before mutating or holding long-term.
        """
        blocks = [np.atleast_2d(block) for block in blocks]
        if not self.row_local or len(blocks) < 2:
            return [np.asarray(self.roundtrip(block)) for block in blocks]
        merged = np.asarray(self.roundtrip(np.concatenate(blocks)))
        out: List[np.ndarray] = []
        offset = 0
        for block in blocks:
            out.append(merged[offset : offset + block.shape[0]])
            offset += block.shape[0]
        return out

    def stable_prefix(self, old_tokens: int, new_tokens: int) -> int:
        """How many cached roundtrip rows survive history growth.

        A streaming reader that cached ``roundtrip`` of the first
        ``old_tokens`` rows and has since appended up to
        ``new_tokens`` asks this method how much of that cache is
        still exact.  The return value is a row count ``r`` such that
        for any [new_tokens, D] history ``x`` extending the old one:

        * ``roundtrip(x)[:r]`` is bit-identical to the cached
          ``roundtrip(x[:old_tokens])[:r]``, and
        * ``roundtrip(x)[r:]`` is bit-identical to
          ``roundtrip(x[r:])``,

        so the reader may keep its first ``r`` decoded rows and
        re-quantize only the suffix (the amortized sliding-window read
        in :class:`repro.engine.BaselineCacheBackend`).

        Row-local methods return ``old_tokens`` (nothing ever
        changes); history-global methods — e.g. KVQuant's online topK
        outlier selection, whose threshold shifts with every appended
        row — return 0 and force a full recompute.  Sliding-window
        methods like KIVI override this with the window geometry.
        """
        if self.row_local:
            return min(old_tokens, new_tokens)
        return 0

    # ------------------------------------------------------------------
    # storage accounting
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def footprint(self, values: np.ndarray) -> StorageFootprint:
        """Bit-level storage accounting for ``values`` under this method."""

    def effective_bitwidth(self, values: np.ndarray) -> float:
        """Bits per element for ``values`` (Table 2's storage metric)."""
        return self.footprint(values).effective_bitwidth
