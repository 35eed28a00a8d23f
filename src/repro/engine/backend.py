"""The unified cache-engine API: one protocol, every method.

The repo grew three disjoint quantized-KV surfaces: the streaming
fused-kernel cache (:mod:`repro.core.kvcache`), the batch-transform
baselines (:mod:`repro.baselines`), and the serving simulator's purely
analytic byte accounting.  This module unifies the first two behind a
single :class:`CacheBackend` protocol — append/read/nbytes/
effective_bitwidth over per-layer token-major [T, D] streams — so that
the scheduler, the generation loop, the evaluation harness and the CLI
all construct and drive caches through one entry point:

>>> backend = create_backend("kivi", num_layers=2)
>>> backend.append(0, keys, values)
>>> k, v = backend.read(0)

Two implementations ship:

* :class:`FusedCacheBackend` — the paper method on the fused
  single-pass kernels with memoized reads (PR 1's hot path).  It *is* a :class:`~repro.core.kvcache.QuantizedKVCache`;
  the protocol was shaped around it.
* :class:`BaselineCacheBackend` — lifts any registry
  :class:`~repro.baselines.base.KVCacheQuantizer` (fp16 / kvquant /
  kivi / tender / atom / qserve / oaken) into the streaming
  interface.  Appends accumulate the exact rows; each read returns the
  method's one-shot ``roundtrip`` of the full history, so streaming
  reads are bit-identical to the batch transform the accuracy harness
  measures — including history-dependent behaviour like KIVI's moving
  FP16 residual window.  Reads are memoized by length and *amortized*
  across appends: the method's
  :meth:`~repro.baselines.base.KVCacheQuantizer.stable_prefix`
  contract tells the backend which decoded rows cannot change as the
  history grows, so per-step reads re-quantize only the rows that
  entered or left the method's window (O(window delta)) instead of the
  whole history (O(T)) — with no change in output bits.

Every Table 2 method thereby becomes generatable (the quantized
generation loop takes any backend) and servable (the serving pool
holds any backend).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.baselines.base import KVCacheQuantizer
from repro.baselines.registry import (
    BASELINE_NAMES,
    available_methods,
    create_method,
)
from repro.core.config import OakenConfig
from repro.core.kvcache import QuantizedKVCache
from repro.core.modes import (
    DEPLOY_F32,
    EXACT_F64,
    ComputeMode,
    ComputeModeLike,
    resolve_compute_mode,
)
from repro.core.quantizer import OakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.engine.arena import KVArena
from repro.engine.sharing import ChunkStore
from repro.engine.store import BackendStore, PoolStore
from repro.quant.metrics import StorageFootprint

#: A per-layer calibration sample: (keys, values), each either one
#: [T, D] matrix or a sequence of per-run matrices.
LayerCalibration = Tuple[
    Union[np.ndarray, Sequence[np.ndarray]],
    Union[np.ndarray, Sequence[np.ndarray]],
]

#: Backend kinds understood by :func:`create_backend`.
BACKEND_KINDS = ("auto", "fused", "adapter")


@runtime_checkable
class CacheBackend(Protocol):
    """What every quantized-KV cache exposes to its consumers.

    A backend owns one sequence's cache across all decoder layers.
    Keys and values stream in token-major [t, D] blocks and read back
    as the dequantized [T, D] history; byte accounting covers the
    encoded storage, which is what the serving pool reports for
    admission control.  A :class:`~repro.engine.KVCachePool` also
    asks its factory's backend for ``pool_store(arena)``, which only
    :class:`FusedCacheBackend` and :class:`BaselineCacheBackend` have.
    """

    @property
    def num_layers(self) -> int:
        """Number of decoder layers served."""
        ...

    @property
    def length(self) -> int:
        """Cached token positions (identical across layers)."""
        ...

    def append(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Quantize and append newly generated [t, D] KV rows."""
        ...

    def read(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantized (keys, values) float32 history of ``layer``."""
        ...

    def footprint_bits(self) -> Tuple[float, float]:
        """``(total_bits, element_count)`` of the encoded storage.

        The one footprint read: :meth:`nbytes` is ``bits / 8`` and
        :meth:`effective_bitwidth` is ``bits / elements``.  The fused
        stores keep the pair as running exact integers, so this is
        O(1) in the cached history.
        """
        ...

    def nbytes(self) -> float:
        """Encoded storage across all layers, in bytes."""
        ...

    def effective_bitwidth(self) -> float:
        """Storage-weighted bits per original element."""
        ...


def _as_runs(samples) -> List[np.ndarray]:
    """Normalize one calibration entry to a list of [T, D] runs."""
    if isinstance(samples, np.ndarray):
        return [np.atleast_2d(samples)]
    return [np.atleast_2d(s) for s in samples]


class FusedCacheBackend(QuantizedKVCache):
    """The paper method's streaming cache as a :class:`CacheBackend`.

    Identical to :class:`~repro.core.kvcache.QuantizedKVCache` (fused
    single-pass kernels, streaming ``quantize_into`` appends,
    memoized reads); this subclass only adds the factory
    classmethod and the method/kind tags the engine reports.
    """

    method = "oaken"
    kind = "fused"

    @property
    def mode(self) -> ComputeMode:
        """The cache's :class:`ComputeMode` (from its quantizers)."""
        return self.layers[0].key_quantizer.mode

    @classmethod
    def from_calibration(
        cls,
        calibration: Sequence[LayerCalibration],
        config: Optional[OakenConfig] = None,
        mode: ComputeModeLike = None,
    ) -> "FusedCacheBackend":
        """Profile per-layer thresholds and build a fresh cache.

        Args:
            calibration: one (keys, values) sample entry per layer.
            config: Oaken configuration (paper 4/90/6 default).
            mode: :class:`~repro.core.modes.ComputeMode` policy for the
                fused kernels.  The engine-layer default is
                ``deploy_f32`` (the serving policy); pass
                ``"exact_f64"`` for the bit-exactness anchor.
        """
        cfg = config if config is not None else OakenConfig()
        resolved = resolve_compute_mode(mode, DEPLOY_F32)
        key_quantizers = []
        value_quantizers = []
        for keys, values in calibration:
            key_quantizers.append(
                OakenQuantizer(
                    cfg,
                    profile_thresholds(_as_runs(keys), cfg),
                    resolved,
                )
            )
            value_quantizers.append(
                OakenQuantizer(
                    cfg,
                    profile_thresholds(_as_runs(values), cfg),
                    resolved,
                )
            )
        return cls(key_quantizers, value_quantizers)

    def twin(self) -> "FusedCacheBackend":
        """An empty cache over this one's fitted quantizers."""
        return type(self)(
            [layer.key_quantizer for layer in self.layers],
            [layer.value_quantizer for layer in self.layers],
        )

    def pool_store(self, arena: bool = False) -> PoolStore:
        """The store a :class:`~repro.engine.KVCachePool` keeps its
        sequences in, this backend being the template: one
        :class:`~repro.engine.arena.KVArena` over its quantizers with
        ``arena``, else a :class:`~repro.engine.sharing.ChunkStore` of
        its twins."""
        if arena:
            return KVArena(
                [layer.key_quantizer for layer in self.layers],
                [layer.value_quantizer for layer in self.layers],
            )
        return ChunkStore(self)


class _BaselineStream:
    """One tensor's streaming state under a batch-transform method.

    Appends land in an amortized growing buffer (capacity doubles when
    exhausted), so the accumulated [T, D] history is always one
    contiguous array and :meth:`matrix` is a constant-time view — the
    seed behaviour of re-``np.concatenate``-ing the chunk list on
    every access paid O(T) copies per generation step.

    ``read`` returns the method's ``roundtrip`` of the full history,
    recomputed whenever the length changed since the last read.  The
    recompute is *amortized* through
    :meth:`KVCacheQuantizer.stable_prefix`: decoded rows the method
    guarantees stable under history growth are kept from the previous
    read, and only the suffix is re-quantized.  For row-local methods
    (fp16/oaken/qserve/atom/tender) that is just the new rows; for
    sliding-window methods (KIVI) it is the window plus its delta;
    history-global methods (KVQuant's online topK) declare no stable
    prefix and recompute fully — every case bit-identical to the
    one-shot batch transform.  Footprints are memoized by length the
    same way.
    """

    #: First buffer allocation, in rows.
    _INITIAL_CAPACITY = 16

    def __init__(self, quantizer: KVCacheQuantizer):
        self.quantizer = quantizer
        self._buffer: Optional[np.ndarray] = None
        self._length = 0
        self._decoded: Optional[np.ndarray] = None
        self._decoded_length = -1
        self._footprint: Optional[StorageFootprint] = None
        self._footprint_length = -1

    @property
    def length(self) -> int:
        return self._length

    @property
    def needs_decode(self) -> bool:
        """Whether the decode memo is stale (appends since last read)."""
        return self._length > 0 and self._decoded_length != self._length

    def _reserve(self, rows: int, dim: int) -> None:
        """Grow the history buffer to hold ``rows`` more rows."""
        need = self._length + rows
        if self._buffer is None:
            capacity = max(self._INITIAL_CAPACITY, need)
            self._buffer = np.empty((capacity, dim), dtype=np.float64)
            return
        if self._buffer.shape[1] != dim:
            raise ValueError(
                f"appended rows have width {dim}, history has "
                f"{self._buffer.shape[1]}"
            )
        if need <= self._buffer.shape[0]:
            return
        capacity = max(self._buffer.shape[0] * 2, need)
        grown = np.empty((capacity, dim), dtype=np.float64)
        grown[: self._length] = self._buffer[: self._length]
        self._buffer = grown

    def append(self, rows: np.ndarray) -> None:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        self._reserve(rows.shape[0], rows.shape[1])
        self._buffer[self._length : self._length + rows.shape[0]] = rows
        self._length += rows.shape[0]

    def matrix(self) -> np.ndarray:
        """The exact accumulated [T, D] history (a read-only view).

        A zero-row append still establishes the history (an empty
        [0, D] matrix); only a stream that never saw an append raises.
        """
        if self._buffer is None:
            raise RuntimeError("cache is empty")
        view = self._buffer[: self._length]
        view.flags.writeable = False
        return view

    def pending(self) -> Tuple[int, np.ndarray]:
        """``(stable, suffix)`` the decode memo does not cover.

        ``stable`` is how many memoized decoded rows survive per the
        method's ``stable_prefix`` contract; ``suffix`` is the exact
        history from that row on — the rows :meth:`read` would
        re-quantize.  Callers (the pool's batched adapter read) may
        roundtrip the suffix themselves and hand the result to
        :meth:`commit_decoded`.
        """
        stable = 0
        if self._decoded_length > 0:
            stable = self.quantizer.stable_prefix(
                self._decoded_length, self._length
            )
            stable = max(0, min(stable, self._decoded_length))
        return stable, self.matrix()[stable:]

    def commit_decoded(
        self, decoded_suffix: np.ndarray, stable: int
    ) -> None:
        """Install the roundtripped suffix into the decode memo."""
        if stable > 0:
            decoded = np.concatenate(
                [self._decoded[:stable], decoded_suffix]
            )
        else:
            decoded = np.asarray(decoded_suffix, dtype=np.float32)
        decoded.flags.writeable = False
        self._decoded = decoded
        self._decoded_length = self._length

    def read(self) -> np.ndarray:
        if self._decoded_length != self._length:
            stable, suffix = self.pending()
            decoded_suffix = np.asarray(
                self.quantizer.roundtrip(suffix), dtype=np.float32
            )
            self.commit_decoded(decoded_suffix, stable)
        return self._decoded

    def footprint(self) -> StorageFootprint:
        if self._footprint_length != self._length:
            self._footprint = self.quantizer.footprint(self.matrix())
            self._footprint_length = self._length
        return self._footprint


class AdapterStore(BackendStore):
    """Registry-baseline sequences as exact-row streams: the pool's
    store for :class:`BaselineCacheBackend` pools (``arena=`` is a
    no-op for them — their flat ``_BaselineStream`` buffers already
    are an arena).

    Appends store the exact rows; the quantize happens on the read
    side.  For a *row-local* method (fp16/oaken/qserve/atom/tender: a
    row's roundtrip depends on that row alone) :meth:`decode_pending`
    roundtrips every listed sequence's pending suffix in one merged
    [sum t_i, D] transform per tensor — bit-identical to per-sequence
    reads, since every sequence holds the template's fitted quantizer.
    KIVI's sliding window and KVQuant's online topK are history-global:
    each sequence's own read quantizes it.  Forks copy the exact prefix
    rows.
    """

    def append_layer(
        self,
        layer: int,
        items: Sequence[Tuple[Hashable, np.ndarray, np.ndarray]],
    ) -> int:
        """Store every item's exact rows on ``layer``; no kernel runs."""
        for seq_id, keys, values in items:
            self.caches[seq_id].append(layer, keys, values)
        return 0

    def layer_bits(self, seq_id: Hashable, layer: int) -> float:
        """One sequence's bits on one layer, under the method's
        accounting (each stream's footprint is memoized per length)."""
        return sum(
            stream.footprint().total_bits
            for stream in self.caches[seq_id].layer_streams(layer)
            if stream.length
        )

    def decode_layer(
        self, layer: int, seq_ids: Sequence[Hashable]
    ) -> int:
        """One merged roundtrip per tensor over the listed sequences'
        pending suffixes, when the method is row-local and two or more
        are pending (counted in :attr:`roundtrips`).  No decode kernel
        runs: returns 0."""
        pairs = [self.caches[seq].layer_streams(layer) for seq in seq_ids]
        if pairs and all(stream.quantizer.row_local for stream in pairs[0]):
            for streams in zip(*pairs):
                self._roundtrip_pending(streams)
        return 0

    def _roundtrip_pending(self, streams: Sequence[_BaselineStream]) -> None:
        work = []
        for stream in streams:
            if not stream.needs_decode:
                continue
            stable, suffix = stream.pending()
            work.append((stream, stable, suffix))
        if len(work) < 2:
            return  # nothing to merge; lazy per-sequence reads suffice
        quantizer = work[0][0].quantizer
        chunks = quantizer.roundtrip_batch(
            [suffix for _, _, suffix in work]
        )
        self.roundtrips += 1
        for (stream, stable, _), chunk in zip(work, chunks):
            chunk = np.asarray(chunk, dtype=np.float32)
            if stable == 0 and chunk.base is not None:
                # A bare slice would become the stream's decode memo as
                # a view, pinning the whole merged tensor per stream;
                # the stable > 0 path copies inside commit_decoded's
                # concatenate already.
                chunk = chunk.copy()
            stream.commit_decoded(chunk, stable)

    def fork(
        self, parent_id: Hashable, child_id: Hashable, prefix_len: int
    ) -> "BaselineCacheBackend":
        """Copy the exact prefix rows into a new child's streams.

        Adapter storage is the exact accumulated history, so copying
        the first ``prefix_len`` rows reproduces an unshared twin
        bit-for-bit — including history-global methods, whose reads
        depend only on the exact rows — but saves no bytes.
        """
        parent = self.caches[parent_id]
        held = min(stream.length for stream in parent._keys)
        if not 0 <= prefix_len <= held:
            raise ValueError(
                f"prefix_len {prefix_len} outside the rows every layer "
                f"of parent {parent_id!r} holds ({held})"
            )
        child = self.allocate(child_id)
        if prefix_len:
            for mine, theirs in zip(child._streams(), parent._streams()):
                mine.append(theirs.matrix()[:prefix_len])
        return child


class BaselineCacheBackend:
    """Any registry :class:`KVCacheQuantizer` as a streaming backend.

    Args:
        key_quantizers: per-layer fitted key quantizers.
        value_quantizers: per-layer fitted value quantizers.
        method: registry name tag (reporting only).
    """

    kind = "adapter"

    def __init__(
        self,
        key_quantizers: Sequence[KVCacheQuantizer],
        value_quantizers: Sequence[KVCacheQuantizer],
        method: Optional[str] = None,
        mode: ComputeModeLike = None,
    ):
        if len(key_quantizers) != len(value_quantizers):
            raise ValueError(
                "need one key and one value quantizer per layer"
            )
        self.method = (
            method if method is not None else key_quantizers[0].name
        )
        # Registry methods define their own arithmetic; the mode tag
        # records the engine-layer policy the backend was built under
        # (it parameterizes the oaken adapter's kernels, see
        # create_quantizer).
        self.mode: ComputeMode = resolve_compute_mode(mode, DEPLOY_F32)
        self._keys = [_BaselineStream(q) for q in key_quantizers]
        self._values = [_BaselineStream(q) for q in value_quantizers]

    def twin(self) -> "BaselineCacheBackend":
        """An empty cache over this one's fitted quantizers."""
        return BaselineCacheBackend(
            [stream.quantizer for stream in self._keys],
            [stream.quantizer for stream in self._values],
            method=self.method,
            mode=self.mode,
        )

    def pool_store(self, arena: bool = False) -> PoolStore:
        """The store a :class:`~repro.engine.KVCachePool` keeps its
        sequences in, this backend being the template: an
        :class:`AdapterStore` of its twins, whatever ``arena`` says."""
        return AdapterStore(self)

    def layer_streams(
        self, layer: int
    ) -> Tuple[_BaselineStream, _BaselineStream]:
        """One layer's (key, value) streaming state: what
        :meth:`AdapterStore.decode_pending` merges across sequences."""
        return self._keys[layer], self._values[layer]

    @property
    def num_layers(self) -> int:
        return len(self._keys)

    @property
    def length(self) -> int:
        if not self._keys:
            return 0
        return self._keys[0].length

    def append(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Append newly generated [t, D] KV rows to ``layer``."""
        keys = np.atleast_2d(keys)
        values = np.atleast_2d(values)
        if keys.shape != values.shape:
            raise ValueError(
                f"key/value shape mismatch: {keys.shape} vs {values.shape}"
            )
        self._keys[layer].append(keys)
        self._values[layer].append(values)

    def read(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """The method's roundtrip of the full history.

        Memoized between appends and amortized across them: only rows
        the method's ``stable_prefix`` contract does not guarantee
        stable are re-quantized.  Bit-identical to a one-shot
        ``roundtrip`` of the accumulated [T, D] matrix either way.
        """
        return self._keys[layer].read(), self._values[layer].read()

    def footprint_bits(self) -> Tuple[float, int]:
        """``(total_bits, element_count)`` under the method's
        accounting (each stream's footprint is memoized per length)."""
        bits = 0.0
        elements = 0
        for stream in self._streams():
            if stream.length:
                fp = stream.footprint()
                bits += fp.total_bits
                elements += fp.element_count
        return bits, elements

    def nbytes(self) -> float:
        """Encoded storage under the method's accounting, in bytes."""
        return self.footprint_bits()[0] / 8.0

    def effective_bitwidth(self) -> float:
        """Storage-weighted bits/element across layers and tensors."""
        bits, elements = self.footprint_bits()
        if elements == 0:
            return 0.0
        return bits / elements

    def summary(self) -> Dict[str, float]:
        """Small reporting dict, mirroring the fused cache's."""
        return {
            "layers": float(self.num_layers),
            "tokens": float(self.length),
            "bytes": self.nbytes(),
            "effective_bitwidth": self.effective_bitwidth(),
        }

    def _streams(self) -> List[_BaselineStream]:
        return self._keys + self._values


def create_quantizer(
    method: str,
    tensor_kind: str = "key",
    config: Optional[OakenConfig] = None,
    mode: ComputeModeLike = None,
) -> KVCacheQuantizer:
    """The one per-tensor factory: registry lookup plus Oaken config.

    The evaluation harness and the CLI construct method instances
    through here rather than reaching into the registry, so backend
    construction and per-tensor construction stay in one place.

    Args:
        method: registry name (see :data:`BASELINE_NAMES`).
        tensor_kind: ``"key"`` or ``"value"``.
        config: Oaken configuration override; only valid for the
            ``"oaken"`` method.
        mode: :class:`~repro.core.modes.ComputeMode` for the oaken
            adapter's fused kernels; the per-tensor default stays
            ``exact_f64`` (the accuracy harness's bit-exact anchor),
            unlike :func:`create_backend`'s ``deploy_f32``.  Ignored
            by registry methods that define their own arithmetic.
    """
    if config is not None or mode is not None:
        if method != "oaken" and config is not None:
            raise ValueError(
                "config overrides are only supported for 'oaken', "
                f"got method {method!r}"
            )
        if method == "oaken":
            from repro.baselines.oaken_adapter import OakenKVQuantizer

            return OakenKVQuantizer(
                tensor_kind,
                config,
                mode=resolve_compute_mode(mode, EXACT_F64),
            )
    return create_method(method, tensor_kind)


def _fit_quantizer(
    method: str,
    tensor_kind: str,
    samples: Optional[List[np.ndarray]],
    config: Optional[OakenConfig],
    mode: Optional[ComputeMode] = None,
) -> KVCacheQuantizer:
    quantizer = create_quantizer(method, tensor_kind, config, mode)
    if samples is not None:
        quantizer.fit(samples)
    elif quantizer.requires_calibration:
        raise ValueError(
            f"method {method!r} requires calibration data; pass "
            "calibration= to create_backend"
        )
    return quantizer


def create_backend(
    method: str,
    kind: str = "auto",
    *,
    num_layers: Optional[int] = None,
    calibration: Optional[Sequence[LayerCalibration]] = None,
    config: Optional[OakenConfig] = None,
    mode: ComputeModeLike = None,
) -> CacheBackend:
    """Build a :class:`CacheBackend` for any registered method.

    The one composable entry point behind which the generation loop,
    the serving pool, the harness and the CLI construct caches.

    Args:
        method: registry name (``fp16``/``kvquant``/``kivi``/
            ``tender``/``atom``/``qserve``/``oaken``).
        kind: ``"fused"`` (the paper method on the streaming fused
            kernels; requires ``method="oaken"`` and calibration),
            ``"adapter"`` (any registry method lifted into the
            streaming interface), or ``"auto"`` (fused for oaken,
            adapter otherwise).
        num_layers: decoder layer count; inferred from ``calibration``
            when omitted.
        calibration: per-layer (keys, values) samples for methods with
            an offline phase; entries may be single [T, D] matrices or
            sequences of per-run matrices.
        config: Oaken configuration (oaken-family backends only).
        mode: :class:`~repro.core.modes.ComputeMode` policy for the
            oaken-family kernels.  The engine-layer default is
            ``deploy_f32`` — the serving policy, anchored to the
            float32 datapath golden model; pass ``"exact_f64"`` for
            the bit-exact bench baseline.  Methods that define their
            own arithmetic carry the mode as a tag only.

    Returns:
        A fresh, fitted backend with an empty cache.
    """
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend kind {kind!r}; expected one of "
            f"{BACKEND_KINDS}"
        )
    if method not in available_methods():
        raise ValueError(
            f"unknown method {method!r}; available: "
            f"{sorted(available_methods())}"
        )
    resolved = resolve_compute_mode(mode, DEPLOY_F32)
    if kind == "auto":
        kind = "fused" if method == "oaken" else "adapter"
    if kind == "fused":
        if method != "oaken":
            raise ValueError(
                "the fused backend implements the paper method; use "
                f"kind='adapter' for {method!r}"
            )
        if calibration is None:
            raise ValueError(
                "the fused backend requires calibration= for offline "
                "threshold profiling"
            )
        return FusedCacheBackend.from_calibration(
            calibration, config=config, mode=resolved
        )

    if calibration is not None:
        layers = len(calibration)
        if num_layers is not None and num_layers != layers:
            raise ValueError(
                f"num_layers={num_layers} disagrees with "
                f"{layers} calibration entries"
            )
    elif num_layers is not None:
        layers = num_layers
    else:
        raise ValueError("pass num_layers or calibration")

    key_quantizers = []
    value_quantizers = []
    for layer in range(layers):
        key_samples = value_samples = None
        if calibration is not None:
            keys, values = calibration[layer]
            key_samples = _as_runs(keys)
            value_samples = _as_runs(values)
        key_quantizers.append(
            _fit_quantizer(method, "key", key_samples, config, resolved)
        )
        value_quantizers.append(
            _fit_quantizer(
                method, "value", value_samples, config, resolved
            )
        )
    return BaselineCacheBackend(
        key_quantizers, value_quantizers, method=method, mode=resolved
    )


def shared_backend_factory(
    method: str,
    kind: str = "auto",
    *,
    num_layers: Optional[int] = None,
    calibration: Optional[Sequence[LayerCalibration]] = None,
    config: Optional[OakenConfig] = None,
    mode: ComputeModeLike = None,
) -> Callable[[], CacheBackend]:
    """A zero-argument backend factory with shared fitted quantizers.

    Calibration (threshold profiling / method fitting) runs **once**,
    here; every backend the returned factory produces shares the
    fitted per-layer quantizer objects, exactly as a serving system
    profiles a model offline once and serves many sequences with the
    result.  Shared quantizers are also what lets
    :meth:`repro.engine.KVCachePool.read_batch` merge the pending
    chunks of many sequences into one fused decode.

    Per-backend mutable state (scratch buffers, decode memos) is never
    shared; only the immutable fitted quantizers are: the factory is
    the fitted template's ``twin``.
    """
    return create_backend(
        method,
        kind,
        num_layers=num_layers,
        calibration=calibration,
        config=config,
        mode=mode,
    ).twin


def backend_for_model(
    model,
    method: str = "oaken",
    kind: str = "auto",
    calibration_tokens: Optional[np.ndarray] = None,
    config: Optional[OakenConfig] = None,
    mode: ComputeModeLike = None,
) -> CacheBackend:
    """Collect per-layer calibration KV from ``model`` and build.

    Args:
        model: a :class:`~repro.models.transformer.DecoderModel`.
        method / kind / config / mode: see
            :func:`create_backend`.
        calibration_tokens: [B, T] token batch run through the model
            to collect exact per-layer KV; required for methods with
            an offline phase.
    """
    calibration = None
    if calibration_tokens is not None:
        calibration = model.collect_layer_kv(
            np.atleast_2d(calibration_tokens)
        )
    return create_backend(
        method,
        kind,
        num_layers=model.shape.n_layers,
        calibration=calibration,
        config=config,
        mode=mode,
    )


__all__ = [
    "BACKEND_KINDS",
    "BASELINE_NAMES",
    "BaselineCacheBackend",
    "CacheBackend",
    "FusedCacheBackend",
    "available_methods",
    "backend_for_model",
    "create_backend",
    "create_quantizer",
    "shared_backend_factory",
]
