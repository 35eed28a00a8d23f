"""The perf-harness table: every hot-path benchmark as one :class:`Entry`.

Every timed entry pits the current optimized path against a frozen or
un-optimized twin — the fused kernels against the seed implementation
in :mod:`repro.core.reference`, batched pool calls against looped
ones, the arena against the chunked pool — so the reported speedups
stay meaningful as both sides evolve.  Scenario entries (``replay``,
``cluster``, ``tiering``, ``prefix_sharing``; defined in
:mod:`repro.bench.scenarios`) record one deterministic simulation
report instead.

:data:`ENTRIES` is the whole harness: a row declares its sizes, its
``setup``, its named variants, which variant pairs form each
``speedup_*`` key, its identity check and its summary lines;
:func:`repro.bench.runner.run_entry` does the warm-up, best-of-N
timing, identity assertion and result assembly for all of them.
Adding a benchmark is adding a row (see ``docs/benchmarks.md``).
Heavy subsystems are imported inside the setups so that mounting the
``bench`` flags on the CLI stays cheap.
"""

from __future__ import annotations

import json
import platform
import time
from functools import partial
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.bench.runner import (
    QF,
    Entry,
    at_least,
    run_entry,
    same,
    timed,
)
from repro.bench.scenarios import (
    CLUSTER,
    REPLAY,
    SHARING,
    TIERING,
    closed_trace,
    replay_trace,
)
from repro.core.config import OakenConfig
from repro.core.encoding import split_encoded
from repro.core.kvcache import QuantizedKVCache
from repro.core.quantizer import (
    LayerEncoder,
    OakenQuantizer,
    QuantizeScratch,
)
from repro.core.reference import ReferenceOakenQuantizer
from repro.core.thresholds import profile_thresholds
from repro.quant.bitpack import (
    _pack_bits_generic,
    _unpack_bits_generic,
    pack_bits,
    packed_nbytes,
    unpack_bits,
)

#: Default output file, matching the repo's BENCH_* trajectory naming.
DEFAULT_OUT = "BENCH_quant.json"


# -- encode_roundtrip ------------------------------------------------


def _encode_setup(tokens: int, dim: int) -> SimpleNamespace:
    """One [tokens, dim] matrix and the seed / fused / f32 kernels."""
    x = np.random.default_rng(0).standard_normal((tokens, dim))
    cfg = OakenConfig()
    thr = profile_thresholds([x[: min(tokens, 256)]], cfg)
    reference = ReferenceOakenQuantizer(cfg, thr)
    return SimpleNamespace(
        x=x,
        reference=reference,
        fused=OakenQuantizer(cfg, thr),
        fused_f32=OakenQuantizer(cfg, thr, mode="deploy_f32"),
        encoded=reference.quantize(x),
    )


_ENCODE = Entry(
    "encode_roundtrip",
    sizes={"tokens": QF(512, 4096), "dim": QF(512, 4096)},
    overridable=("tokens", "dim"),
    setup=_encode_setup,
    echo_repeats=True,
    variants={
        "seed_quantize": timed(lambda c: c.reference.quantize(c.x)),
        "seed_dequantize": timed(
            lambda c: c.reference.dequantize(c.encoded)
        ),
        "seed_roundtrip": timed(lambda c: c.reference.roundtrip(c.x)),
        "fused_quantize": timed(lambda c: c.fused.quantize(c.x)),
        "fused_dequantize": timed(
            lambda c: c.fused.dequantize(c.encoded)
        ),
        "fused_roundtrip": timed(lambda c: c.fused.roundtrip(c.x)),
        "fused_f32_roundtrip": timed(
            lambda c: c.fused_f32.roundtrip(c.x)
        ),
    },
    speedups={
        "quantize": ("seed_quantize", "fused_quantize"),
        "roundtrip": ("seed_roundtrip", "fused_roundtrip"),
        "roundtrip_f32": ("seed_roundtrip", "fused_f32_roundtrip"),
    },
    summary=lambda r: [
        f"encode roundtrip [{r['tokens']}, {r['dim']}]:",
        f"  seed    {r['seed_roundtrip_s']:.3f}s"
        f"  (quantize {r['seed_quantize_s']:.3f}s)",
        f"  fused   {r['fused_roundtrip_s']:.3f}s"
        f"  -> {r['speedup_roundtrip']:.1f}x",
        f"  fused32 {r['fused_f32_roundtrip_s']:.3f}s"
        f"  -> {r['speedup_roundtrip_f32']:.1f}x",
    ],
)


# -- encode_serving --------------------------------------------------

#: The ``EncodedKV`` arrays an encode emits (the identity check).
_ENCODED_ARRAYS = (
    "dense_codes", "middle_lo", "middle_hi", "band_lo", "band_hi",
    "sparse_token", "sparse_pos", "sparse_band", "sparse_side",
    "sparse_mag_code",
)


def _serving_setup(rows: Tuple[int, ...], dim: int, pairs: int):
    """One layer's fitted quantizers and a K+V row pair per size."""
    from repro.engine import SyntheticKVStream

    stream = SyntheticKVStream(dim, seed=0)
    ((keys, values),) = stream.calibration(1, 256)
    cfg = OakenConfig()
    key_q, value_q = (
        OakenQuantizer(cfg, profile_thresholds([x], cfg), mode="deploy_f32")
        for x in (keys, values)
    )
    return SimpleNamespace(
        pairs=pairs,
        blocks=[(stream.draw(n), stream.draw(n)) for n in rows],
        key_q=key_q,
        value_q=value_q,
        encoder=LayerEncoder(key_q, value_q),
        scratch=QuantizeScratch(),
    )


def _encode_pairs(ctx, stacked: bool):
    """``pairs`` K+V encodes at every size: one row-stacked kernel
    call per pair, or one ``quantize_into`` per tensor."""
    last = []
    start = time.perf_counter()
    for keys, values in ctx.blocks:
        for _ in range(ctx.pairs):
            if stacked:
                ((_, pair),) = ctx.encoder.encode_parts([keys], [values])
            else:
                pair = (
                    ctx.key_q.quantize_into(keys, ctx.scratch),
                    ctx.value_q.quantize_into(values, ctx.scratch),
                )
        last.append(pair)
    seconds = time.perf_counter() - start
    if stacked:
        # Off the clock: the [keys; values] encode as the two tensors'.
        last = [split_encoded(pair, [pair.num_tokens // 2]) for pair in last]
    return seconds, [
        [getattr(encoded, name) for name in _ENCODED_ARRAYS]
        for pair in last
        for encoded in pair
    ]


_ENCODE_SERVING = Entry(
    "encode_serving",
    sizes={"rows": (8, 64), "dim": 32, "pairs": QF(200, 2000)},
    setup=_serving_setup,
    passes=at_least(2),
    echo_repeats=True,
    variants={
        "per_tensor": partial(_encode_pairs, stacked=False),
        "stacked": partial(_encode_pairs, stacked=True),
    },
    speedups={"stacked": ("per_tensor", "stacked")},
    check=lambda o: {"encoded": same(o["stacked"], o["per_tensor"])},
    summary=lambda r: [
        f"encode serving K+V pairs {list(r['rows'])} x {r['dim']},"
        f" {r['pairs']} pairs each:",
        f"  per-tensor {r['per_tensor_s']:.3f}s"
        f"  stacked {r['stacked_s']:.3f}s"
        f"  -> {r['speedup_stacked']:.1f}x",
    ],
)


# -- generation ------------------------------------------------------


class _SeedCache:
    """The seed's cache, kept here as the ``generation`` row's slow
    side: one encoded chunk per append per tensor, and every chunk
    dequantized and concatenated again on every read (O(T) per step)."""

    def __init__(self, key_quantizers, value_quantizers):
        self.quantizers = list(zip(key_quantizers, value_quantizers))
        self.chunks = [([], []) for _ in self.quantizers]
        self.num_layers = len(self.quantizers)

    @property
    def length(self):
        return sum(chunk.num_tokens for chunk in self.chunks[0][0])

    def append(self, layer, keys, values):
        for quantizer, chunks, rows in zip(
            self.quantizers[layer], self.chunks[layer], (keys, values)
        ):
            chunks.append(quantizer.quantize(np.atleast_2d(rows)))

    def read(self, layer):
        return tuple(
            np.concatenate([quantizer.dequantize(c) for c in chunks])
            for quantizer, chunks in zip(
                self.quantizers[layer], self.chunks[layer]
            )
        )


def _generate(ctx, quantizer_cls, cache_cls, length=None):
    """One quantized-cache generation; only the decode loop is timed."""
    from repro.models.generation import generate_with_quantized_cache

    cfg = OakenConfig()
    quantizers = [
        [
            quantizer_cls(cfg, profile_thresholds([tensor], cfg))
            for tensor in layer
        ]
        for layer in ctx.calibration_kv
    ]
    cache = cache_cls(
        [keys for keys, _ in quantizers],
        [values for _, values in quantizers],
    )
    start = time.perf_counter()
    result = generate_with_quantized_cache(
        ctx.model, cache, length=length or ctx.steps, seed=0
    )
    return time.perf_counter() - start, result.tokens


#: The seed side re-decodes the entire cached history on every decode
#: step through the reference kernels (the O(T^2) behaviour); the
#: fused side streams appends and decodes each row once.
_GENERATION = {
    "seed": partial(
        _generate, quantizer_cls=ReferenceOakenQuantizer, cache_cls=_SeedCache
    ),
    "incremental": partial(
        _generate, quantizer_cls=OakenQuantizer, cache_cls=QuantizedKVCache
    ),
}


def _generation_setup(steps: int, model: str) -> SimpleNamespace:
    from repro.data.corpus import calibration_corpus
    from repro.models.config import get_model
    from repro.models.transformer import DecoderModel

    decoder = DecoderModel(get_model(model))
    calibration = calibration_corpus(decoder, batch=2, length=48)
    ctx = SimpleNamespace(
        model=decoder,
        steps=steps,
        calibration_kv=decoder.collect_layer_kv(
            np.atleast_2d(calibration)
        ),
    )
    # Warm numpy/allocator state on both sides with a short run (the
    # row sets warm=False: a full-size seed pass is ~50 s).
    for variant in _GENERATION.values():
        variant(ctx, length=min(8, steps))
    return ctx


_GENERATION_ENTRY = Entry(
    "generation",
    sizes={"model": "llama2-7b", "steps": QF(96, 512)},
    overridable=("steps",),
    setup=_generation_setup,
    variants=_GENERATION,
    speedups={"": ("seed", "incremental")},
    check=lambda o: {"tokens": same(o["seed"], o["incremental"])},
    # Best-of-N only at quick sizes; a full-size run is long,
    # internally averaged over hundreds of steps, and the committed
    # baseline is a --runs N merge anyway.
    passes=lambda repeats, quick: max(2, repeats) if quick else 1,
    warm=False,
    summary=lambda r: [
        f"generation {r['steps']} steps ({r['model']}):",
        f"  seed {r['seed_s']:.2f}s  incremental {r['incremental_s']:.2f}s"
        f"  -> {r['speedup']:.1f}x",
    ],
)


# -- pool_read / pool_append and their arena sweeps ------------------


def _pool_setup(batch, steps, dim, layers, adapter_method=None):
    """Shared fitted quantizers — the serving configuration."""
    from repro.engine import SyntheticKVStream, shared_backend_factory

    calibration = SyntheticKVStream(dim, seed=0).calibration(layers, 256)
    ctx = SimpleNamespace(
        batch=batch,
        steps=steps,
        dim=dim,
        layers=layers,
        fused=shared_backend_factory("oaken", calibration=calibration),
    )
    if adapter_method is not None:
        ctx.adapter = shared_backend_factory(
            adapter_method, "adapter", calibration=calibration
        )
    return ctx


def _pool_loop(
    ctx,
    measure: str,
    batched: bool = True,
    arena: bool = False,
    factory: str = "fused",
):
    """The stepped pool loop behind every ``pool_*`` row.

    ``steps`` generation iterations over ``batch`` resident sequences:
    each appends one new KV row per sequence per layer, then reads
    every layer's history back.  ``batched`` picks
    ``append_batch`` / ``read_batch`` over per-sequence ``append`` /
    ``read`` loops; ``measure`` names the timed part (``"append"``,
    ``"read"`` or ``"append+read"``) — the other runs untimed so both
    sides of a comparison do identical work outside the measurement.
    Returns the measured seconds and the final reads.
    """
    from repro.engine import KVCachePool, SyntheticKVStream

    pool = KVCachePool(getattr(ctx, factory), arena=arena)
    seq_ids = list(range(ctx.batch))
    for seq_id in seq_ids:
        pool.allocate(seq_id)
    stream = SyntheticKVStream(ctx.dim, seed=1)
    layers = range(ctx.layers)
    seconds = {"append": 0.0, "read": 0.0}
    reads = None
    for _ in range(ctx.steps):
        for layer in layers:
            keys = stream.draw(ctx.batch)
            values = stream.draw(ctx.batch)
            updates = [
                (seq_id, keys[i : i + 1], values[i : i + 1])
                for i, seq_id in enumerate(seq_ids)
            ]
            start = time.perf_counter()
            if batched:
                pool.append_batch(layer, updates)
            else:
                for seq_id, key_row, value_row in updates:
                    pool.append(seq_id, layer, key_row, value_row)
            seconds["append"] += time.perf_counter() - start
        start = time.perf_counter()
        if batched:
            reads = [pool.read_batch(layer, seq_ids) for layer in layers]
        else:
            reads = [
                [pool.read(seq_id, layer) for seq_id in seq_ids]
                for layer in layers
            ]
        seconds["read"] += time.perf_counter() - start
    # Arena row-slice views are only stable until the next pool
    # mutation; copy so the cross-variant comparison outlives the run.
    final = [[(k.copy(), v.copy()) for k, v in layer] for layer in reads]
    return sum(seconds[part] for part in measure.split("+")), final


_POOL_SIZES = {
    "batch": QF(8, 16), "steps": QF(24, 48), "dim": 64, "layers": 2,
}

_POOL_READ = Entry(
    "pool_read",
    sizes=_POOL_SIZES,
    setup=_pool_setup,
    passes=at_least(2),
    echo_repeats=True,
    variants={
        "looped": partial(_pool_loop, measure="read", batched=False),
        "batched": partial(_pool_loop, measure="read"),
    },
    speedups={"batched": ("looped", "batched")},
    check=lambda o: {"reads": same(o["batched"], o["looped"])},
    summary=lambda r: [
        f"pool reads batch={r['batch']} x {r['steps']} steps:",
        f"  looped {r['looped_s']:.3f}s  batched {r['batched_s']:.3f}s"
        f"  -> {r['speedup_batched']:.1f}x",
    ],
)

#: Adapter appends are lazy buffer copies (the quantize happens at
#: read), so the adapter variants time append *plus* the read that
#: makes the decoded history current: the looped side pays ``batch``
#: per-sequence [1, D] roundtrips per tensor, the batched side one
#: merged ``roundtrip_batch`` per tensor in ``read_batch``.
_POOL_APPEND = Entry(
    "pool_append",
    sizes={**_POOL_SIZES, "adapter_method": "atom"},
    setup=_pool_setup,
    passes=at_least(2),
    echo_repeats=True,
    variants={
        "looped": partial(_pool_loop, measure="append", batched=False),
        "batched": partial(_pool_loop, measure="append"),
        "adapter_looped": partial(
            _pool_loop, measure="append+read", batched=False,
            factory="adapter",
        ),
        "adapter_batched": partial(
            _pool_loop, measure="append+read", factory="adapter"
        ),
    },
    speedups={
        "batched": ("looped", "batched"),
        "adapter_batched": ("adapter_looped", "adapter_batched"),
    },
    check=lambda o: {
        "caches": same(o["batched"], o["looped"]),
        "adapter_caches": same(
            o["adapter_batched"], o["adapter_looped"]
        ),
    },
    summary=lambda r: [
        f"pool appends batch={r['batch']} x {r['steps']} steps:",
        f"  looped {r['looped_s']:.3f}s  batched {r['batched_s']:.3f}s"
        f"  -> {r['speedup_batched']:.1f}x",
        f"  adapter ({r['adapter_method']}): looped "
        f"{r['adapter_looped_s']:.3f}s  batched "
        f"{r['adapter_batched_s']:.3f}s"
        f"  -> {r['speedup_adapter_batched']:.1f}x",
    ],
)


def _pool_arena_row(parent: str, part: str, batch: int) -> Entry:
    """``parent.batchN``: batched chunked pool vs. the SoA arena.

    The batch-16 parents compare batched against looped calls; at
    serving batch sizes the remaining cost is per-chunk object
    traffic, which ``KVCachePool(arena=True)`` removes.  Quick mode
    shrinks the steps, never the batch axis — the committed
    ``speedup_arena`` paths must exist at quick sizes too.
    """
    return Entry(
        f"{parent}.batch{batch}",
        sizes={"batch": batch, "steps": QF(10, 32), "dim": 64, "layers": 2},
        setup=_pool_setup,
        passes=at_least(2),
        echo_repeats=True,
        variants={
            "batched": partial(_pool_loop, measure=part),
            "arena": partial(_pool_loop, measure=part, arena=True),
        },
        speedups={"arena": ("batched", "arena")},
        check=lambda o: {"reads": same(o["arena"], o["batched"])},
        summary=lambda r: [
            f"  arena batch={r['batch']}: chunked {r['batched_s']:.3f}s"
            f"  arena {r['arena_s']:.3f}s  -> {r['speedup_arena']:.1f}x"
        ],
    )


# -- baseline_read ---------------------------------------------------


def _baseline_setup(method: str, steps: int, dim: int) -> SimpleNamespace:
    from repro.engine import SyntheticKVStream
    from repro.engine.backend import create_quantizer

    calibration = [SyntheticKVStream(dim, seed=0).draw(256)]
    quantizers = {}
    for kind in ("key", "value"):
        quantizers[kind] = create_quantizer(method, kind)
        quantizers[kind].fit(calibration)
    return SimpleNamespace(
        method=method, steps=steps, dim=dim, quantizers=quantizers
    )


def _baseline_stream(ctx, amortized: bool):
    """Stream single-token appends, reading the history after each.

    The full side (kept here, not in the engine) re-applies the
    method's one-shot ``roundtrip`` to the entire [T, D] history every
    read — O(T) per step; the amortized side is the adapter backend,
    which keeps the rows the method's ``stable_prefix`` contract
    guarantees stable and re-quantizes only the window delta.  Only
    read time is measured.
    """
    from repro.engine import SyntheticKVStream
    from repro.engine.backend import BaselineCacheBackend

    quantizers = (ctx.quantizers["key"], ctx.quantizers["value"])
    backend = BaselineCacheBackend(
        *([q] for q in quantizers), method=ctx.method
    )
    stream = SyntheticKVStream(ctx.dim, seed=1)
    read_s = 0.0
    final = None
    for _ in range(ctx.steps):
        backend.append(0, stream.draw(1), stream.draw(1))
        start = time.perf_counter()
        if amortized:
            final = backend.read(0)
        else:
            final = tuple(
                np.asarray(q.roundtrip(s.matrix()), dtype=np.float32)
                for q, s in zip(quantizers, backend.layer_streams(0))
            )
        read_s += time.perf_counter() - start
    return read_s, final


_BASELINE_READ = Entry(
    "baseline_read",
    sizes={"method": "kivi", "steps": QF(128, 256), "dim": 64},
    setup=_baseline_setup,
    passes=at_least(2),
    echo_repeats=True,
    variants={
        "full": partial(_baseline_stream, amortized=False),
        "amortized": partial(_baseline_stream, amortized=True),
    },
    speedups={"amortized": ("full", "amortized")},
    check=lambda o: {"reads": same(o["amortized"], o["full"])},
    summary=lambda r: [
        f"baseline reads ({r['method']}, {r['steps']} steps):",
        f"  full {r['full_s']:.3f}s  amortized {r['amortized_s']:.3f}s"
        f"  -> {r['speedup_amortized']:.1f}x",
    ],
)


# -- replay.batchN: the arena wall-clock sweep -----------------------


def _replay_arena_extra(ctx, outputs, result) -> Dict[str, float]:
    # Recycling absorbs steady churn without a pass; the drain at the
    # end of a closed trace cannot be absorbed, so a replay that never
    # compacted never gave its buffers back.
    compactions = outputs["arena"].replay["arena_compactions"]
    if not compactions:
        raise AssertionError(
            f"batch-{ctx.max_batch} replay drained without the arena "
            "compacting"
        )
    tokens = float(outputs["arena"].generated_tokens)
    return {
        "requests": len(ctx.trace),
        "generated_tokens": tokens,
        "chunked_tokens_per_s": tokens / result["chunked_s"],
        "arena_tokens_per_s": tokens / result["arena_s"],
        "arena_compactions": float(compactions),
    }


def _replay_arena_row(batch: int) -> Entry:
    """``replay.batchN``: host wall clock of one replay, arena vs. chunked.

    One closed trace with enough requests to fill the resident cap and
    force retire/readmit churn.  The arena changes storage, never
    results, so the generated token counts must match; the speedup is
    the replay-visible share of the Python overhead the arena removes.
    """
    return Entry(
        f"replay.batch{batch}",
        sizes={
            "max_batch": batch, "inputs": QF(24, 32), "outputs": QF(16, 24),
        },
        setup=lambda max_batch, inputs, outputs: SimpleNamespace(
            max_batch=max_batch,
            trace=closed_trace(
                max_batch + max(8, max_batch // 8), inputs, outputs
            ),
        ),
        passes=at_least(2),
        echo_repeats=True,
        variants={
            "chunked": timed(lambda c: replay_trace(c.trace, c.max_batch)),
            "arena": timed(
                lambda c: replay_trace(c.trace, c.max_batch, arena=True)
            ),
        },
        speedups={"arena": ("chunked", "arena")},
        check=lambda o: {
            "tokens": o["arena"].generated_tokens
            == o["chunked"].generated_tokens
        },
        extra=_replay_arena_extra,
        summary=lambda r: [
            f"  arena batch={r['max_batch']:.0f}: chunked "
            f"{r['chunked_s']:.3f}s  arena {r['arena_s']:.3f}s"
            f"  -> {r['speedup_arena']:.2f}x "
            f"({r['arena_compactions']:.0f} compactions)"
        ],
    )


# -- analytic --------------------------------------------------------


def _analytic_setup(models, batches) -> SimpleNamespace:
    """The Figure 11-style (model x system x batch) grid."""
    from repro.experiments.fig11 import (
        FIG11_MODELS,
        FIG11_SYSTEMS,
        systems_for_model,
    )
    from repro.hardware.overheads import get_system
    from repro.hardware.sweep import GridPoint
    from repro.models.config import get_model

    start = time.perf_counter()
    models = FIG11_MODELS if models is None else models
    return SimpleNamespace(
        start=start,
        models=models,
        points=[
            GridPoint(model=model, system=name, batch=batch)
            for model in models
            for batch in batches
            for name in systems_for_model(model, FIG11_SYSTEMS)
        ],
        archs={name: get_model(name).arch for name in models},
        systems={name: get_system(name) for name in FIG11_SYSTEMS},
    )


def _analytic_scalar(ctx):
    """The per-point loop: one scalar entry-point call per grid cell
    (the same kernel as the grid, so the ratio is dispatch cost)."""
    from repro.hardware.perf import simulate_generation_run

    return [
        simulate_generation_run(
            ctx.systems[p.system], ctx.archs[p.model], p.batch
        )
        for p in ctx.points
    ]


def _analytic_grid(ctx):
    from repro.hardware.sweep import simulate_generation_grid

    return simulate_generation_grid(ctx.points)


_ANALYTIC_FIELDS = (
    "oom", "effective_batch", "tokens_per_s", "prefill_s", "generation_s",
)

_ANALYTIC = Entry(
    "analytic",
    sizes={
        "models": QF(("llama2-7b", "llama2-70b"), None),
        "batches": QF((16, 64, 256), (16, 32, 64, 128, 256)),
    },
    setup=_analytic_setup,
    passes=at_least(3),
    variants={
        "scalar": timed(_analytic_scalar),
        "vectorized": timed(_analytic_grid),
    },
    speedups={"vectorized": ("scalar", "vectorized")},
    # One kernel, two front ends: every cell must equal its scalar run
    # field-for-field under ``==``.
    check=lambda o: {
        "runs": all(
            getattr(run, name) == getattr(o["vectorized"].run(i), name)
            for i, run in enumerate(o["scalar"])
            for name in _ANALYTIC_FIELDS
        )
    },
    extra=lambda ctx, outputs, result: {
        "points": len(ctx.points),
        "models": len(ctx.models),
        "systems": len(ctx.systems),
        "batches": len(result["batches"]),
        "wall_s": time.perf_counter() - ctx.start,
    },
    summary=lambda r: [
        f"analytic sweep ({r['points']} grid points):",
        f"  scalar {r['scalar_s']:.3f}s"
        f"  vectorized {r['vectorized_s']:.4f}s"
        f"  -> {r['speedup_vectorized']:.1f}x (element-identical)",
    ],
)


# -- bitpack ---------------------------------------------------------


def _bitpack_row(width: int) -> Entry:
    """``bitpack.widthN``: byte-arithmetic fast path vs. the generic kernel."""

    def setup(count: int) -> SimpleNamespace:
        codes = np.random.default_rng(width).integers(
            0, 1 << width, size=count, dtype=np.uint32
        )
        return SimpleNamespace(
            codes=codes,
            count=count,
            nbytes=packed_nbytes(count, width),
            packed=pack_bits(codes, width),
        )

    return Entry(
        f"bitpack.width{width}",
        sizes={"count": QF(1 << 18, 1 << 22)},
        setup=setup,
        variants={
            "generic_pack": timed(
                lambda c: _pack_bits_generic(c.codes, width, c.nbytes)
            ),
            "fast_pack": timed(lambda c: pack_bits(c.codes, width)),
            "generic_unpack": timed(
                lambda c: _unpack_bits_generic(c.packed, width, c.count)
            ),
            "fast_unpack": timed(
                lambda c: unpack_bits(c.packed, width, c.count)
            ),
        },
        speedups={
            "pack": ("generic_pack", "fast_pack"),
            "unpack": ("generic_unpack", "fast_unpack"),
        },
        summary=lambda r: [
            f"  width{width}: pack {r['speedup_pack']:.1f}x"
            f"  unpack {r['speedup_unpack']:.1f}x"
        ],
    )


#: The harness, in summary order.  A ``parent.child`` row files its
#: result under its parent's dict and must follow it.
ENTRIES: Tuple[Entry, ...] = (
    _ENCODE,
    _ENCODE_SERVING,
    _GENERATION_ENTRY,
    _POOL_READ,
    _pool_arena_row("pool_read", "read", 64),
    _pool_arena_row("pool_read", "read", 128),
    _POOL_APPEND,
    _pool_arena_row("pool_append", "append", 64),
    _pool_arena_row("pool_append", "append", 128),
    _BASELINE_READ,
    REPLAY,
    _replay_arena_row(64),
    _replay_arena_row(128),
    CLUSTER,
    TIERING,
    SHARING,
    _ANALYTIC,
    Entry("bitpack", summary=lambda r: ["bitpack fast paths:"]),
    _bitpack_row(4),
    _bitpack_row(8),
)


def declared_speedups(entries: Tuple[Entry, ...] = ENTRIES) -> List[str]:
    """Dotted path of every ``speedup*`` key the table declares."""
    return [
        f"{entry.name}.{key}"
        for entry in entries
        for key in entry.speedup_keys()
    ]


def _nodes(
    benchmarks: Dict[str, object]
) -> Iterator[Tuple[Entry, Dict[str, object], str]]:
    """Each table row with its parent dict and leaf key in ``benchmarks``."""
    for entry in ENTRIES:
        *parents, leaf = entry.name.split(".")
        node = benchmarks
        for key in parents:
            node = node.get(key, {})
        yield entry, node, leaf


def run_benchmarks(
    quick: bool = False,
    out_path: Optional[str] = DEFAULT_OUT,
    tokens: Optional[int] = None,
    dim: Optional[int] = None,
    steps: Optional[int] = None,
    repeats: int = 3,
) -> Dict[str, object]:
    """Run every table row and optionally write ``BENCH_quant.json``.

    ``quick=True`` picks every row's quick sizes so the whole suite
    finishes in well under a minute (the CI smoke configuration);
    explicit ``tokens``/``dim``/``steps`` override the encode and
    generation sizes under either preset.

    ``repeats`` is the best-of-N pass count; rows with stepped loops
    declare a floor of two, so the smoke-size ``> 1.0`` gates stay
    load-independent even when a caller requests ``repeats=1`` for
    the kernels.
    """
    overrides = {"tokens": tokens, "dim": dim, "steps": steps}
    benchmarks: Dict[str, object] = {}
    for entry, node, leaf in _nodes(benchmarks):
        node[leaf] = run_entry(entry, quick, repeats, overrides)
    report: Dict[str, object] = {
        "schema": "repro.bench/v1",
        "generated_unix": time.time(),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benchmarks": benchmarks,
    }
    if out_path:
        write_report(report, out_path)
    return report


def merge_reports(reports: List[Dict[str, object]]) -> Dict[str, object]:
    """Best-of-several-runs merge of harness reports.

    Run-to-run noise on a shared container reads as regression if a
    single run is committed as the baseline; merging N runs takes the
    noise floor instead.  Leaf rule: keys ending in ``_s`` (wall-clock
    seconds) take the **min** across runs, keys starting with
    ``speedup`` take the **max**, and everything else (sizes, flags,
    provenance) comes from the last run.  Merged entries are therefore
    per-metric bests — a merged ``speedup_*`` need not equal the ratio
    of the merged ``_s`` fields next to it.
    """
    if not reports:
        raise ValueError("nothing to merge")

    def merge(dicts: List[Dict[str, object]]) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for key, last in dicts[-1].items():
            values = [d[key] for d in dicts if key in d]
            if isinstance(last, dict):
                out[key] = merge(
                    [v for v in values if isinstance(v, dict)]
                )
            elif (
                key.endswith("_s")
                and not isinstance(last, bool)
                and all(isinstance(v, (int, float)) for v in values)
            ):
                out[key] = min(values)
            elif (
                key.startswith("speedup")
                and all(isinstance(v, (int, float)) for v in values)
            ):
                out[key] = max(values)
            else:
                out[key] = last
        return out

    merged = merge(list(reports))
    merged["merged_runs"] = len(reports)
    return merged


def iter_speedups(report: Dict[str, object]):
    """Yield ``(dotted_path, value)`` for every ``speedup_*`` leaf."""

    def walk(node: Dict[str, object], prefix: str):
        for key, value in node.items():
            if isinstance(value, dict):
                yield from walk(value, f"{prefix}{key}.")
            elif key.startswith("speedup") and isinstance(
                value, (int, float)
            ):
                yield f"{prefix}{key}", float(value)

    benchmarks = report.get("benchmarks", {})
    if isinstance(benchmarks, dict):
        yield from walk(benchmarks, "")


def find_regressions(
    current: Dict[str, object],
    committed: Dict[str, object],
    factor: float,
) -> List[Tuple[str, float, float]]:
    """Speedup entries of ``current`` below ``factor`` x the committed.

    ``factor`` absorbs the systematic gap between CI smoke sizes /
    hardware and the committed full-size container run: a genuine
    hot-path loss collapses a speedup toward 1x, which any reasonable
    factor catches, while percent-level drift does not trip the gate.
    Entries present only on one side are ignored (new benchmarks do
    not fail the check retroactively).
    """
    current_speedups = dict(iter_speedups(current))
    regressions = []
    for path, reference in iter_speedups(committed):
        measured = current_speedups.get(path)
        if measured is not None and measured < reference * factor:
            regressions.append((path, measured, reference))
    return regressions


def missing_speedups(
    current: Dict[str, object], committed: Dict[str, object]
) -> List[str]:
    """Committed ``speedup_*`` entries the current run did not emit.

    A renamed or dropped benchmark would otherwise slip past
    :func:`find_regressions` silently — lost coverage must fail the
    gate just like a lost speedup.
    """
    current_speedups = dict(iter_speedups(current))
    return [
        path
        for path, _ in iter_speedups(committed)
        if path not in current_speedups
    ]


def write_report(report: Dict[str, object], path: str) -> None:
    """Write one harness report as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_summary(report: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a harness report.

    Each table row renders its own lines; rows a report does not
    carry (an older or partial report) are skipped.
    """
    return "\n".join(
        line
        for entry, node, leaf in _nodes(report["benchmarks"])
        if leaf in node
        for line in entry.summary(node[leaf])
    )
