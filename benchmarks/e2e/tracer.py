"""Span tracing from the benchmark's side of the layer boundaries.

The program under test contains no instrumentation, so the traced
repetition wraps the public functions at each layer boundary from
here: :meth:`Tracer.installed` is a context manager that replaces the
listed attributes with timing wrappers and restores the originals on
exit.  Only boundaries called at most ~1e5 times a repetition are
wrapped — never ``EncodedKV.nbytes``-class leaves — so the traced
repetition stays within ~15 % of an untraced one.

While the repetition runs a span is three numbers appended to one
flat list — name id, start, end — because in place a wrapper costs
most of a microsecond and the analytic cluster path crosses four
boundaries in a 25 us iteration.  Everything else is worked out when
the repetition has ended: the parent (spans nest, and are recorded in
start order, so the parent is the innermost span still open at the
start), and the identifier that spans of one iteration share — the
iteration index (``plan_iteration`` entries so far) and the scheduler
ordinal (which replica's scheduler planned or completed last).  A
span's self time is its duration minus its child spans' durations.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_FIELDS = 3
_NAME, _START, _END = range(_FIELDS)
_MARK = "_e2e_span"

#: Every span name the tracer can record, grouped by layer.  Fixed, so
#: a workload that never reaches a layer reports zeros for it.
OPS: Dict[str, Tuple[str, ...]] = {
    "serving.scheduler": ("plan_iteration", "complete_iteration"),
    "serving.simulator": ("iteration_time_s", "simulate_trace"),
    "serving.cluster": ("simulate_cluster",),
    "hardware.perf": ("generation_iteration", "prefill_time"),
    "engine.synthetic": ("draw",),
    "engine.pool": (
        "append_batch", "read_batch", "append", "measure", "fork",
        "allocate", "free",
    ),
    "engine.arena": (
        "append_batch", "decode_pending", "free", "seq_footprint",
    ),
    "engine.tiering": ("record_append", "record_read", "release"),
    "core.quantizer": ("quantize", "dequantize"),
    "core.kvcache": ("nbytes",),
}
#: The two entry points: their self time is reported under its own
#: name (``driver_self_s`` / ``loop_self_s``), not as an op triple.
_ROOTS = {
    "serving.simulator.simulate_trace": "serving.simulator.driver_self_s",
    "serving.cluster.simulate_cluster": "serving.cluster.loop_self_s",
}


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Records spans and boundary counts for one traced repetition."""

    def __init__(self) -> None:
        self.buffer: List[float] = []
        self.names: List[str] = []
        # The scheduler behind every plan_iteration / complete_iteration
        # span, in span order.  Holding the objects also keeps a crashed
        # replica's scheduler and pool alive until their counters are
        # read, when the repetition has ended.
        self._scheduler_calls: List[Any] = []
        self.pools: Dict[int, Any] = {}
        self.counts: Dict[str, float] = {
            "draw_rows": 0.0, "rows_enc": 0.0, "rows_dec": 0.0,
            "bytes_in": 0.0, "enc_elements": 0.0, "fork_rows": 0.0,
            "append_rows": 0.0,
        }

    # -- wrapping ------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[..., None]] = None,
        receivers: Optional[List[Any]] = None,
    ) -> Callable:
        """The timing wrapper for ``fn``.

        ``before`` is called with the call's own arguments;
        ``receivers`` collects the object each call is made on.  The
        two schedulers' methods run once per ~25 us iteration on the
        analytic path, where a hook call would cost as much as the
        span, hence the plain list.
        """
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        buffer, clock = self.buffer, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            elif receivers is not None:
                receivers.append(args[0])
            index = len(buffer)
            buffer.extend((name_id, clock(), 0.0))
            try:
                return fn(*args, **kwargs)
            finally:
                buffer[index + _END] = clock()

        setattr(wrapper, _MARK, name)
        return wrapper

    def _see_pool(self, pool, *args, **kwargs) -> None:
        self.pools[id(pool)] = pool

    # The hooks below take the wrapped method's own parameter names,
    # so a call that passes them by keyword still lands.

    def _before_pool_append(self, pool, seq_id, layer, keys, values):
        self.pools[id(pool)] = pool
        # A fork covers every layer at once; count prompt rows likewise.
        if layer == 0:
            self.counts["append_rows"] += np.atleast_2d(keys).shape[0]

    def _before_fork(self, pool, parent_seq_id, new_seq_id, prefix_len):
        self.pools[id(pool)] = pool
        self.counts["fork_rows"] += prefix_len

    def _before_draw(self, stream, n) -> None:
        self.counts["draw_rows"] += n

    def _before_quantize(self, quantizer, values, scratch=None) -> None:
        values = np.asarray(values)
        self.counts["rows_enc"] += values.shape[0]
        self.counts["enc_elements"] += values.size
        self.counts["bytes_in"] += values.nbytes

    def _before_dequantize(self, quantizer, encoded) -> None:
        self.counts["rows_dec"] += encoded.num_tokens

    def _targets(self):
        """``(owner, attribute, span name, before, receivers)`` per
        wrapper."""
        from repro.core.kvcache import QuantizedKVCache
        from repro.core.quantizer import OakenQuantizer
        from repro.engine import (
            KVArena,
            KVCachePool,
            SyntheticKVStream,
            TieredKVStore,
        )
        from repro.hardware import perf
        from repro.serving import cluster, simulator
        from repro.serving.scheduler import ContinuousBatchScheduler

        sched = ContinuousBatchScheduler
        for op in OPS["serving.scheduler"]:
            yield (sched, op, f"serving.scheduler.{op}", None,
                   self._scheduler_calls)
        # ``from ... import`` bound these names in each importing
        # module, so every binding the two paths call is patched.
        for module in (simulator, cluster):
            yield (module, "iteration_time_s",
                   "serving.simulator.iteration_time_s", None, None)
        yield (simulator, "simulate_trace",
               "serving.simulator.simulate_trace", None, None)
        yield (cluster, "simulate_cluster",
               "serving.cluster.simulate_cluster", None, None)
        for module in (perf, simulator):
            for op in OPS["hardware.perf"]:
                yield (module, op, f"hardware.perf.{op}", None, None)
        yield (SyntheticKVStream, "draw", "engine.synthetic.draw",
               self._before_draw, None)
        befores = {
            "append": self._before_pool_append, "fork": self._before_fork,
        }
        for op in OPS["engine.pool"]:
            yield (KVCachePool, op, f"engine.pool.{op}",
                   befores.get(op, self._see_pool), None)
        for op in OPS["engine.arena"]:
            yield (KVArena, op, f"engine.arena.{op}", None, None)
        for op in OPS["engine.tiering"]:
            yield (TieredKVStore, op, f"engine.tiering.{op}", None, None)
        for attribute in ("quantize", "quantize_into"):
            yield (OakenQuantizer, attribute, "core.quantizer.quantize",
                   self._before_quantize, None)
        yield (OakenQuantizer, "dequantize", "core.quantizer.dequantize",
               self._before_dequantize, None)
        for attribute in ("nbytes", "effective_bitwidth"):
            yield (QuantizedKVCache, attribute, "core.kvcache.nbytes",
                   None, None)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes."""
        saved = []
        try:
            for owner, attribute, name, before, receivers in (
                self._targets()
            ):
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(
                    owner, attribute,
                    self._wrap(original, name, before, receivers),
                )
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def leftover_wrappers(self) -> List[str]:
        """Names of attributes still wrapped (must be empty after
        :meth:`installed` exits)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attribute}"
            for owner, attribute, _, _, _ in self._targets()
            if hasattr(vars(owner)[attribute], _MARK)
        ]

    # -- reduction -----------------------------------------------------

    def spans(self):
        """``(span number, name, parent span number or -1, start, end)``
        in start order."""
        buffer = self.buffer
        open_spans: List[Tuple[int, float]] = []  # (number, end)
        for number in range(len(buffer) // _FIELDS):
            name_id, start, end = buffer[
                number * _FIELDS : (number + 1) * _FIELDS
            ]
            # The clock never repeats a reading across two calls, so a
            # span that ended at or before this start is closed.
            while open_spans and open_spans[-1][1] <= start:
                open_spans.pop()
            parent = open_spans[-1][0] if open_spans else -1
            open_spans.append((number, end))
            yield number, self.names[name_id], parent, start, end

    def metrics(
        self,
        wall_s: float,
        untraced_wall_s: float,
        generated_tokens: int,
        requests: int,
        kv_bits: float,
    ) -> Dict[str, float]:
        """Every per-layer metric of the traced repetition."""
        spans = list(self.spans())
        children = [0.0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                children[parent] += end - start
        by_name: Dict[str, List[float]] = {}  # calls, total_s, self_s

        def calls(name: str) -> float:
            return by_name.get(name, (0,))[0]

        plan_starts = []
        for number, name, _, start, end in spans:
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children[number]
            if name == "serving.scheduler.plan_iteration":
                plan_starts.append(start)

        out: Dict[str, float] = {}
        attributed = 0.0
        for layer, ops in OPS.items():
            layer_self = 0.0
            for op in ops:
                name = f"{layer}.{op}"
                n, total_s, own_s = by_name.get(name, (0, 0.0, 0.0))
                layer_self += own_s
                if name in _ROOTS:
                    out[_ROOTS[name]] = own_s
                    continue
                out[f"{name}.calls"] = n
                out[f"{name}.total_s"] = total_s
                out[f"{name}.self_s"] = own_s
            out[f"{layer}.self_frac"] = _ratio(layer_self, wall_s)
            attributed += layer_self

        counts = self.counts
        gaps = sorted(
            (b - a) * 1e3 for a, b in zip(plan_starts, plan_starts[1:])
        )
        out["serving.scheduler.iter_wall_ms_p50"] = _percentile(gaps, 0.50)
        out["serving.scheduler.iter_wall_ms_p99"] = _percentile(gaps, 0.99)
        # Every completed iteration generates one token per resident.
        out["serving.scheduler.batch_mean"] = _ratio(
            generated_tokens, calls("serving.scheduler.complete_iteration")
        )
        schedulers = {id(s): s for s in self._scheduler_calls}
        out["serving.scheduler.gate_refusals"] = sum(
            s.gate_refusals for s in schedulers.values()
        )
        out["serving.cluster.us_per_request"] = _ratio(
            out["serving.cluster.loop_self_s"] * 1e6, requests
        )
        out["engine.synthetic.rows"] = counts["draw_rows"]

        summaries = [pool.summary() for pool in self.pools.values()]

        def pooled(key: str) -> float:
            return sum(s.get(key, 0.0) for s in summaries)

        out["engine.pool.batched_encodes"] = pooled("batched_encodes")
        out["engine.pool.batched_decodes"] = pooled("batched_decodes")
        out["engine.pool.rows_per_encode"] = _ratio(
            counts["rows_enc"], calls("core.quantizer.quantize")
        )
        compactions = pooled("arena_compactions")
        out["engine.arena.compactions"] = compactions
        out["engine.arena.compactions_per_free"] = _ratio(
            compactions, calls("engine.arena.free")
        )
        out["engine.arena.capacity_bytes"] = pooled("arena_capacity_bytes")
        out["engine.arena.occupancy"] = _ratio(
            sum(
                s["peak_bytes"] for s in summaries
                if "arena_capacity_bytes" in s
            ),
            out["engine.arena.capacity_bytes"],
        )
        out["engine.sharing.forks"] = pooled("forks")
        out["engine.sharing.shared_bytes_saved"] = pooled(
            "shared_bytes_saved"
        )
        out["engine.sharing.fork_row_frac"] = _ratio(
            counts["fork_rows"],
            counts["fork_rows"] + counts["append_rows"],
        )
        hits, misses = pooled("tier_hits"), pooled("tier_misses")
        out["engine.tiering.hit_rate"] = _ratio(hits, hits + misses)
        out["engine.tiering.evictions"] = pooled("tier_evictions")
        out["engine.tiering.spilled_bytes"] = pooled("tier_spilled_bytes")
        out["engine.tiering.transfer_cycles_per_tok"] = _ratio(
            pooled("tier_transfer_cycles"), generated_tokens
        )
        out["core.quantizer.rows_enc"] = counts["rows_enc"]
        out["core.quantizer.rows_dec"] = counts["rows_dec"]
        out["core.quantizer.us_per_row_enc"] = _ratio(
            out["core.quantizer.quantize.self_s"] * 1e6, counts["rows_enc"]
        )
        out["core.quantizer.us_per_row_dec"] = _ratio(
            out["core.quantizer.dequantize.self_s"] * 1e6,
            counts["rows_dec"],
        )
        # Computed from tensor shapes and the measured bits/element,
        # not measured: what the encoder reads and what it stores.
        out["core.quantizer.bytes_in"] = counts["bytes_in"]
        out["core.quantizer.bytes_out"] = (
            counts["enc_elements"] * kv_bits / 8.0
        )
        out["core.quantizer.kernel_frac"] = out["core.quantizer.self_frac"]
        out["trace.wall_s"] = wall_s
        out["trace.overhead_frac"] = wall_s / untraced_wall_s - 1.0
        out["trace.unattributed_frac"] = 1.0 - attributed / wall_s
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order.

        ``iteration`` counts ``plan_iteration`` entries up to and
        including the span's own start; ``scheduler`` is the ordinal
        (by first appearance) of the scheduler that planned or
        completed last — together the identifier that the spans of one
        iteration of one replica share.
        """
        scheduler_names = {
            f"serving.scheduler.{op}" for op in OPS["serving.scheduler"]
        }
        ordinals: Dict[int, int] = {}
        calls = iter(self._scheduler_calls)
        iteration = scheduler = -1
        with open(path, "w") as handle:
            for number, name, parent, start, end in self.spans():
                if name in scheduler_names:
                    scheduler = ordinals.setdefault(
                        id(next(calls)), len(ordinals)
                    )
                    if name.endswith("plan_iteration"):
                        iteration += 1
                handle.write(json.dumps({
                    "span": number,
                    "name": name,
                    "parent": parent if parent >= 0 else None,
                    "iteration": iteration,
                    "scheduler": scheduler,
                    "start_s": start,
                    "end_s": end,
                }) + "\n")
