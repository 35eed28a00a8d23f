"""The one runner behind every perf-harness entry.

A benchmark is an :class:`Entry` — a row of the table in
:mod:`repro.bench.hotpath` — and :func:`run_entry` is the only code
that times anything.  For every entry it resolves the ``(quick, full)``
sizes, builds the context, warms and times each named variant
(best-of-N), derives the declared ``speedup_*`` keys, applies the
identity check, and returns the result dict; the entry's ``summary``
renders that dict for the console.

A *variant* is ``fn(ctx) -> (seconds, output)``.  Stepped loops time
themselves (only part of each step is the measured path);
:func:`timed` wraps a plain call whose whole duration is the
measurement.  Scenario entries (a replay or cluster run whose report
*is* the result) are rows with one ``wall`` variant and an ``extra``
that returns the report — no A/B pair is invented for them, and a
``None`` speedup pair declares a ``speedup_*`` key the report itself
carries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

Variant = Callable[[object], Tuple[float, object]]
#: One variant name, or several whose seconds are summed.
Names = Union[str, Tuple[str, ...]]


class QF(NamedTuple):
    """A size that differs between ``--quick`` and full runs."""

    quick: object
    full: object


def at_least(floor: int) -> Callable[[int, bool], int]:
    """Pass policy: the requested repeats, but never fewer than ``floor``.

    Stepped-loop rows use a floor of two so their smoke-size ``> 1.0``
    gates stay load-independent under ``--repeats 1``.
    """
    return lambda repeats, quick: max(floor, repeats)


def once(repeats: int, quick: bool) -> int:
    """Pass policy of deterministic scenario rows: a single pass."""
    return 1


@dataclass(frozen=True)
class Entry:
    """One row of the bench table.

    ``name`` is the dotted path under ``report["benchmarks"]`` (a
    parent row must precede its ``parent.child`` rows).  ``sizes`` are
    constants or :class:`QF` pairs; the resolved values are echoed
    into the result and passed to ``setup(**sizes)``, whose return
    value is the context every variant receives (without a ``setup``
    the context is a namespace of the sizes).  ``overridable`` names
    the sizes a same-named CLI flag replaces.

    ``speedups`` maps a label to its ``(baseline, optimized)`` variant
    pair, emitted as ``speedup_<label>`` (bare ``speedup`` for the
    empty label); ``None`` instead of a pair declares a key that
    ``extra`` reports.  ``check(outputs)`` returns named identity
    flags — a false one aborts the run, a true one is recorded as
    ``<name>_identical``.  ``extra(ctx, outputs, result)`` adds
    derived metrics.

    ``passes(repeats, quick)`` is the number of timed passes per
    variant (:func:`at_least`, :func:`once`), each variant taking one
    untimed warm-up pass first unless ``warm`` is off.
    """

    name: str
    summary: Callable[[Dict[str, object]], List[str]]
    sizes: Mapping[str, object] = field(default_factory=dict)
    setup: Optional[Callable[..., object]] = None
    variants: Mapping[str, Variant] = field(default_factory=dict)
    speedups: Mapping[str, Optional[Tuple[Names, Names]]] = field(
        default_factory=dict
    )
    check: Optional[
        Callable[[Dict[str, object]], Dict[str, bool]]
    ] = None
    extra: Optional[Callable[..., Dict[str, object]]] = None
    overridable: Tuple[str, ...] = ()
    passes: Callable[[int, bool], int] = at_least(1)
    echo_repeats: bool = False
    warm: bool = True

    def speedup_keys(self) -> List[str]:
        """The ``speedup*`` result keys this row declares."""
        return [
            f"speedup_{label}" if label else "speedup"
            for label in self.speedups
        ]


def timed(fn: Callable[[object], object]) -> Variant:
    """A variant whose whole call is the measurement."""

    def variant(ctx):
        start = time.perf_counter()
        output = fn(ctx)
        return time.perf_counter() - start, output

    return variant


def scenario(
    name: str,
    run: Callable[[object], Dict[str, object]],
    summary: Callable[[Dict[str, object]], List[str]],
    sizes: Mapping[str, object],
    speedups: Tuple[str, ...] = (),
) -> Entry:
    """A row whose single ``wall`` variant returns the report itself.

    Simulation-time scenarios are deterministic for a fixed seed, so
    they run once, unwarmed; ``speedups`` names the ``speedup_*`` keys
    the report carries.
    """
    return Entry(
        name,
        summary,
        sizes=sizes,
        variants={"wall": timed(run)},
        speedups={label: None for label in speedups},
        extra=lambda ctx, outputs, result: outputs["wall"],
        passes=once,
        warm=False,
    )


def best_of(run: Callable[[], Tuple[float, object]], repeats: int):
    """Minimum seconds (with that pass's output) over ``repeats`` passes.

    One pass is one wall-clock sample, and under full-suite or CI host
    load a single scheduler hiccup on either side can push a genuine
    speedup below its smoke floor; the minimum of N independent passes
    converges on the noise floor instead, making the ``> 1.0`` gates
    load-independent.
    """
    best, final = float("inf"), None
    for _ in range(max(1, repeats)):
        seconds, output = run()
        if seconds < best:
            best, final = seconds, output
    return best, final


def same(a, b) -> bool:
    """Bit-identity of two arrays, or of two equally nested sequences."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return bool(np.array_equal(a, b))


def _seconds(result: Dict[str, object], names: Names) -> float:
    names = (names,) if isinstance(names, str) else names
    return sum(result[f"{name}_s"] for name in names)


def run_entry(
    entry: Entry,
    quick: bool = False,
    repeats: int = 3,
    overrides: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Time one table row and return its result dict."""
    sizes = {
        key: (value.quick if quick else value.full)
        if isinstance(value, QF)
        else value
        for key, value in entry.sizes.items()
    }
    for key in entry.overridable:
        if overrides and overrides.get(key) is not None:
            sizes[key] = overrides[key]
    passes = entry.passes(repeats, quick)
    ctx = entry.setup(**sizes) if entry.setup else SimpleNamespace(**sizes)
    result: Dict[str, object] = dict(sizes)
    if entry.echo_repeats:
        result["repeats"] = passes
    # Outputs nobody will inspect are dropped pass by pass: a
    # full-size encode output is 128 MB per variant.
    inspected = entry.check is not None or entry.extra is not None
    outputs: Dict[str, object] = {}
    for name, variant in entry.variants.items():

        def one_pass():
            seconds, output = variant(ctx)
            return seconds, output if inspected else None

        if entry.warm:
            variant(ctx)
        result[f"{name}_s"], outputs[name] = best_of(one_pass, passes)
    for key, pair in zip(entry.speedup_keys(), entry.speedups.values()):
        if pair is not None:
            baseline, optimized = (_seconds(result, n) for n in pair)
            result[key] = baseline / optimized if optimized > 0 else 0.0
    if entry.check is not None:
        for key, identical in entry.check(outputs).items():
            if not identical:
                raise AssertionError(
                    f"{entry.name}: {key} diverged between variants"
                )
            result[f"{key}_identical"] = True
    if entry.extra is not None:
        result.update(entry.extra(ctx, outputs, result))
    unreported = [k for k in entry.speedup_keys() if k not in result]
    if unreported:
        raise AssertionError(
            f"{entry.name}: declared but not reported: {unreported}"
        )
    return result
