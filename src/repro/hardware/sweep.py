"""Analytic serving sweeps: the grid front-end of :mod:`perf`.

Table 4 / Figure 11 style experiments evaluate whole grids of
(model x system x batch x context) points.  The iteration model in
:mod:`repro.hardware.perf` is already array math over a point axis;
this module resolves registry names to ``(ServingSystem, ArchShape)``
objects, lays their constants out as columns over a flat point list
and evaluates the kernel once per grid instead of once per cell.  A
grid cell and the scalar entry point for the same point run the same
kernel, so they are equal by construction in both
:class:`~repro.core.modes.ComputeMode` policies;
``tests/test_analytic_vectorized.py`` pins both to the frozen
Python-float oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.modes import (
    ComputeModeLike,
    EXACT_F64,
    resolve_compute_mode,
)
from repro.hardware.overheads import ServingSystem, get_system
from repro.hardware.perf import (
    GenerationColumns,
    GenerationRun,
    _KernelParams,
    _PairParams,
    _generation_arrays,
    _iteration_arrays,
    max_supported_batch,
)
from repro.models.config import ArchShape, get_model


@dataclass(frozen=True)
class GridPoint:
    """One (model, system, batch) cell of an analytic sweep."""

    model: str
    system: str
    batch: int


def grid_points(
    models: Sequence[str],
    systems: Sequence[str],
    batches: Sequence[int],
) -> List[GridPoint]:
    """Dense model x batch x system point list (Figure 11 loop order)."""
    return [
        GridPoint(model=model, system=system, batch=batch)
        for model in models
        for batch in batches
        for system in systems
    ]


def _grid_params(
    points: Sequence[GridPoint], dtype: np.dtype
) -> Tuple[
    _KernelParams,
    np.ndarray,
    Dict[Tuple[str, str], Tuple[ServingSystem, ArchShape]],
]:
    """Kernel parameter columns and batch column over ``points``, plus
    the resolved objects of each distinct (model, system) pair."""
    pairs = {
        key: (get_system(key[1]), get_model(key[0]).arch)
        for key in dict.fromkeys((p.model, p.system) for p in points)
    }
    rows = {key: _PairParams(*pair) for key, pair in pairs.items()}
    params = _KernelParams(
        [rows[(p.model, p.system)] for p in points], dtype
    )
    batch = np.array([p.batch for p in points], dtype=np.int64)
    return params, batch, pairs


def iteration_grid(
    points: Sequence[GridPoint],
    context: int,
    ragged: bool = False,
    mode: ComputeModeLike = None,
) -> Dict[str, np.ndarray]:
    """Batched :func:`perf.generation_iteration` over a point list.

    Returns the :class:`~repro.hardware.perf.IterationBreakdown`
    fields (plus ``total_s``) as arrays over the point axis.
    """
    mode = resolve_compute_mode(mode, default=EXACT_F64)
    params, batch, _ = _grid_params(points, mode.compute_dtype)
    return _iteration_arrays(params, batch, context, ragged)


@dataclass
class GenerationGrid(GenerationColumns):
    """Batched result of :func:`simulate_generation_grid`.

    Column arrays over the flat point axis; :meth:`run` materializes
    any point as the :class:`~repro.hardware.perf.GenerationRun` the
    scalar entry point returns for it.
    """

    points: List[GridPoint]
    mode: str
    input_tokens: int
    output_tokens: int

    def run(self, i: int) -> GenerationRun:
        """The scalar GenerationRun for point ``i``."""
        point = self.points[i]
        return self.run_at(i, point.system, point.batch)

    def runs(self) -> List[GenerationRun]:
        """Every point, materialized in order."""
        return [self.run(i) for i in range(len(self.points))]


def simulate_generation_grid(
    points: Sequence[GridPoint],
    input_tokens: int = 1024,
    output_tokens: int = 1024,
    ragged: bool = False,
    mode: ComputeModeLike = None,
) -> GenerationGrid:
    """Batched :func:`perf.simulate_generation_run` over a point list.

    The capacity gate (``max_supported_batch``) is integer and
    pair-static, so it is evaluated once per (model, system) pair;
    all per-point float math runs as array ops.
    """
    mode = resolve_compute_mode(mode, default=EXACT_F64)
    points = list(points)
    params, batch, pairs = _grid_params(points, mode.compute_dtype)
    fit_by_pair = {
        key: max_supported_batch(
            system, arch, input_tokens + output_tokens
        )
        for key, (system, arch) in pairs.items()
    }
    fit = np.array(
        [fit_by_pair[(pt.model, pt.system)] for pt in points],
        dtype=np.int64,
    )
    return GenerationGrid(
        points=points,
        mode=mode.name,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        **_generation_arrays(
            params, batch, fit, input_tokens, output_tokens, ragged
        ),
    )


def capacity_grid(
    systems: Sequence[str],
    model: str,
    contexts: Sequence[int],
) -> np.ndarray:
    """:func:`perf.max_supported_batch` over systems x contexts.

    Returns an int array of shape ``(len(systems), len(contexts))``.
    """
    arch = get_model(model).arch
    return np.array(
        [
            [
                max_supported_batch(get_system(name), arch, context)
                for context in contexts
            ]
            for name in systems
        ],
        dtype=np.int64,
    ).reshape(len(systems), len(contexts))


__all__ = [
    "GenerationGrid",
    "GridPoint",
    "capacity_grid",
    "grid_points",
    "iteration_grid",
    "simulate_generation_grid",
]
