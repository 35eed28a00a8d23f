"""Perf-regression harness for the quantized KV datapath.

This package times the repo's hot paths against their frozen or
un-optimized twins (the seed kernels in :mod:`repro.core.reference`,
looped pool calls, the chunked pool, the scalar analytic model) and
records the results in a machine-readable
``BENCH_quant.json``, giving every future PR a trajectory to beat.

Run it as a module::

    PYTHONPATH=src python -m repro.bench                 # full sizes
    PYTHONPATH=src python -m repro.bench --quick         # CI-sized
    PYTHONPATH=src python -m repro.bench --out my.json

The harness is **one table driven by one runner**:

:mod:`repro.bench.hotpath`
    ``ENTRIES`` — one :class:`~repro.bench.runner.Entry` row per
    benchmark, declaring its ``(quick, full)`` sizes, its ``setup``,
    its named timed variants, which variant pairs form each
    ``speedup_*`` key, its identity check and its summary lines.
    ``run_benchmarks`` walks the table; ``format_summary`` renders it;
    adding a benchmark edits the table and nothing else.  Every row is
    a timed A/B pair or a header grouping its children; deterministic
    simulation claims (replica scaling, prefetch, prefix sharing,
    engine cycles) are exact tier-1 test pins, not rows.

:mod:`repro.bench.runner`
    ``run_entry`` — the only code that times anything: warm-up,
    best-of-N passes, ``speedup_*`` derivation, identity assertion,
    result dict.

``docs/benchmarks.md`` is the glossary of every entry and key.

Interpretation: each entry carries absolute seconds and ``speedup_*``
ratios (baseline time / optimized time).  Regressions show up as a
speedup drop between two commits' ``BENCH_quant.json``; the smoke test
in ``tests/test_bench.py`` keeps the harness itself runnable in under
a minute at reduced sizes.  The module CLI enforces the rule
(``--check BENCH_quant.json``) and produces noise-floor baselines
(``--runs N`` best-of-runs merge).
"""

from repro.bench.hotpath import (
    find_regressions,
    format_summary,
    iter_speedups,
    merge_reports,
    missing_speedups,
    run_benchmarks,
    write_report,
)

__all__ = [
    "find_regressions",
    "format_summary",
    "iter_speedups",
    "merge_reports",
    "missing_speedups",
    "run_benchmarks",
    "write_report",
]
