"""``repro analyze`` — summarize replay/cluster/bench JSON reports.

Reads one or more report files produced elsewhere in the toolkit
(``repro replay --json``, ``repro cluster --json``, ``repro bench
--out``), detects what each one is, and reduces it to the glossary
terms the docs talk about: speedups, tier pressure, prefix sharing
(fork counts and shared bytes saved), throughput and tail latency.
Human-readable table by default, ``--json`` for machines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict


def register(sub) -> None:
    analyze = sub.add_parser(
        "analyze",
        help="summarize replay/cluster/bench JSON reports into "
             "glossary metrics",
    )
    analyze.add_argument(
        "paths", nargs="+", metavar="REPORT",
        help="JSON report file(s): repro replay --json, "
             "repro cluster --json, or repro bench --out output",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit {\"reports\": [{path, kind, metrics}, ...]} JSON",
    )
    analyze.set_defaults(func=run)


def detect_kind(report: Dict[str, Any]) -> str:
    """Classify a loaded report dict by its signature keys."""
    if "benchmarks" in report:
        return "bench"
    if "per_replica" in report or "replicas" in report:
        return "cluster"
    if "generation_throughput" in report:
        return "replay"
    return "unknown"


def _tier_metrics(source: Dict[str, Any], out: Dict[str, float],
                  prefix: str = "tier_") -> None:
    for name in ("hits", "misses", "evictions", "spilled_bytes",
                 "promoted_bytes", "transfer_cycles"):
        key = prefix + name
        if key in source:
            out[key] = float(source[key])


def bench_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    from repro.bench.hotpath import iter_speedups

    metrics = {
        f"speedup.{path}": value for path, value in iter_speedups(report)
    }
    if metrics:
        metrics["speedup.min"] = min(metrics.values())
    return metrics


def cluster_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for key in ("replicas", "completed", "failed", "lost",
                "generated_tokens", "tokens_per_s",
                "generation_throughput", "total_time_s",
                "mean_latency_s", "p95_latency_s", "p99_queue_delay_s",
                "failovers", "requeues", "retries", "downtime_s",
                "forks", "shared_bytes_saved"):
        if key in report and report[key] is not None:
            metrics[key] = float(report[key])
    _tier_metrics(report, metrics)
    return metrics


def replay_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for key in ("batch", "effective_batch", "generated_tokens",
                "generation_throughput", "total_time_s",
                "mean_latency_s", "p95_latency_s", "p95_ttft_s"):
        if key in report and report[key] is not None:
            metrics[key] = float(report[key])
    detail = report.get("replay") or {}
    for key in ("forks", "shared_bytes_saved", "peak_pool_bytes",
                "gate_refusals"):
        if key in detail:
            metrics[key] = float(detail[key])
    _tier_metrics(detail, metrics)
    return metrics


_EXTRACTORS = {
    "bench": bench_metrics,
    "cluster": cluster_metrics,
    "replay": replay_metrics,
}


def summarize(path: str, report: Dict[str, Any]) -> Dict[str, Any]:
    kind = detect_kind(report)
    extractor = _EXTRACTORS.get(kind)
    metrics = extractor(report) if extractor else {}
    return {"path": path, "kind": kind, "metrics": metrics}


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{value:,.0f}"
    return f"{value:,.4f}"


def run(args: argparse.Namespace) -> int:
    import json

    summaries = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(report, dict):
            print(f"{path}: expected a JSON object report",
                  file=sys.stderr)
            return 2
        summaries.append(summarize(path, report))

    if args.json:
        print(json.dumps({"reports": summaries}, indent=2,
                         sort_keys=True))
        return 0

    for summary in summaries:
        print(f"{summary['path']} ({summary['kind']})")
        metrics = summary["metrics"]
        if not metrics:
            print("  (no recognized metrics)")
            continue
        width = max(len(name) for name in metrics)
        for name in sorted(metrics):
            print(f"  {name:<{width}}  {_format_value(metrics[name])}")
    return 0
