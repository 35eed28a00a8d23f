"""End-to-end benchmark of the replay and cluster serving paths.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed S]
        [--seconds N] [--trace [0|1]] [--sets N] [--quick] [--out FILE]

One workload runs in this process: three timed set-ups, then identical
repetitions for ``--seconds`` seconds with tracing off (host time is
the median repetition), the output checks, and — with ``--trace 1`` —
traced repetitions interleaved with the untraced ones.  ``--workload
all`` (the default) and ``--sets N`` run each workload in its own
child process, so every ``peak_rss_mb`` is a clean process peak.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
SETUPS = 3
MIN_REPETITIONS = 3
DETERMINISTIC_RTOL = 1e-9


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _summary(values: List[float]) -> Dict[str, float]:
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= DETERMINISTIC_RTOL * max(abs(a), abs(b))


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


class Measurement:
    """Wall times and outcomes of one workload's repetitions."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.untraced_s: List[float] = []
        self.traced: List[Any] = []  # (wall seconds, Tracer)
        self.outcomes: List[Dict[str, float]] = []
        self.failures: List[str] = []
        self.peak_rss_mb = 0.0


def measure(args: argparse.Namespace, workloads):
    """Set up three times, then repeat for ``--seconds`` seconds.

    Returns the last set-up's :class:`workloads.Prepared` and the
    :class:`Measurement`.
    """
    run = Measurement()
    for _ in range(1 if args.quick else SETUPS):
        gc.collect()  # untimed; drops the previous set-up's modules
        start = time.perf_counter()
        prepared = workloads.set_up(args.workload, args.seed, args.quick)
        run.setup_s.append(time.perf_counter() - start)
    if args.trace:
        import tracer as tracer_mod

    def repetition(trace_it: bool) -> None:
        # Start every repetition from a collected heap, untimed: pools
        # and arenas are reference cycles, and when the collector gets
        # to the previous repetition's is otherwise a matter of chance
        # that shows in both the wall time and the peak RSS.
        gc.collect()
        if trace_it:
            tracer = tracer_mod.Tracer()
            with tracer.installed():
                start = time.perf_counter()
                report = prepared.repetition()
                wall = time.perf_counter() - start
            run.traced.append((wall, tracer))
            left = tracer.leftover_wrappers()
            if left:
                run.failures.append(f"wrappers left installed: {left}")
        else:
            start = time.perf_counter()
            report = prepared.repetition()
            run.untraced_s.append(time.perf_counter() - start)
        run.outcomes.append(workloads.outcome(prepared, report))

    # Traced mode alternates untraced / traced and ends untraced, so
    # the overhead is a paired comparison and the repetition after a
    # traced one shows the wrappers are gone.
    deadline = time.perf_counter() + args.seconds
    while True:
        repetition(False)
        enough = args.quick or len(run.untraced_s) >= MIN_REPETITIONS
        if args.trace and not run.traced:
            enough = False
        if enough and (args.quick or time.perf_counter() >= deadline):
            break
        if args.trace:
            repetition(True)
    run.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if not args.trace and "tracer" in sys.modules:
        run.failures.append("the untraced path imported the tracer")
    return prepared, run


def check_outputs(args, prepared, run) -> Dict[str, float]:
    """Output checks (a)-(c); returns the deterministic statistics."""
    first = run.outcomes[0]
    if any(other != first for other in run.outcomes[1:]):
        run.failures.append(
            "non-deterministic: simulated statistics differ between "
            "repetitions"
        )
    if (
        first["requests_ok"] != prepared.requests
        or first["requests_failed"] != 0
    ):
        run.failures.append(
            f"exactly-once violated: sent {prepared.requests}, ok "
            f"{first['requests_ok']}, failed {first['requests_failed']}"
        )
    if prepared.replay_kwargs is not None:
        from probe import read_probe

        probe = read_probe(
            prepared.replay_kwargs, args.seed, corrupt=args.corrupt_read
        )
        if probe["mismatches"]:
            run.failures.append(
                f"read probe: {probe['mismatches']} of {probe['reads']} "
                "reads differ from the one-shot roundtrip oracle"
            )
        first["kv_sqnr_db"] = probe["sqnr_db"]
    if args.seed == 0 and not args.quick:
        with open(HERE / "baseline.json") as handle:
            expected = json.load(handle)["expected"][args.workload]
        for key, want in expected.items():
            have = first.get(key)
            if have is None or not _close(have, want):
                run.failures.append(
                    f"seed-0 expected {key} = {want!r}, got {have!r}"
                )
    return first


def layer_metrics(prepared, run, deterministic, out_dir) -> Dict[str, float]:
    """Per-layer metrics of the traced repetition of median wall time
    (one repetition's numbers, so its self times sum to its own wall
    time); writes that repetition's span file."""
    run.traced.sort(key=lambda item: item[0])
    traced_wall, tracer = run.traced[(len(run.traced) - 1) // 2]
    metrics = tracer.metrics(
        wall_s=traced_wall,
        untraced_wall_s=statistics.median(run.untraced_s),
        generated_tokens=deterministic["generated_tokens"],
        requests=prepared.requests,
        kv_bits=deterministic.get("kv_bits", 0.0),
    )
    for key, metric in (
        ("sim_tok_s", "serving.sim_tok_s"),
        ("sim_ttft_p95_s", "serving.sim_ttft_p95_s"),
        ("sim_tpot_mean_s", "serving.sim_tpot_mean_s"),
        ("failovers", "serving.cluster.failovers"),
        ("requeues", "serving.cluster.requeues"),
        ("retries", "serving.cluster.retries"),
        ("detected_failures", "serving.cluster.detected_failures"),
        ("kv_bits", "engine.pool.kv_bits"),
        ("kv_sqnr_db", "core.quantizer.sqnr_db"),
    ):
        metrics[metric] = deterministic.get(key, 0.0)
    # ClusterReport does not carry the pool peak: read the largest
    # replica pool's from the traced repetition.
    metrics["engine.pool.peak_bytes"] = deterministic.get(
        "peak_pool_bytes",
        max((p.peak_bytes for p in tracer.pools.values()), default=0.0),
    )
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{prepared.name}.spans.jsonl")
    return metrics


def print_report(args, declared, prepared, run, end_to_end, deterministic,
                 per_layer) -> None:
    repetitions = len(run.outcomes)
    size = "quick" if args.quick else "full"
    print(f"== {args.workload}  seed {args.seed}  ({size} size) ==")
    print(
        f"requests_sent {prepared.requests}  "
        f"requests_ok {deterministic['requests_ok']}  "
        f"requests_failed {deterministic['requests_failed']}  "
        f"(each of {repetitions} repetitions)"
    )
    print("end-to-end, host time (median of n, [min .. max]):")
    for key, stats in end_to_end.items():
        meta = declared[key]
        print(
            f"  {key:<14}{stats['value']:>14.4f} {meta['unit']:<6}"
            f" n={stats['n']}  [{stats['min']:.4f} .. {stats['max']:.4f}]"
            f"  {meta['better']} is better, bound {meta['bound'] * 100:.0f} %"
        )
    print(
        "simulated time and KV statistics (deterministic: identical in "
        f"all {repetitions} repetitions):"
    )
    for key, value in deterministic.items():
        if not key.startswith("requests_"):
            print(f"  {key:<20}{value!r}")
    if per_layer:
        print("per-layer, host time of the median traced repetition:")
        for key, value in per_layer.items():
            print(f"  {key:<46}{value:>16.6g} {declared[key]['unit']}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    if not run.failures:
        print(
            "checks passed: exactly-once, determinism"
            + (", read probe" if prepared.replay_kwargs is not None else "")
            + (", seed-0 expected" if args.seed == 0 and not args.quick
               else "")
        )


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    prepared, run = measure(args, workloads)
    deterministic = check_outputs(args, prepared, run)
    tokens = deterministic["generated_tokens"]
    end_to_end = {
        "wall_tok_s": _summary([tokens / w for w in run.untraced_s]),
        "setup_s": _summary(run.setup_s),
        "peak_rss_mb": _summary([run.peak_rss_mb]),
    }
    per_layer = (
        layer_metrics(prepared, run, deterministic, OUT_DIR)
        if args.trace else {}
    )
    declared = {
        m["name"]: m for m in spec["end_to_end"]
        + (spec["per_layer"] if args.trace else [])
    }
    if sorted(declared) != sorted([*end_to_end, *per_layer]):
        sys.exit(
            "metrics out of step with BENCHMARK.json: "
            f"{sorted(set(declared) ^ {*end_to_end, *per_layer})}"
        )
    print_report(
        args, declared, prepared, run, end_to_end, deterministic, per_layer
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "quick": args.quick,
                "requests_sent": prepared.requests,
                "repetitions": len(run.outcomes),
                "end_to_end": end_to_end,
                "deterministic": deterministic,
                "per_layer": per_layer,
                "failures": run.failures,
            }, handle, indent=1, sort_keys=True)
    chosen = per_layer if args.trace else {
        key: stats["value"] for key, stats in end_to_end.items()
    }
    print(json.dumps({
        "correct": not run.failures,
        "attempted": prepared.requests * len(run.outcomes),
        "failed": sum(o["requests_failed"] for o in run.outcomes),
        "metrics": {
            key: {"value": value, "unit": declared[key]["unit"]}
            for key, value in chosen.items()
        },
    }))
    return 1 if run.failures else 0


# ----------------------------------------------------------------------
# every workload, one child process each
# ----------------------------------------------------------------------


def run_sets(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    sets: List[Dict[str, Dict[str, Any]]] = []
    ok = True
    for index in range(args.sets):
        results: Dict[str, Dict[str, Any]] = {}
        for name in names:
            out = OUT_DIR / f"{name}.set{index}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out),
            ]
            if args.quick:
                command.append("--quick")
            if args.corrupt_read:
                command.append("--corrupt-read")
            sys.stdout.flush()
            code = subprocess.run(command).returncode
            ok = ok and code == 0
            if out.exists():
                with open(out) as handle:
                    results[name] = json.load(handle)
        sets.append(results)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    if args.sets > 1:
        print(f"== agreement of {args.sets} sets (seed {args.seed}) ==")
        for name in names:
            runs = [s[name] for s in sets if name in s]
            for key, meta in bounds.items():
                values = [r["end_to_end"][key]["value"] for r in runs]
                # Worst against best: the same for either direction.
                gap = (max(values) - min(values)) / (
                    max(values) if meta["better"] == "higher"
                    else min(values)
                )
                agree = gap <= meta["bound"]
                ok = ok and agree
                shown = "  ".join(f"{v:.4f}" for v in values)
                print(
                    f"  {name:<24}{key:<13}{shown}  gap {gap * 100:5.1f} % "
                    f"of bound {meta['bound'] * 100:.0f} %  "
                    f"{'agree' if agree else 'DISAGREE'}"
                )
            same = all(
                r["deterministic"] == runs[0]["deterministic"] for r in runs
            )
            ok = ok and same
            print(
                f"  {name:<24}deterministic statistics "
                f"{'bit-identical' if same else 'DIFFER'}"
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "sets": sets}, handle, indent=1,
                      sort_keys=True)
    print("all workloads correct" if ok else "FAILED (see above)")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long the repetitions of one workload are measured",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add traced repetitions and report the per-layer metrics",
    )
    parser.add_argument(
        "--sets", type=int, default=1,
        help="run every workload N times and check the sets agree "
             "within each metric's bound",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one-fifth sizes, one set-up, one repetition (smoke test)",
    )
    parser.add_argument(
        "--out", default=None, help="write the results as JSON"
    )
    parser.add_argument(
        "--corrupt-read", action="store_true",
        help="self-test: corrupt one probe read; the run must fail",
    )
    args = parser.parse_args(argv)
    # One thread: the container has two cores and OpenBLAS is built
    # for 64 threads.  Set before numpy is first imported (by the
    # first set-up); child processes inherit it.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if args.workload == "all" or args.sets > 1:
        return run_sets(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
