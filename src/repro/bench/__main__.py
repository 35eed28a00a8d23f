"""``python -m repro.bench`` — run the perf harness, write BENCH_quant.json.

Options mirror :func:`repro.bench.hotpath.run_benchmarks`; the default
invocation runs the full-size suite ([4096, 4096] encode, 512-step
generation) and writes ``BENCH_quant.json`` in the working directory.

Two additions back the repo's regression rule:

* ``--runs N`` repeats the whole suite N times and writes the
  best-of-runs merge (min seconds, max speedups per leaf) — the
  noise-floor baseline to commit, so run-to-run wobble does not read
  as regression against it.
* ``--check PATH`` compares every ``speedup_*`` entry of this run
  against a committed report and exits non-zero when one fell below
  ``--check-factor`` times its committed value — the CI smoke gate.
  A check writes no report unless ``--out`` is given, so gating
  against the committed ``BENCH_quant.json`` never overwrites it.

``python -m repro bench`` mounts the same flags via
:func:`add_arguments` and dispatches to the same :func:`run`, so the
two spellings cannot drift (pinned by ``tests/test_cli_commands.py``).
"""

from __future__ import annotations

import argparse
import sys


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Mount the bench flags on ``parser`` (shared by both spellings)."""
    from repro.bench.hotpath import DEFAULT_OUT

    parser.add_argument(
        "--out", default=None,
        help=f"output JSON path (default: {DEFAULT_OUT}; with --check, "
        "nothing is written unless --out is given)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes; finishes in well under a minute",
    )
    parser.add_argument(
        "--tokens", type=int, default=None,
        help="encode benchmark token count (rows)",
    )
    parser.add_argument(
        "--dim", type=int, default=None,
        help="encode benchmark KV width (columns)",
    )
    parser.add_argument(
        "--steps", type=int, default=None,
        help="generation benchmark step count",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of-N repeats for kernel timings (default 3)",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="run the whole suite N times and write the best-of-runs "
        "merge (min seconds / max speedups per entry)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare speedup_* entries against a committed report "
        "and exit 2 on regression",
    )
    parser.add_argument(
        "--check-factor", type=float, default=0.15,
        help="regression threshold: fail when a speedup falls below "
        "FACTOR x its committed value (default 0.15; absorbs "
        "quick-vs-full sizes and CI hardware variance — a lost hot "
        "path collapses toward 1x and always trips it)",
    )


def run(args: argparse.Namespace) -> int:
    import json

    from repro.bench.hotpath import (
        DEFAULT_OUT,
        find_regressions,
        format_summary,
        merge_reports,
        missing_speedups,
        run_benchmarks,
        write_report,
    )

    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return 2

    reports = []
    for index in range(args.runs):
        reports.append(
            run_benchmarks(
                quick=args.quick,
                out_path=None,
                tokens=args.tokens,
                dim=args.dim,
                steps=args.steps,
                repeats=args.repeats,
            )
        )
        if args.runs > 1:
            print(f"run {index + 1}/{args.runs} complete")
    report = reports[0] if args.runs == 1 else merge_reports(reports)

    # A check is read-only: it compares against the committed report
    # and writes only where --out explicitly says.
    out = args.out or (None if args.check else DEFAULT_OUT)
    if out:
        write_report(report, out)
    print(format_summary(report))
    if out:
        print(f"\nreport written to {out}")

    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            committed = json.load(handle)
        regressions = find_regressions(
            report, committed, args.check_factor
        )
        missing = missing_speedups(report, committed)
        if regressions or missing:
            print(
                f"\nREGRESSION vs {args.check} "
                f"(threshold {args.check_factor:.2f}x):"
            )
            for path, measured, reference in regressions:
                print(
                    f"  {path}: {measured:.2f}x "
                    f"(committed {reference:.2f}x, "
                    f"floor {reference * args.check_factor:.2f}x)"
                )
            for path in missing:
                print(
                    f"  {path}: missing from this run "
                    "(committed entry no longer emitted)"
                )
            return 2
        print(
            f"\nspeedup check vs {args.check} passed "
            f"(threshold {args.check_factor:.2f}x)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time the quantized-KV hot paths against the seed "
        "implementation and write a machine-readable report.",
    )
    add_arguments(parser)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
