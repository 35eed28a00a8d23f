"""The ``repro`` command package — one module per subcommand.

Each module exposes ``register(sub)`` (mount its parser on the shared
subparsers object, ``set_defaults(func=...)``) and ``run(args)`` (the
implementation; heavy imports stay inside so ``--help`` is instant).
:func:`build_parser` and :func:`main` here are what ``python -m repro``
runs.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.commands import (
    analyze,
    bench,
    capacity,
    cluster,
    datapath,
    experiment,
    fabric,
    list_models,
    list_systems,
    overlap,
    quantize,
    replay,
    serve,
    throughput,
)

# Registration order is display order in --help: the ten original
# subcommands first (their historical order), then the new verbs.
_MODULES = (
    list_models,
    list_systems,
    quantize,
    throughput,
    capacity,
    datapath,
    fabric,
    overlap,
    replay,
    cluster,
    experiment,
    serve,
    bench,
    analyze,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Oaken (ISCA 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in _MODULES:
        module.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
