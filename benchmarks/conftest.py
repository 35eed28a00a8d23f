"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper table/figure: it runs the
experiment, saves the rendered text table under ``results/`` (so the
rows survive pytest's output capture), and times a representative
kernel with pytest-benchmark.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory collecting the regenerated figure/table text files."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write one experiment's rendered table to results/<name>.txt."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}] saved to {path}\n{text}")
