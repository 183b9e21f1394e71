"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper and prints the
same rows/series the paper reports.  Scale is controlled by ``REPRO_FULL``:

* default — the full §5 parameter grid with 3 repeats (minutes);
* ``REPRO_FULL=1`` — the paper's exact 5-repeat protocol (longer);
* ``REPRO_SMOKE=1`` — a reduced grid for CI smoke runs.

The expensive miniMD/miniFE grids are computed once per session and
shared by the figure- and table-benches that consume them (Fig 4 / Fig 5 /
Table 2 share one grid, exactly as in the paper).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import figures


def scale() -> str:
    if os.environ.get("REPRO_FULL"):
        return "full"
    if os.environ.get("REPRO_SMOKE"):
        return "smoke"
    return "default"


def grid_params(kind: str) -> dict:
    s = scale()
    if kind == "minimd":
        if s == "full":
            return dict(proc_counts=(8, 16, 32, 64), sizes=(8, 16, 24, 32, 40, 48), repeats=5)
        if s == "smoke":
            return dict(proc_counts=(8, 32), sizes=(16, 32), repeats=2)
        return dict(proc_counts=(8, 16, 32, 64), sizes=(8, 16, 24, 32, 40, 48), repeats=3)
    if kind == "minife":
        if s == "full":
            return dict(proc_counts=(8, 16, 32, 48), sizes=(48, 96, 144, 256, 384), repeats=5)
        if s == "smoke":
            return dict(proc_counts=(8, 32), sizes=(96, 256), repeats=2)
        return dict(proc_counts=(8, 16, 32, 48), sizes=(48, 96, 144, 256, 384), repeats=3)
    raise ValueError(kind)


@pytest.fixture(scope="session")
def minimd_grid():
    """The Figure 4 strong-scaling run (shared with Fig 5 and Table 2)."""
    return figures.fig4(seed=42, gap_s=600.0, **grid_params("minimd"))


@pytest.fixture(scope="session")
def minife_grid():
    """The Figure 6 strong-scaling run (shared with Table 3)."""
    return figures.fig6(seed=43, gap_s=600.0, **grid_params("minife"))


def run_once(benchmark, fn):
    """Record a single timed execution (these are minutes-long workloads)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def merge_record(path: Path, section: str, payload: dict) -> None:
    """Read-modify-write one section of a BENCH_*.json record.

    Each bench test owns one section, so tests of one file can run in
    any subset and still leave the others' last results in place.
    """
    record = {}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            record = {}
    record[section] = payload
    path.write_text(json.dumps(record, indent=2) + "\n")


OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def emit(name: str, text: str) -> None:
    """Print a rendered artefact and persist it under benchmarks/output/.

    pytest captures stdout, so the files are the reliable place to read
    the regenerated tables/figures after a ``--benchmark-only`` run.
    """
    print()
    print(text)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
