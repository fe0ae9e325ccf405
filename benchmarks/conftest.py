"""Shared benchmark fixtures.

Every table/figure benchmark writes its rendered output under
``benchmarks/results/`` so regenerated artifacts are inspectable after
a ``pytest benchmarks/ --benchmark-only`` run. A bench's verdict is
its own asserts; the harness's own cost is ``benchmarks/hotpath``'s.

``pytest benchmarks/hotpath`` loads this file too, so it imports
nothing from ``repro``.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def save_result(results_dir):
    """Write one experiment's rendered output to results/<name>.txt."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _save
