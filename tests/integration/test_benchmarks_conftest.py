"""benchmarks/conftest.py is also the conftest `pytest benchmarks/hotpath`
loads: it must stay importable on its own and free of the legacy ledger."""

import pathlib
import subprocess
import sys

CONFTEST = pathlib.Path(__file__).parents[2] / "benchmarks" / "conftest.py"

_PROBE = """
import importlib.util, os, pathlib, sys
import pytest  # imported first: only the conftest's own reads are judged
del os.environ  # any environment read from here on raises
spec = importlib.util.spec_from_file_location("bench_conftest", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
assert callable(module.results_dir) and callable(module.save_result)
assert [n for n in dir(module) if n.startswith("save_")] == ["save_result"]
assert module.RESULTS_DIR == pathlib.Path(sys.argv[1]).parent / "results"
assert not [m for m in sys.modules if m.startswith("repro.experiments")]
"""


def test_conftest_loads_alone_without_the_legacy_ledger():
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(CONFTEST)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
