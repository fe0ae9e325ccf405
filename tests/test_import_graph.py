"""A run imports only what it runs.

The package, the harness core, the simulator and the CLI load none of
the nine applications, no numpy, no optional transport and no
:mod:`repro.obs`; ``create_app(name)`` loads that one app and nothing
else. Every check runs in a fresh interpreter, since this test
process has long since imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Modules that only the apps, the optional transports or the trace
#: tools need.
HEAVY = (
    "numpy",
    "repro.obs",
    "multiprocessing",
    "socket",
    "repro.core.transport.process",
    "repro.core.transport.loopback",
    "repro.core.transport.networked",
)


def _loaded(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; return the module names it
    left loaded, as ``{"before": [...], "after": [...]}`` around any
    ``MARK()`` call in ``body``."""
    probe = (
        "import json, sys\n"
        "marks = []\n"
        "def MARK():\n"
        "    marks.append(sorted(sys.modules))\n"
        f"{body}\n"
        "MARK()\n"
        "print(json.dumps({'before': marks[0], 'after': marks[-1]}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _heavy(modules) -> list:
    return sorted(
        m for m in modules
        if m in HEAVY or m.startswith(tuple(h + "." for h in HEAVY))
    )


def _apps(modules) -> list:
    return sorted(
        m for m in modules
        if m.startswith("repro.apps.") and m != "repro.apps.base"
    )


def test_package_core_and_sim_load_no_app_and_no_optional_module():
    loaded = _loaded("import repro, repro.core, repro.sim")["after"]
    assert _heavy(loaded) == []
    assert _apps(loaded) == []


def test_cli_loads_no_app_and_no_optional_module():
    loaded = _loaded("import repro.experiments.cli")["after"]
    assert _heavy(loaded) == []
    assert _apps(loaded) == []


def test_create_app_loads_only_that_app():
    loaded = _loaded(
        "import repro, repro.core, repro.sim\n"
        "MARK()\n"
        "repro.create_app('masstree')"
    )
    added = sorted(set(loaded["after"]) - set(loaded["before"]))
    # masstree draws its requests from the shared YCSB generator.
    assert [m for m in added if m.startswith("repro.")] == [
        m for m in added
        if m.startswith(("repro.apps.masstree", "repro.workloads"))
    ]
    assert "repro.apps.masstree" in added
    assert _heavy(added) == []


def test_sim_and_integrated_runs_load_no_optional_module():
    loaded = _loaded(
        "from repro import HarnessConfig, create_app, run_harness\n"
        "from repro.sim import SimConfig, simulate_app\n"
        "simulate_app('masstree', SimConfig(\n"
        "    qps=2000, warmup_requests=10, measure_requests=200, n_servers=2,\n"
        "    balancer='power_of_two'))\n"
        "app = create_app('masstree', n_records=200)\n"
        "app.setup()\n"
        "run_harness(app, HarnessConfig(\n"
        "    qps=4000, warmup_requests=10, measure_requests=100))"
    )["after"]
    assert _heavy(loaded) == []
    assert _apps(loaded) == [
        m for m in _apps(loaded) if m.startswith("repro.apps.masstree")
    ]


def test_queueing_loads_no_simulator():
    # The M/G/k baseline Fig. 8 checks the simulator against is the
    # FCFS recursion, not another simulation: queueing theory stands
    # on its own.
    loaded = _loaded(
        "import repro.queueing\n"
        "from repro.stats import Exponential\n"
        "repro.queueing.mgk_percentiles(\n"
        "    Exponential.from_mean(1e-3), qps=500.0, k=2,\n"
        "    measure_requests=200)"
    )["after"]
    assert [m for m in loaded if m.startswith("repro.sim")] == []
