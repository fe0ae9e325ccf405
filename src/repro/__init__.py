"""repro: a from-scratch Python reproduction of TailBench (IISWC 2016).

TailBench is a benchmark suite and evaluation methodology for
latency-critical applications. This package provides:

- :mod:`repro.core` — the load-testing harness (open-loop traffic
  shaping, instrumented request queue, statistics collection, the
  integrated/loopback/networked configurations, repeated-run
  methodology).
- :mod:`repro.apps` — the nine applications (the paper's eight:
  xapian, masstree, moses, sphinx, img-dnn, specjbb, silo, shore; plus
  vsearch), each built from scratch. Each loads on first use:
  ``import repro`` imports none of them.
- :mod:`repro.stats` — HDR histograms, quantile confidence intervals,
  samplers.
- :mod:`repro.sim` — a discrete-event simulator that runs the harness
  methodology in virtual time (the paper's "easy to simulate" mode).
- :mod:`repro.queueing` — M/G/1 and M/G/k analytic models.
- :mod:`repro.archsim` — cache-hierarchy and branch-predictor models
  for the microarchitectural characterization.
- :mod:`repro.workloads` — TPC-C, YCSB, and Zipfian query generators.
- :mod:`repro.faults` — seeded fault injection (transport/queue/
  worker/application) usable live or in the simulator.
- :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart::

    from repro import HarnessConfig, create_app, run_harness

    app = create_app("masstree")
    app.setup()
    result = run_harness(app, HarnessConfig(qps=200, measure_requests=1000))
    print(result.sojourn.describe())
"""

from .apps import app_names, create_app
from .core import (
    PAPER_SYSTEM,
    HarnessConfig,
    HarnessResult,
    ResilienceConfig,
    SystemConfig,
    run_campaign,
    run_harness,
)
from .faults import FaultPlan
from .stats import HdrHistogram, LatencySummary

__version__ = "1.0.0"

__all__ = [
    "app_names",
    "create_app",
    "HarnessConfig",
    "HarnessResult",
    "FaultPlan",
    "ResilienceConfig",
    "PAPER_SYSTEM",
    "SystemConfig",
    "run_campaign",
    "run_harness",
    "HdrHistogram",
    "LatencySummary",
    "__version__",
]
