"""The seeded golden corpus: what every simulated output must stay.

Two kinds of entry, both pinned byte for byte:

- the stdout of the four sim-only extension figures at ``--fast
  --seed 0`` (``figures/<name>.txt``);
- for each config of ``runs.json``, the run's
  :meth:`~repro.core.run.RunResult.fingerprint` (its measured samples
  as a digest), its virtual time and each replica's
  :class:`~repro.core.stage.QueueSnapshot` at the end of the run.

Most configs were drawn once, seeded, from the whole-config strategy of
``tests/sim/test_config_invariants.py`` at 1 100 requests; the rest are
pinned for the queue features that strategy never draws (admission
control, priority disciplines, priority x batching x stalls, the
autoscaler). Each config is stored as data, so the corpus does not move
when the strategy does.

Re-pin from the repository root after a change that is *meant* to move
a simulated output, and declare the diff it makes::

    PYTHONPATH=src python -m tests.golden.corpus            # outputs only
    PYTHONPATH=src python -m tests.golden.corpus --redraw   # configs too
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from repro.batching import BatchingConfig
from repro.control import (
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlaneConfig,
    PriorityConfig,
    RequestClassSpec,
)
from repro.core import (
    CacheConfig,
    FanoutConfig,
    ObservabilityConfig,
    ResilienceConfig,
)
from repro.faults import FaultPlan, StallWindow
from repro.health import HealthConfig
from repro.sim import SimConfig, latency_sim
from repro.sim.calibration import paper_profile

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
RUNS = HERE / "runs.json"
FIGURES = ("fig-fanout", "fig-cache", "fig-resilience", "fig-live")
#: Requests per drawn run: warmup + measured.
WARMUP, MEASURED = 100, 1000
N_DRAWN = 44
PROFILE = "masstree"

_TYPES = {
    cls.__name__: cls
    for cls in (
        SimConfig, FaultPlan, StallWindow, ResilienceConfig, BatchingConfig,
        FanoutConfig, CacheConfig, HealthConfig, ObservabilityConfig,
        ControlPlaneConfig, AdmissionConfig, PriorityConfig,
        RequestClassSpec, AutoscalerConfig,
    )
}


# -- configs as data --------------------------------------------------------

def encode(value):
    """A config as JSON data: each dataclass by its type and the fields
    that differ from its defaults; a tuple as a list."""
    if dataclasses.is_dataclass(value):
        name = type(value).__name__
        if _TYPES.get(name) is not type(value):
            raise TypeError(f"no corpus encoding for {name}")
        out = {"type": name}
        for f in dataclasses.fields(value):
            if not f.init:
                continue
            v = getattr(value, f.name)
            if f.default is not dataclasses.MISSING:
                default = f.default
            elif f.default_factory is not dataclasses.MISSING:
                default = f.default_factory()
            else:
                default = dataclasses.MISSING
            if v != default:
                out[f.name] = encode(v)
        return out
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no corpus encoding for {value!r}")


def decode(data):
    """The inverse of :func:`encode` (every list is a tuple)."""
    if isinstance(data, dict):
        fields = {k: decode(v) for k, v in data.items() if k != "type"}
        return _TYPES[data["type"]](**fields)
    if isinstance(data, list):
        return tuple(decode(v) for v in data)
    return data


# -- what a run leaves ------------------------------------------------------

def observe(config: SimConfig) -> dict:
    """Run ``config`` on the masstree profile; return what is pinned."""
    made = []
    real = latency_sim.SimulatedTransport

    def capture(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    latency_sim.SimulatedTransport = capture
    try:
        result = latency_sim.simulate_load(paper_profile(PROFILE), config)
    finally:
        latency_sim.SimulatedTransport = real
    samples, outcomes, routed = result.fingerprint()
    return {
        "samples": len(samples),
        "samples_sha256": hashlib.sha256(repr(samples).encode()).hexdigest(),
        "outcomes": outcomes,
        "routed_counts": list(routed),
        "virtual_time": result.virtual_time,
        "queues": [
            dataclasses.asdict(instance.queue.snapshot(result.virtual_time))
            for instance in made[0].instances
        ],
    }


def figure_stdout(name: str) -> str:
    """``tailbench <name> --fast --seed 0``'s stdout, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", name, "--fast",
         "--seed", "0"],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def figure_path(name: str) -> Path:
    return HERE / "figures" / f"{name}.txt"


# -- the configs ------------------------------------------------------------

def drawn_configs(n: int = N_DRAWN) -> List[SimConfig]:
    """``n`` distinct configs drawn once, seeded, from the whole-config
    strategy: every fourth of ``4 n`` draws, whose first ones are the
    strategy's simplest and repeat each other."""
    from hypothesis import HealthCheck, given, settings

    from tests.sim.test_config_invariants import _config, runs

    draws = []

    @given(draw=runs)
    @settings(
        max_examples=4 * n, deadline=None, derandomize=True, database=None,
        suppress_health_check=list(HealthCheck),
    )
    def collect(draw):
        draws.append(draw)

    collect()
    configs, seen = [], set()
    for draw in draws:
        config = dataclasses.replace(
            _config(draw), warmup_requests=WARMUP, measure_requests=MEASURED
        )
        key = json.dumps(encode(config), sort_keys=True)
        if key not in seen:
            seen.add(key)
            configs.append(config)
    step = max(1, len(configs) // n)
    return configs[::step][:n]


def pinned_configs() -> Dict[str, SimConfig]:
    """The queue features the strategy never draws, one config each."""
    mean = paper_profile(PROFILE).service.mean
    base = dict(
        warmup_requests=WARMUP, measure_requests=MEASURED, seed=7,
        qps=1.6 / mean,
    )
    classes = (
        RequestClassSpec("interactive", priority=1, weight=3.0, fraction=0.7),
        RequestClassSpec("batch", priority=0, weight=1.0, fraction=0.3),
    )
    stalls = FaultPlan(queue_stalls=(
        StallWindow(0.01, 20 * mean), StallWindow(0.08, 40 * mean),
    ))
    batching = BatchingConfig(
        enabled=True, max_batch_size=4, max_batch_delay=3 * mean
    )

    def control(**kwargs) -> ControlPlaneConfig:
        return ControlPlaneConfig(
            enabled=True, tick_interval=50 * mean, **kwargs
        )

    return {
        "admission-codel": SimConfig(**base, control=control(
            admission=AdmissionConfig(
                target_p99=1.0, codel_target=5 * mean,
                codel_interval=50 * mean,
            ),
        )),
        "admission-aimd": SimConfig(**base, control=control(
            admission=AdmissionConfig(
                target_p99=10 * mean, codel_target=1.0, codel_interval=1.0,
                initial_limit=32,
            ),
        )),
        "admission-capacity-stalls": SimConfig(
            **base, queue_capacity=8, faults=stalls, control=control(
                admission=AdmissionConfig(
                    target_p99=20 * mean, codel_target=5 * mean,
                    codel_interval=50 * mean, initial_limit=16,
                ),
            ),
        ),
        "priority-strict": SimConfig(**base, control=control(
            priority=PriorityConfig(classes=classes, mode="strict"),
        )),
        "priority-weighted": SimConfig(**base, queue_capacity=12, control=control(
            priority=PriorityConfig(classes=classes, mode="weighted"),
        )),
        "priority-batching-stalls": SimConfig(
            **dict(base, n_threads=2, qps=3.0 / mean), faults=stalls,
            batching=batching, queue_capacity=16, control=control(
                priority=PriorityConfig(classes=classes, mode="weighted"),
            ),
        ),
        "batching-stalls-strict": SimConfig(
            **dict(base, n_servers=2, balancer="jsq", qps=3.0 / mean),
            faults=stalls, batching=batching, control=control(
                priority=PriorityConfig(classes=classes, mode="strict"),
                admission=AdmissionConfig(
                    target_p99=20 * mean, codel_target=5 * mean,
                    codel_interval=50 * mean,
                ),
            ),
        ),
        "autoscaler": SimConfig(
            **dict(base, measure_requests=3000), control=control(
                autoscaler=AutoscalerConfig(
                    max_servers=3, scale_up_depth=4.0, cooldown=100 * mean,
                    hysteresis_ticks=2,
                ),
            ),
        ),
    }


def load_runs() -> List[dict]:
    return json.loads(RUNS.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--redraw", action="store_true",
        help="draw the configs again instead of keeping runs.json's",
    )
    args = parser.parse_args(argv)
    if args.redraw or not RUNS.exists():
        named = [(f"drawn-{i:02d}", c) for i, c in enumerate(drawn_configs())]
        named += sorted(pinned_configs().items())
        entries = [{"name": n, "config": encode(c)} for n, c in named]
    else:
        entries = [
            {"name": e["name"], "config": e["config"]} for e in load_runs()
        ]
    for entry in entries:
        entry["observed"] = observe(decode(entry["config"]))
    RUNS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    figure_path(FIGURES[0]).parent.mkdir(exist_ok=True)
    for name in FIGURES:
        figure_path(name).write_text(figure_stdout(name))
    print(f"pinned {len(entries)} runs and {len(FIGURES)} figures under {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
