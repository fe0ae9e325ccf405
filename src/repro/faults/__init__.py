"""Fault injection: seeded, composable partial-failure plans.

TailBench's methodology measures tails against a healthy server; this
package extends it to the regime real latency-critical systems live in
— partial failure. A :class:`FaultPlan` names what breaks (transport
drops/delays/duplicates, queue stalls, worker pauses/crashes,
application errors); a :class:`FaultInjector` samples it
deterministically from a seed. Both the live harness
(:func:`repro.core.harness.run_harness`) and the virtual-time
simulator (:func:`repro.sim.latency_sim.simulate_load`) accept the
same plan, so fault experiments can be debugged deterministically in
simulation and replayed for-real over threads and TCP. A
:class:`Scenario` sequences timed plan phases (chaos windows — see
:mod:`repro.faults.scenario`) played back on the run's scheduler —
the timer thread live, engine events in the simulator.
"""

from .injector import INJECTED_APP_ERROR, FaultInjector, TransportAction
from .plan import FaultPlan, StallWindow
from .scenario import (
    SCENARIOS,
    FaultPhase,
    Scenario,
    crash_recover,
    error_burst,
    retry_storm,
    scenario_names,
    slow_replica,
)

__all__ = [
    "FaultInjector",
    "FaultPhase",
    "FaultPlan",
    "INJECTED_APP_ERROR",
    "SCENARIOS",
    "Scenario",
    "StallWindow",
    "TransportAction",
    "crash_recover",
    "error_burst",
    "retry_storm",
    "scenario_names",
    "slow_replica",
]
