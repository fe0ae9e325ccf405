"""Energy modelling: DVFS policies, sleep states, power accounting.

The extension layer the paper motivates: TailBench exists so that
techniques like fast DVFS [Rubik, Adrenaline] and deep idle states
[PowerNap] can be evaluated against tail latency. This package
provides those mechanisms as a stage of the simulator's one server
model, with a relative power model, so energy-vs-tail trade-offs are
measurable: :class:`PowerStage` is what ``simulate_load(profile,
config, power=stage)`` runs every service window under — any topology,
fault plan, batching policy or load profile included — and
:func:`simulate_energy` is that call for one policy at one load.
"""

from .policies import (
    DeepSleep,
    FrequencyPolicy,
    NoSleep,
    QueueBoost,
    SleepPolicy,
    StaticFrequency,
)
from .power import EnergyAccount, PowerModel
from .server import EnergyResult, PowerStage, simulate_energy

__all__ = [
    "DeepSleep",
    "FrequencyPolicy",
    "NoSleep",
    "QueueBoost",
    "SleepPolicy",
    "StaticFrequency",
    "EnergyAccount",
    "PowerModel",
    "EnergyResult",
    "PowerStage",
    "simulate_energy",
]
