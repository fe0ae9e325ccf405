"""Discrete-event simulation substrate (virtual-time load testing).

The paper's integrated harness configuration exists so tail latency
can be measured *in simulation* (Sec. IV-B, VI). This package is that
simulation path: a discrete-event engine driving the same open-loop
methodology against calibrated or measured service-time models, with
network-configuration and multithread-contention effects modelled
explicitly.
"""

from ..core.scheduler import Event, EventQueue
from .calibration import (
    EXTENSION_PROFILES,
    PAPER_PROFILES,
    AppProfile,
    paper_profile,
)
from .colocation import BatchColocation, max_safe_batch_share, simulate_colocated
from .contention import NO_CONTENTION, ContentionModel
from .dispatch import compare_dispatch, simulate_dispatch
from .engine import Engine
from .latency_sim import SimConfig, SimResult, simulate_app, simulate_load
from .network_model import NETWORK_MODELS, NetworkModel, network_model_for
from .server_model import SimulatedServer
from .service_models import ServiceTimeModel, profile_application
from .transport import SimulatedTransport

__all__ = [
    "EXTENSION_PROFILES",
    "PAPER_PROFILES",
    "AppProfile",
    "paper_profile",
    "BatchColocation",
    "max_safe_batch_share",
    "simulate_colocated",
    "NO_CONTENTION",
    "ContentionModel",
    "compare_dispatch",
    "simulate_dispatch",
    "Engine",
    "Event",
    "EventQueue",
    "SimConfig",
    "SimResult",
    "simulate_app",
    "simulate_load",
    "NETWORK_MODELS",
    "NetworkModel",
    "network_model_for",
    "SimulatedServer",
    "SimulatedTransport",
    "ServiceTimeModel",
    "profile_application",
]
