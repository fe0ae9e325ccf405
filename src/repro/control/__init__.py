"""repro.control — SLO-driven control plane.

Closed-loop admission control (CoDel + AIMD), priority scheduling,
and replica autoscaling behind one :class:`Controller` interface,
running identically in the live harness and the discrete-event
simulator. See DESIGN.md §8.
"""

from .config import (
    NO_CONTROL,
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlaneConfig,
    PriorityConfig,
    RequestClassSpec,
)
from .controllers import AdmissionController, AutoscaleController, Controller
from .gate import AdmissionGate
from .plane import ControlPlane, ControlTarget, TransportControlTarget
from .priority import ClassAssigner

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionGate",
    "AutoscaleController",
    "AutoscalerConfig",
    "ClassAssigner",
    "ControlPlane",
    "ControlPlaneConfig",
    "ControlTarget",
    "Controller",
    "NO_CONTROL",
    "PriorityConfig",
    "RequestClassSpec",
    "TransportControlTarget",
]
