"""The three harness configurations of Fig. 1 as pluggable transports.

Only the base classes and the integrated transport load with this
package. The loopback and networked transports (``socket``, ``pickle``)
and the process transport (``multiprocessing``, :mod:`repro.obs`) load
the first time ``make_transport`` builds one or one of their names is
looked up here.
"""

from importlib import import_module

from .base import ServerInstance, Transport, TransportStats
from .integrated import IntegratedTransport

#: optional transport name -> the module that defines it
_LAZY = {
    "LoopbackTransport": "loopback",
    "NetworkedTransport": "networked",
    "DelayLine": "networked",
    "ProcessTransport": "process",
    "ProcessReplicaHandle": "process",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)

__all__ = [
    "ServerInstance",
    "Transport",
    "TransportStats",
    "IntegratedTransport",
    "LoopbackTransport",
    "NetworkedTransport",
    "DelayLine",
    "ProcessTransport",
    "ProcessReplicaHandle",
]


def make_transport(
    config: str, clock, one_way_delay: float = 25e-6, execution=None
) -> Transport:
    """Build a transport by configuration name.

    ``config`` is one of ``"integrated"``, ``"loopback"``,
    ``"networked"`` — the three setups of Fig. 1. With an
    :class:`~repro.core.config.ExecutionConfig` in ``"process"`` mode,
    the integrated shape is served by :class:`ProcessTransport`
    (replicas in their own OS processes); config validation restricts
    process mode to the integrated configuration.
    """
    if execution is not None and execution.mode == "process":
        if config != "integrated":
            raise ValueError(
                "process execution mode requires the 'integrated' "
                f"configuration, got {config!r}"
            )
        from .process import ProcessTransport

        return ProcessTransport(clock, execution=execution)
    if config == "integrated":
        return IntegratedTransport(clock)
    if config == "loopback":
        from .loopback import LoopbackTransport

        return LoopbackTransport(clock)
    if config == "networked":
        from .networked import NetworkedTransport

        return NetworkedTransport(clock, one_way_delay=one_way_delay)
    raise ValueError(
        f"unknown harness configuration {config!r}; expected "
        "'integrated', 'loopback', or 'networked'"
    )
