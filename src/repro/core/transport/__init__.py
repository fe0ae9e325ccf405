"""The three harness configurations of Fig. 1 as pluggable transports.

Only the base classes and the integrated transport load with this
package. The loopback and networked transports (``socket``, ``pickle``)
load the first time ``make_transport`` builds one or one of their names
is looked up here; process mode's child processes
(:mod:`.process`, ``multiprocessing``) the first time a transport
builds a replica in that mode.
"""

from importlib import import_module

from .base import ServerInstance, Transport, TransportStats
from .integrated import IntegratedTransport

#: optional transport name -> the module that defines it
_LAZY = {
    "LoopbackTransport": "loopback",
    "NetworkedTransport": "networked",
    "DelayLine": "networked",
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
]


def make_transport(
    config: str, clock, one_way_delay: float = 25e-6
) -> Transport:
    """Build a transport by configuration name.

    ``config`` is one of ``"integrated"``, ``"loopback"``,
    ``"networked"`` — the three setups of Fig. 1. Any of them runs in
    either execution mode (``Transport.execution``).
    """
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
