"""The three harness configurations of Fig. 1 as pluggable transports."""

from .base import ServerInstance, Transport, TransportStats
from .integrated import IntegratedTransport
from .loopback import LoopbackTransport
from .networked import DelayLine, NetworkedTransport
from .process import ProcessReplicaHandle, ProcessTransport

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
        return ProcessTransport(clock, execution=execution)
    if config == "integrated":
        return IntegratedTransport(clock)
    if config == "loopback":
        return LoopbackTransport(clock)
    if config == "networked":
        return NetworkedTransport(clock, one_way_delay=one_way_delay)
    raise ValueError(
        f"unknown harness configuration {config!r}; expected "
        "'integrated', 'loopback', or 'networked'"
    )
