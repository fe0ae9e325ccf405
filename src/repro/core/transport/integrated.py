"""Integrated configuration: client + harness + application, one process.

Requests pass from the traffic shaper straight into the request queue
(a shared-memory hand-off), so no network-stack overhead is incurred.
This is the configuration the paper recommends for simulation
(Sec. IV-B): userspace-only communication that a user-level simulator
can execute.
"""

from __future__ import annotations

from ..queueing import QueueClosed
from ..request import Request
from .base import Transport

__all__ = ["IntegratedTransport"]


class IntegratedTransport(Transport):
    """Direct in-process hand-off between client and server(s)."""

    def _submit_after(self, request: Request, delay: float) -> None:
        # The hand-off itself, so a send reaches the queue through this
        # one frame; a delayed attempt comes back here from the timer.
        if delay > 0.0:
            super()._submit_after(request, delay)
            return
        try:
            accepted = self._instances[request.server_id].queue.put(request)
        except QueueClosed:
            # Arrived after shutdown: the message is lost on the wire.
            self._abandon(request)
            return
        if not accepted:
            self._shed(request)
