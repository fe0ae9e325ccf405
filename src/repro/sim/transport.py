"""Virtual time as a transport.

The live harness reaches its servers over one of four wires
(:mod:`repro.core.transport`); the simulator's wire is the fifth. A
:class:`SimulatedTransport` hosts :class:`SimulatedServer` replicas
behind the ordinary :class:`~repro.core.transport.Transport` — so
routing, transport-layer faults, outstanding/routed accounting,
runtime membership, the per-replica hooks, the send / completion feeds
and the ``tb_*`` gauges are the base class's, written once for both
clocks; the accounting runs without the base class's lock, since the
engine is its only caller.
Only what is clock-specific lives here: what a replica *is* (a
service-time model under the event engine instead of a worker pool
over an application) and how an attempt crosses the wire (an engine
event after the modelled latency instead of a queue hand-off or a
socket write).
"""

from __future__ import annotations

from ..core.request import Request
from ..core.traffic import service_stream
from ..core.transport import ServerInstance, Transport
from .engine import Engine
from .network_model import NetworkModel
from .server_model import SimulatedServer

__all__ = ["SimulatedTransport"]


class SimulatedTransport(Transport):
    """N simulated servers behind the shared routing/accounting layer.

    ``start(app, ...)`` takes the run's
    :class:`~repro.sim.service_models.ServiceTimeModel` where a live
    transport takes the application: it is what every replica serves.
    Server 0 draws service times from the pre-topology stream seed, so
    ``n_servers=1`` reproduces the original single-server simulator
    bit for bit; later replicas (runtime scale-ups included) draw from
    independently seeded streams, so controlled runs stay deterministic
    no matter when a replica joins.
    """

    def __init__(
        self,
        engine: Engine,
        network: NetworkModel,
        seed: int = 0,
        batch_marginal_cost: float = 0.35,
        power=None,
    ) -> None:
        super().__init__(engine.clock)
        self._engine = engine
        self._network = network
        self._seed = seed
        self._batch_marginal_cost = batch_marginal_cost
        self._power = power

    def _build_instance(self, server_id: int) -> ServerInstance:
        now = self._clock.now()
        server = SimulatedServer(
            self._engine,
            self._app,
            self._network,
            self._n_threads,
            service_stream(self._seed, server_id),
            self._complete,
            batch_marginal_cost=self._batch_marginal_cost,
            **self._replica_options(server_id),
            # Each replica — a runtime scale-up included — gets its own
            # worker pool over the run's one energy account.
            power=(
                self._power.for_server(self._n_threads, now)
                if self._power is not None
                else None
            ),
        )
        instance = ServerInstance(server_id, server.queue, server)
        instance.started_at = now
        return instance

    # The engine makes every call of a run on its one thread, and nobody
    # waits in ``drain``: the accounting runs bare.
    _count_sent = Transport._note_sent
    _count_answered = Transport._note_answered

    def _submit_after(self, request: Request, delay: float) -> None:
        # The injected delay rides on the modelled wire latency as one
        # arrival event, not as a timer in front of the wire — so the
        # base class's timer path, and the ``_submit`` behind it, are
        # never reached.
        self._instances[request.server_id].server.submit_request(
            request, delay
        )
