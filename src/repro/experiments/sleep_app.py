"""The synthetic sleep application the extension figures share.

The live-vs-sim figures (topology, control, batching, live SLO,
resilience) need a workload whose service time is known exactly, so a
live arm and a simulated arm can be laid side by side: the payload *is*
the service time — a draw from the figure's distribution — and serving
it is sleeping it. :attr:`SleepApp.profile` is the same distribution as
the simulator takes it, and :meth:`SleepApp.run` runs one arm of either
kind from the same :class:`~repro.core.config.RunConfig` fields.
"""

from __future__ import annotations

import random
import time

from ..apps.base import Application, Client
from ..core import HarnessConfig, run_harness
from ..sim import SimConfig, simulate_load
from ..sim.calibration import AppProfile

__all__ = ["SleepApp"]


class _SleepClient(Client):
    """Draws per-request service times from the app's distribution."""

    def __init__(self, service, seed: int) -> None:
        self._service = service
        self._rng = random.Random(seed ^ 0x51EE9)

    def next_request(self) -> float:
        return self._service.sample(self._rng)


class SleepApp(Application):
    """Live stand-in: the payload *is* the service time, slept away.

    A batch sleeps the first member's full draw plus ``batch_marginal``
    of every further member's — the window the simulator charges under
    ``BatchingConfig.sim_marginal_cost``, so live and simulated
    batching are directly comparable; the default, 1.0, amortises
    nothing.
    """

    name = "synthetic-sleep"

    def __init__(self, service, batch_marginal: float = 1.0) -> None:
        self.service = service
        self._batch_marginal = batch_marginal
        #: The simulator's side of the same workload.
        self.profile = AppProfile(name=self.name, service=service)

    def setup(self) -> None:
        pass

    def process(self, payload: float) -> float:
        time.sleep(payload)
        return payload

    def handle_batch(self, payloads):
        time.sleep(payloads[0] + self._batch_marginal * sum(payloads[1:]))
        return list(payloads)

    def make_client(self, seed: int = 0) -> Client:
        return _SleepClient(self.service, seed)

    def run(self, mode: str, **fields):
        """One arm: the same config fields, ``"live"`` or ``"sim"``."""
        if mode == "live":
            return run_harness(self, HarnessConfig(**fields))
        return simulate_load(self.profile, SimConfig(**fields))
