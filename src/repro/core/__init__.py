"""The TailBench harness: the paper's primary contribution.

Open-loop traffic shaping, an instrumented request queue, worker-pool
servers, statistics collection over every measured record, three pluggable
harness configurations (integrated / loopback / networked), and a
repeated-run measurement methodology with confidence-interval
convergence.
"""

from .balancer import (
    BALANCERS,
    JoinShortestQueueBalancer,
    LoadBalancer,
    PowerOfTwoBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    balancer_names,
    make_balancer,
)
from .clock import Clock, VirtualClock, WallClock
from .collector import OUTCOME_KEYS, CollectedStats, StatsCollector
from .config import (
    NO_BATCHING,
    NO_CACHE,
    NO_FANOUT,
    NO_OBSERVABILITY,
    NO_RESILIENCE,
    PAPER_SYSTEM,
    THREADED,
    CacheConfig,
    ExecutionConfig,
    FanoutConfig,
    HarnessConfig,
    ObservabilityConfig,
    RunConfig,
    SystemConfig,
)
from .fanout import FanoutClient, FanoutGatherer, FanoutStats
from .harness import HarnessResult, run_harness
from .queueing import QueueClosed, RequestQueue
from .request import Request, RequestRecord
from .resilience import ResilienceConfig, ResilientClient
from .run import RunResult
from .runner import CampaignResult, run_campaign
from .runtime import ReplicaRuntime
from .scheduler import Scheduler
from .server import Server
from .traffic import (
    ArrivalProcess,
    ArrivalSchedule,
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    TrafficShaper,
)
from .transport import IntegratedTransport, Transport, make_transport

#: transports that load on first use (see :mod:`.transport`)
_LAZY_TRANSPORTS = ("LoopbackTransport", "NetworkedTransport", "ProcessTransport")


def __getattr__(name):
    if name in _LAZY_TRANSPORTS:
        from . import transport

        return getattr(transport, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BALANCERS",
    "LoadBalancer",
    "RoundRobinBalancer",
    "RandomBalancer",
    "PowerOfTwoBalancer",
    "JoinShortestQueueBalancer",
    "balancer_names",
    "make_balancer",
    "Clock",
    "VirtualClock",
    "WallClock",
    "CollectedStats",
    "StatsCollector",
    "OUTCOME_KEYS",
    "NO_BATCHING",
    "NO_CACHE",
    "NO_FANOUT",
    "NO_OBSERVABILITY",
    "NO_RESILIENCE",
    "PAPER_SYSTEM",
    "THREADED",
    "CacheConfig",
    "ExecutionConfig",
    "FanoutConfig",
    "HarnessConfig",
    "ObservabilityConfig",
    "RunConfig",
    "SystemConfig",
    "FanoutClient",
    "FanoutGatherer",
    "FanoutStats",
    "ResilienceConfig",
    "ResilientClient",
    "HarnessResult",
    "RunResult",
    "run_harness",
    "QueueClosed",
    "RequestQueue",
    "Request",
    "RequestRecord",
    "CampaignResult",
    "run_campaign",
    "ReplicaRuntime",
    "Scheduler",
    "Server",
    "ArrivalProcess",
    "ArrivalSchedule",
    "BurstyArrivals",
    "DeterministicArrivals",
    "PoissonArrivals",
    "TrafficShaper",
    "IntegratedTransport",
    "LoopbackTransport",
    "NetworkedTransport",
    "ProcessTransport",
    "Transport",
    "make_transport",
]
