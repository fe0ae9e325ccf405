"""Application interface and registry.

Every TailBench application plugs into the harness through the same
two-sided contract:

- server side — :class:`Application`: ``setup()`` builds the dataset
  (index, table, model); ``process(payload)`` services one request.
- client side — :class:`Client`: ``next_request()`` yields the next
  request payload, drawn from the app's workload distribution.

The registry maps the application names (the paper's xapian,
masstree, moses, sphinx, img-dnn, specjbb, silo, shore, plus vsearch)
to factories, so the experiment drivers can iterate over the whole
suite. The built-in factories import their app on first call
(:mod:`repro.apps`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

__all__ = [
    "Application",
    "Client",
    "ShardedApp",
    "register_app",
    "create_app",
    "app_names",
]


class Client:
    """Generates the request stream for one application."""

    def next_request(self) -> Any:
        """Return the next request payload."""
        raise NotImplementedError


class Application:
    """One latency-critical server application."""

    #: Canonical name used in the paper's tables/figures.
    name: str = "base"
    #: Domain label from Table I (documentation only).
    domain: str = ""

    def setup(self) -> None:
        """Build datasets/models. Must be called before ``process``."""
        raise NotImplementedError

    def process(self, payload: Any) -> Any:
        """Service one request; returns the response payload.

        Called concurrently from multiple worker threads when the
        harness runs with ``n_threads > 1`` — implementations must be
        thread-safe (the OLTP apps bring their own concurrency
        control; read-mostly apps use immutable shared state).
        """
        raise NotImplementedError

    def handle_batch(self, payloads: Sequence[Any]) -> List[Any]:
        """Service a batch of requests; returns one response per payload.

        Called by the batched worker loop (see :mod:`repro.batching`)
        with every payload of one formed batch. The default simply
        loops over :meth:`process` — functionally identical to
        unbatched serving, so every application is batchable out of the
        box. Applications with vectorizable work override this to
        amortize per-request cost across the batch (img-dnn stacks the
        inputs into one matrix pass; masstree and xapian group
        duplicate lookups). Must preserve order and length: response
        ``i`` answers payload ``i``. The same thread-safety contract as
        :meth:`process` applies.
        """
        return [self.process(payload) for payload in payloads]

    def make_client(self, seed: int = 0) -> Client:
        """Build a request generator with its own RNG stream."""
        raise NotImplementedError

    def cache_key(self, payload: Any) -> Optional[Hashable]:
        """Key under which this request's response may be cached.

        ``None`` (the default) marks the request *uncacheable* — the
        right answer for any app whose responses are not a pure
        function of the payload (writes, session state, time-varying
        reads). Read-only apps with repeat-heavy request mixes opt in
        by returning a hashable, deterministic function of the payload:
        xapian keys on the query string, vsearch on the query id. The
        caching tier (:mod:`repro.cache`) only ever short-circuits
        requests whose app returned a key.
        """
        return None

    def clone(self) -> "Application":
        """Return a replica for one server instance of a topology.

        The default shares ``self``: ``process`` is already required to
        be thread-safe, so one object can back several replicas.
        Applications with per-instance mutable state (write-heavy OLTP
        tables, per-instance caches) override this to return an
        independent, already-set-up copy.
        """
        return self

    def replica(self, server_id: int) -> "Application":
        """Return the application backing server ``server_id``.

        Replica 0 is ``self``; the rest are :meth:`clone`\\ s. Sharded
        applications override this so each server instance holds a
        *different* partition of the data rather than a copy.
        """
        return self if server_id == 0 else self.clone()


class ShardedApp(Application):
    """One logical application partitioned across K shard apps.

    Each shard owns a disjoint slice of the dataset; a logical query
    must visit every shard and merge their partial responses. Under
    the harness this composes with :class:`repro.core.FanoutConfig`:
    server instance ``i`` is backed by ``shards[i]`` (via
    :meth:`replica`), one logical request scatters to all K, and the
    gather point calls :meth:`merge_responses`.

    :meth:`process` runs the scatter-gather inline (sequentially, in
    one thread) — the reference path used by correctness tests and by
    unsharded serving of a sharded app.
    """

    def __init__(
        self,
        shards: Sequence[Application],
        merge: Callable[[Sequence[Any]], Any],
        client_factory: Callable[[int], Client] = None,
        name: str = None,
        domain: str = None,
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = list(shards)
        self._merge = merge
        self._client_factory = client_factory
        self.name = name if name is not None else self.shards[0].name
        self.domain = (
            domain if domain is not None else self.shards[0].domain
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def setup(self) -> None:
        for shard in self.shards:
            shard.setup()

    def replica(self, server_id: int) -> Application:
        return self.shards[server_id]

    def process(self, payload: Any) -> Any:
        return self._merge([s.process(payload) for s in self.shards])

    def merge_responses(self, responses: Sequence[Any]) -> Any:
        """Combine per-shard partial responses into the logical one."""
        return self._merge(responses)

    def make_client(self, seed: int = 0) -> Client:
        if self._client_factory is not None:
            return self._client_factory(seed)
        return self.shards[0].make_client(seed)


_REGISTRY: Dict[str, Callable[..., Application]] = {}


def register_app(name: str, factory: Callable[..., Application]) -> None:
    """Register an application factory under ``name``."""
    if name in _REGISTRY:
        raise ValueError(f"application {name!r} already registered")
    _REGISTRY[name] = factory


def create_app(name: str, **kwargs) -> Application:
    """Instantiate a registered application (without calling setup)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def app_names() -> List[str]:
    """All registered application names, sorted."""
    return sorted(_REGISTRY)
