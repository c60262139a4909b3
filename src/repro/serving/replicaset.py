"""ReplicaSet: tenant-hashed failover routing across gateway replicas.

The durable tier (:mod:`repro.persist`) makes a single serving process
restartable; this module makes the *fleet* survive one without restarting
anything: N :class:`~repro.serving.ServingGateway` replicas — each a full
server warm-started from one shared :class:`~repro.persist.PersistentStore`
— sit behind a front router that

* **routes by tenant**: a tenant's home replica is a splitmix64 hash of
  its id modulo N, so placement is stateless, deterministic, and sticky —
  every session of a tenant lands on one replica, preserving the
  per-session FIFO the gateway's bit-identity contract needs;
* **health-checks on every route**: a replica that was killed (or closed)
  is skipped by walking forward to the next healthy one;
* **fails over without hangs**: killing a replica aborts it — every
  admitted in-flight request settles with a typed
  :class:`~repro.serving.qos.Unavailable` — and the next submit for an
  affected tenant re-opens its sessions on the fallback replica from the
  shared session manifests, then serves normally;
* **fans updates out, logs them once**: a live
  :class:`~repro.graph.GraphUpdate` is WAL-logged through the shared
  store exactly once, then applied to every healthy replica with
  ``log=False`` — so all replicas stay at the same graph version and a
  later cold restart replays the same history, with no double-logging.

What failover does *not* preserve is the ephemeral part of session state:
the dead replica's Augmenter caches die with it, so the fallback replica
re-opens sessions fresh — exactly the contract a single-process restart
has.  Everything durable (graph version, session identity, tenant and
priority) carries over.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..graph.delta import AppliedUpdate, GraphUpdate
from ..graph.graph import Graph
from ..obs.metrics import MetricsRegistry, get_registry
from ..persist import PersistentStore, episode_from_jsonable
from .gateway import ServingGateway
from .qos import UNAVAILABLE_FAILOVER, Priority

__all__ = ["ReplicaSet"]

_U64 = np.uint64


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix64 finalizer), vectorized."""
    z = values.astype(_U64) + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


class ReplicaSet:
    """Front router over N gateway replicas sharing one durable store.

    Parameters
    ----------
    factory:
        ``factory(replica_id) -> ServingGateway``; called once per
        replica.  Each gateway's server should be warm-started from (or
        attached to) the same :class:`~repro.persist.PersistentStore`.
    num_replicas:
        Fleet size (>= 1).
    store:
        The shared persistent store.  Defaults to replica 0's server
        store; updates are logged through it exactly once, and failover
        re-opens sessions from its manifests.  ``None`` disables both
        (purely in-memory fleet).
    """

    def __init__(self, factory, num_replicas: int = 2,
                 store: PersistentStore | None = None,
                 registry: MetricsRegistry | None = None):
        if num_replicas < 1:
            raise ValueError("num_replicas must be at least 1")
        self.replicas: list[ServingGateway] = [
            factory(replica_id) for replica_id in range(num_replicas)]
        self.store = (store if store is not None
                      else self.replicas[0].server.persist)
        self.obs = registry if registry is not None else get_registry()
        self._m_failovers = self.obs.counter(
            "repro_replicaset_failovers_total",
            "Tenant re-routes onto a fallback replica.", ("tenant",))
        self._m_kills = self.obs.counter(
            "repro_replicaset_kills_total",
            "Replicas aborted (crash-simulated or administrative).")
        #: session id -> owning tenant id (route key for submits).
        self._session_tenant: dict[str, str] = {}
        #: tenant id -> replica currently serving it.
        self._routed: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def home_replica(self, tenant_id: str) -> int:
        """Stateless home slot: splitmix64 of the tenant id modulo N."""
        seed = np.array([zlib.crc32(tenant_id.encode())], dtype=np.uint64)
        return int(_splitmix64(seed)[0] % np.uint64(len(self.replicas)))

    def healthy_replicas(self) -> list[int]:
        """Indices of replicas whose gateway is still open."""
        return [i for i, gateway in enumerate(self.replicas)
                if not gateway.closed]

    def route(self, tenant_id: str) -> int:
        """Replica serving ``tenant_id``: home slot, or the next healthy
        one — re-opening the tenant's sessions there on a failover."""
        count = len(self.replicas)
        home = self.home_replica(tenant_id)
        for step in range(count):
            index = (home + step) % count
            if self.replicas[index].closed:
                continue
            previous = self._routed.get(tenant_id)
            if (previous is not None and previous != index
                    and self.replicas[previous].closed):
                self._m_failovers.inc(tenant=tenant_id)
                self._reopen_tenant(tenant_id, index)
            self._routed[tenant_id] = index
            return index
        raise RuntimeError("no healthy replica available")

    def _reopen_tenant(self, tenant_id: str, index: int) -> None:
        """Re-open a failed-over tenant's sessions from shared manifests."""
        if self.store is None:
            return
        gateway = self.replicas[index]
        for manifest in self.store.sessions.load_all():
            if manifest.tenant_id != tenant_id:
                continue
            if manifest.session_id in gateway.server.sessions:
                continue
            priority = (Priority.INTERACTIVE if manifest.priority is None
                        else Priority(manifest.priority))
            gateway.open_session(
                tenant_id, manifest.session_id,
                episode_from_jsonable(manifest.episode),
                shots=manifest.shots, priority=priority,
                _open_index=manifest.open_index)

    # ------------------------------------------------------------------
    # Session + request path
    # ------------------------------------------------------------------
    def open_session(self, tenant_id: str, session_id: str, episode,
                     shots: int = 3,
                     priority: Priority = Priority.INTERACTIVE):
        """Open a session on the tenant's (healthy) home replica."""
        gateway = self.replicas[self.route(tenant_id)]
        state = gateway.open_session(tenant_id, session_id, episode,
                                     shots=shots, priority=priority)
        self._session_tenant[session_id] = tenant_id
        return state

    async def submit(self, session_id: str, datapoint):
        """Submit one query, following the tenant's current route.

        Returns the gateway's typed result (:class:`GatewayResult`,
        :class:`Overloaded`, or — when a replica dies mid-request —
        :class:`~repro.serving.qos.Unavailable`); raises ``KeyError`` for
        sessions never opened through this replica set.
        """
        tenant_id = self._session_tenant[session_id]
        gateway = self.replicas[self.route(tenant_id)]
        return await gateway.submit(session_id, datapoint)

    # ------------------------------------------------------------------
    # Updates + lifecycle
    # ------------------------------------------------------------------
    def _graph(self) -> Graph:
        healthy = self.healthy_replicas()
        if not healthy:
            raise RuntimeError("no healthy replica available")
        return self.replicas[healthy[0]].server.dataset.graph

    async def update_graph(self, update: GraphUpdate) -> AppliedUpdate:
        """Apply one live mutation fleet-wide: log once, fan out.

        Every healthy replica drains its in-flight requests and absorbs
        the update (``log=False`` — the shared WAL already has it), so
        the fleet stays version-aligned and a cold restart replays the
        same history exactly once.  A batch the graph refuses raises
        ``ValueError`` before it is logged.
        """
        if self.store is not None:
            graph = self._graph()
            graph.check_update(update)
            self.store.log_update(update, base_version=graph.version)
        applied = None
        for gateway in self.replicas:
            if not gateway.closed:
                applied = await gateway.update_graph(update, log=False)
        if applied is None:
            raise RuntimeError("no healthy replica available")
        return applied

    def kill(self, replica_id: int) -> int:
        """Simulate a replica crash: abort it (in-flight requests settle
        with ``Unavailable``), leave it unroutable.  Returns the number
        of requests settled."""
        gateway = self.replicas[replica_id]
        settled = gateway.abort(reason=UNAVAILABLE_FAILOVER)
        self._m_kills.inc()
        return settled

    async def close(self) -> None:
        """Gracefully close every still-healthy replica."""
        for gateway in self.replicas:
            await gateway.close()

    async def __aenter__(self) -> "ReplicaSet":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
