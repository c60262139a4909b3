"""Online serving subsystem: sessions, micro-batching, and the server façade.

The offline entry point (:meth:`GraphPrompterPipeline.run_episode`) assumes
one caller and one episode; this package serves a *stream* of single-query
requests from many concurrent logical sessions with the same three-stage
pipeline:

* :class:`SessionStore` — one Augmenter cache + encoded candidate pool per
  session, with LRU/TTL eviction and a per-session stats ledger;
* :class:`MicroBatchScheduler` — coalesces pending queries across sessions
  into one GNN encoding pass (size / age / deadline-fraction release);
* :class:`PromptServer` — ``open_session`` / ``submit`` / ``drain`` façade
  over its own queue, and ``serve`` for a batch another queue released;
  warm-startable from the shared disk artifact cache;
* :class:`ServingGateway` (:mod:`repro.serving.gateway`) — the async
  multi-tenant front door: per-tenant rate limiting and quotas, a bounded
  admission queue with class-aware load shedding (typed
  :class:`Overloaded` rejections, never a hang), one deadline-aware
  queue per :class:`Priority` class whose every batch is one server
  micro-batch, and graceful drain around graph updates and model hot
  swaps;
* **durability** — constructed with a
  :class:`~repro.persist.PersistentStore`, the server WAL-logs every
  update before applying it, keeps per-session manifests, snapshots on
  demand, and warm-starts via :meth:`PromptServer.restore` to
  bit-identical serving; :class:`ReplicaSet`
  (:mod:`repro.serving.replicaset`) tenant-hashes across N gateway
  replicas sharing one store, with health-checked failover that settles
  in-flight requests with typed :class:`Unavailable` results.
"""

from .gateway import GatewayResult, ServingGateway
from .qos import (
    AdmissionController,
    Overloaded,
    Priority,
    TenantLedger,
    TenantStats,
    TokenBucket,
    Unavailable,
)
from .replicaset import ReplicaSet
from .scheduler import MicroBatchScheduler, PendingRequest
from .server import PromptServer, ServeResult, ServerStats
from .session import SessionState, SessionStats, SessionStore

__all__ = [
    "AdmissionController",
    "GatewayResult",
    "MicroBatchScheduler",
    "Overloaded",
    "PendingRequest",
    "Priority",
    "PromptServer",
    "ReplicaSet",
    "ServeResult",
    "ServerStats",
    "ServingGateway",
    "SessionState",
    "SessionStats",
    "SessionStore",
    "TenantLedger",
    "TenantStats",
    "TokenBucket",
    "Unavailable",
]
