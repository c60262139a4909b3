"""Online serving subsystem: sessions, micro-batching, and the server façade.

The offline entry point (:meth:`GraphPrompterPipeline.run_episode`) assumes
one caller and one episode; this package serves a *stream* of single-query
requests from many concurrent logical sessions with the same three-stage
pipeline:

* :class:`SessionStore` — one Augmenter cache + encoded candidate pool per
  session, with LRU/TTL eviction and a per-session stats ledger;
* :class:`MicroBatchScheduler` — coalesces pending queries across sessions
  into one GNN encoding pass (max-batch-size / max-wait policy);
* :class:`PromptServer` — ``open_session`` / ``submit`` / ``drain`` façade,
  warm-startable from the shared disk artifact cache;
* :class:`ShardRouter` — constructed when the server is given
  ``num_shards > 1``: partitions the graph (:mod:`repro.shard`), encodes
  each micro-batch one shard slice at a time, and merges rows back in
  submission order — bit-identical results;
* :class:`ServingGateway` (:mod:`repro.serving.gateway`) — the async
  multi-tenant front door: per-tenant rate limiting and quotas, a bounded
  admission queue with class-aware load shedding (typed
  :class:`Overloaded` rejections, never a hang), deadline-aware priority
  batching (:mod:`repro.serving.qos`), and graceful drain around graph
  updates and model hot swaps;
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
    DeadlineAwareScheduler,
    Overloaded,
    Priority,
    TenantLedger,
    TenantStats,
    TokenBucket,
    Unavailable,
)
from .replicaset import ReplicaSet
from .router import ShardRouter
from .scheduler import MicroBatchScheduler, PendingRequest
from .server import PromptServer, ServeResult, ServerStats
from .session import SessionState, SessionStats, SessionStore

__all__ = [
    "AdmissionController",
    "DeadlineAwareScheduler",
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
    "ShardRouter",
    "SessionState",
    "SessionStats",
    "SessionStore",
    "TenantLedger",
    "TenantStats",
    "TokenBucket",
    "Unavailable",
]
