"""ShardRouter: fan micro-batches out per shard, merge in submission order.

The router is the serving-side integration of :mod:`repro.shard`: it owns
the :class:`~repro.shard.ShardedGraphStore` and a
:class:`~repro.shard.WorkerPool`, routes every datapoint to its *home
shard* (the owner of its first seed node), dispatches one
sampling+encoding task per shard touched, and scatters the returned
embedding rows back into the caller's submission order.

Why results cannot change: serving always samples with per-datapoint
deterministic RNG (``deterministic_sampling``), sampling over the sharded
store is bit-identical to the monolithic sampler, and batched encoding is
batch-composition-invariant — so regrouping a micro-batch by shard and
encoding the groups on different workers (even different processes, each
with its own model replica rebuilt from the same state dict) produces
exactly the rows the monolithic encoder would have.  Sharding and
parallelism are pure throughput levers.

Per-shard counters (``requests``, ``halo_fetches``, ``worker_busy_s``) are
aggregated here — worker processes report deltas with each task result, so
the server-side ledger stays consistent whichever backend ran the task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import GraphPrompterConfig
from ..core.model import GraphPrompterModel
from ..core.prompt_generator import PromptGenerator
from ..gnn import BatchArena
from ..graph.datapoints import Datapoint
from ..graph.graph import Graph
from ..nn import no_grad
from ..obs.tracing import span
from ..shard import ShardCounters, ShardedGraphStore, WorkerPool
from .scheduler import batch_seed_nodes

__all__ = ["ShardRouter"]


@dataclass
class _WorkerContext:
    """Everything one worker needs: model replica, generator, store."""

    model: GraphPrompterModel
    generator: PromptGenerator
    store: ShardedGraphStore
    arena: BatchArena


def _build_worker_context(store: ShardedGraphStore,
                          config: GraphPrompterConfig, feature_dim: int,
                          num_relations: int, state: dict) -> _WorkerContext:
    """Pool initializer: rebuild the model from its state dict (picklable)."""
    model = GraphPrompterModel(feature_dim, num_relations, config)
    model.load_state_dict(state)
    model.eval()
    generator = PromptGenerator(store.view(), config,
                                deterministic=True, salt=config.seed)
    return _WorkerContext(model=model, generator=generator, store=store,
                          arena=BatchArena())


def _encode_shard_task(context: _WorkerContext, task):
    """One shard's slice of a micro-batch: sample + encode + count halo."""
    home_shard, datapoints = task
    store = context.store
    store.reset_counters()
    store.home_shard = home_shard
    try:
        # Batched frontier expansion: pull every session's seed rows in
        # one grouped fetch per shard before sampling, so the per-session
        # expansions below start from a warm halo cache instead of each
        # paying its own shard round-trips.
        store.prefetch_rows(batch_seed_nodes(datapoints))
        subgraphs = context.generator.subgraphs_for(datapoints)
        with no_grad():
            emb = context.model.encode_subgraphs(subgraphs,
                                                 arena=context.arena)
            importance = context.model.importance(emb).data
        return emb.data, importance, store.halo_fetches
    finally:
        store.home_shard = None


class ShardRouter:
    """Routes encode batches across shards and workers.

    Drop-in for :meth:`GraphPrompterPipeline.encode_points` (installed as
    its ``point_encoder``): same signature, same rows, merged back in
    submission order whatever the per-shard grouping was.
    """

    def __init__(self, model: GraphPrompterModel, graph: Graph,
                 num_shards: int = 1, num_workers: int = 1,
                 strategy: str = "greedy", backend: str = "auto",
                 owner: np.ndarray | None = None):
        config = model.config
        self.num_shards = num_shards
        self.store = ShardedGraphStore.from_graph(graph, num_shards,
                                                  strategy, owner=owner)
        self.counters = [ShardCounters(shard_id=k)
                         for k in range(num_shards)]
        self._num_workers = num_workers
        self._requested_backend = backend
        self._initargs = (self.store, config, graph.feature_dim,
                          graph.num_relations, model.state_dict())
        self.pool = WorkerPool(_build_worker_context,
                               initargs=self._initargs,
                               num_workers=num_workers, backend=backend)

    def apply_updates(self, applied) -> None:
        """Propagate one applied graph mutation through the shard layer.

        The store is updated in place (touched shards rebuilt, ghost
        tables refreshed).  The serial backend's worker context reads that
        same store object, so it needs nothing further — but **process**
        workers were initialized from a pickled snapshot of the
        pre-mutation store, so the pool is respawned: the initializer
        re-pickles the now-updated store into each fresh worker.
        """
        self.store.apply_updates(applied)
        if self.pool is not None and self.pool.backend == "process":
            self._respawn_pool()

    def reload_model(self, model: GraphPrompterModel) -> None:
        """Swap in new model weights for every worker replica.

        Worker contexts were initialized from a pickled state dict, so a
        hot model reload must rebuild the initargs and respawn the pool —
        serial contexts too: their replica was built once at pool
        construction and would otherwise keep serving the old weights.
        """
        graph_args = self._initargs[2:4]  # feature_dim, num_relations
        self._initargs = (self.store, model.config, *graph_args,
                          model.state_dict())
        self._respawn_pool()

    def _respawn_pool(self) -> None:
        """Tear down the pool and rebuild workers from ``_initargs``."""
        self.pool.close()
        self.pool = WorkerPool(_build_worker_context,
                               initargs=self._initargs,
                               num_workers=self._num_workers,
                               backend=self._requested_backend)

    @property
    def backend(self) -> str:
        """Effective worker backend (may have degraded to ``"serial"``)."""
        return self.pool.backend

    def home_shard(self, datapoint: Datapoint) -> int:
        """Owner shard of the datapoint's first seed node."""
        return int(self.store.owner[int(datapoint.nodes[0])])

    def encode_points(self, datapoints: list, arena=None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Sharded/parallel twin of ``GraphPrompterPipeline.encode_points``.

        ``arena`` is accepted for signature compatibility but unused —
        each worker owns its own :class:`~repro.gnn.BatchArena`.
        """
        del arena
        with span("shard_encode"):
            return self._encode_points(datapoints)

    def _encode_points(self, datapoints: list
                       ) -> tuple[np.ndarray, np.ndarray]:
        groups: dict[int, list[int]] = {}
        for position, datapoint in enumerate(datapoints):
            groups.setdefault(self.home_shard(datapoint), []).append(position)
        tasks = [(shard, [datapoints[i] for i in groups[shard]])
                 for shard in sorted(groups)]
        outputs = self.pool.map(_encode_shard_task, tasks)

        emb0 = outputs[0][0][0]
        emb = np.empty((len(datapoints), emb0.shape[1]), dtype=emb0.dtype)
        importance = np.empty(len(datapoints),
                              dtype=outputs[0][0][1].dtype)
        for (shard, _), ((rows, scores, halo), busy_s) in zip(tasks, outputs):
            positions = groups[shard]
            emb[positions] = rows
            importance[positions] = scores
            ledger = self.counters[shard]
            ledger.requests += len(positions)
            ledger.halo_fetches += int(halo)
            ledger.worker_busy_s += busy_s
        return emb, importance

    def stats(self) -> tuple[ShardCounters, ...]:
        """Immutable snapshot of the per-shard ledgers."""
        return tuple(c.snapshot() for c in self.counters)

    def close(self) -> None:
        """Shut down the shard worker pool."""
        self.pool.close()
