"""ShardRouter: split micro-batches per shard, merge in submission order.

The router is the serving-side integration of :mod:`repro.shard`: it owns
the :class:`~repro.shard.ShardedGraphStore`, routes every datapoint to its
*home shard* (the owner of its first seed node), samples and encodes one
slice per shard touched with the server's own model, and scatters the
embedding rows back into the caller's submission order.

Why results cannot change: serving always samples with per-datapoint
deterministic RNG (``deterministic_sampling``), sampling over the sharded
store is bit-identical to the monolithic sampler, and batched encoding is
batch-composition-invariant — so regrouping a micro-batch by shard
produces exactly the rows the monolithic encoder would have.

Per-shard counters (``requests``, ``halo_fetches``, and the wall time of
each shard's slices in ``worker_busy_s``) are aggregated here.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.model import GraphPrompterModel
from ..core.prompt_generator import PromptGenerator
from ..gnn import BatchArena
from ..graph.datapoints import Datapoint
from ..graph.graph import Graph
from ..nn import no_grad
from ..obs.tracing import span
from ..shard import ShardCounters, ShardedGraphStore
from .scheduler import batch_seed_nodes

__all__ = ["ShardRouter"]


class ShardRouter:
    """Routes encode batches across shards.

    Drop-in for :meth:`GraphPrompterPipeline.encode_points` (installed as
    its ``point_encoder``): same signature, same rows, merged back in
    submission order whatever the per-shard grouping was.  ``model`` is
    the server's own model, so weights loaded into it in place reach the
    router with no further step.
    """

    def __init__(self, model: GraphPrompterModel, graph: Graph,
                 num_shards: int = 1, strategy: str = "greedy",
                 owner: np.ndarray | None = None):
        config = model.config
        self.model = model
        self.num_shards = num_shards
        self.store = ShardedGraphStore.from_graph(graph, num_shards,
                                                  strategy, owner=owner)
        self.counters = [ShardCounters(shard_id=k)
                         for k in range(num_shards)]
        self.generator = PromptGenerator(self.store.view(), config,
                                         deterministic=True,
                                         salt=config.seed)
        self.arena = BatchArena()

    def apply_updates(self, applied) -> None:
        """Propagate one applied graph mutation through the shard layer.

        The store is updated in place (touched shards rebuilt, ghost
        tables refreshed); the router's generator reads that same store.
        """
        self.store.apply_updates(applied)

    def home_shard(self, datapoint: Datapoint) -> int:
        """Owner shard of the datapoint's first seed node."""
        return int(self.store.owner[int(datapoint.nodes[0])])

    def encode_points(self, datapoints: list, arena=None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Sharded twin of ``GraphPrompterPipeline.encode_points``.

        ``arena`` is accepted for signature compatibility but unused —
        the router owns its own :class:`~repro.gnn.BatchArena`.
        """
        del arena
        with span("shard_encode"):
            return self._encode_points(datapoints)

    def _encode_points(self, datapoints: list
                       ) -> tuple[np.ndarray, np.ndarray]:
        groups: dict[int, list[int]] = {}
        for position, datapoint in enumerate(datapoints):
            groups.setdefault(self.home_shard(datapoint), []).append(position)
        emb = importance = None
        for shard in sorted(groups):
            positions = groups[shard]
            start = time.perf_counter()
            rows, scores, halo = self._encode_shard(
                shard, [datapoints[i] for i in positions])
            busy_s = time.perf_counter() - start
            if emb is None:
                emb = np.empty((len(datapoints), rows.shape[1]),
                               dtype=rows.dtype)
                importance = np.empty(len(datapoints), dtype=scores.dtype)
            emb[positions] = rows
            importance[positions] = scores
            ledger = self.counters[shard]
            ledger.requests += len(positions)
            ledger.halo_fetches += halo
            ledger.worker_busy_s += busy_s
        return emb, importance

    def _encode_shard(self, home_shard: int, datapoints: list):
        """One shard's slice of a micro-batch: sample + encode + count halo."""
        store = self.store
        store.reset_counters()
        store.home_shard = home_shard
        try:
            # Batched frontier expansion: pull every session's seed rows in
            # one grouped fetch per shard before sampling, so the
            # per-session expansions below start from a warm halo cache
            # instead of each paying its own shard round-trips.
            store.prefetch_rows(batch_seed_nodes(datapoints))
            subgraphs = self.generator.subgraphs_for(datapoints)
            with no_grad():
                emb = self.model.encode_subgraphs(subgraphs,
                                                  arena=self.arena)
                importance = self.model.importance(emb).data
            return emb.data, importance, store.halo_fetches
        finally:
            store.home_shard = None

    def stats(self) -> tuple[ShardCounters, ...]:
        """Immutable snapshot of the per-shard ledgers."""
        return tuple(c.snapshot() for c in self.counters)
