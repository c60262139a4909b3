"""Sharded graph execution: partitioner and sharded store.

The horizontal-scale subsystem: an edge-cut **partitioner**
(:func:`partition_graph` — greedy-balance or hash node assignment, stable
global↔local id maps, per-shard CSR) and a **ShardedGraphStore**
answering the monolithic adjacency's query surface with halo/ghost
resolution across shard boundaries (bit-identical sampling, any K).
:class:`~repro.serving.ShardRouter` wires both into
:class:`~repro.serving.PromptServer`.
"""

from .partition import (
    PARTITION_STRATEGIES,
    GraphShard,
    ShardPlan,
    partition_graph,
    partition_nodes,
)
from .store import ShardCounters, ShardedGraphStore, ShardedGraphView

__all__ = [
    "PARTITION_STRATEGIES",
    "GraphShard",
    "ShardPlan",
    "ShardCounters",
    "ShardedGraphStore",
    "ShardedGraphView",
    "partition_graph",
    "partition_nodes",
]
