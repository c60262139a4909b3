"""Bipartite task-graph construction (Sec. III-B, Fig. 1 right).

A task graph ``G^T`` for an m-way episode holds ``P`` prompt data nodes,
``n`` query data nodes and ``m`` label nodes.  Every data node connects to
every label node; edge attributes encode (prompt vs. query) × (true label vs.
not): prompts use "T"/"F" attributes, queries use the unknown "?" attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gnn import (
    EDGE_ATTR_PROMPT_FALSE,
    EDGE_ATTR_PROMPT_TRUE,
    EDGE_ATTR_QUERY,
)

__all__ = ["TaskGraph", "build_task_graph"]


@dataclass(frozen=True)
class TaskGraph:
    """Edge structure + node index bookkeeping of one episode's task graph.

    Node ordering is ``[prompts | queries | labels]``.  The graph is a
    complete (data × label) bipartite grid, so ``attr_grid`` — one
    attribute per (data node, label) pair — determines it; the edge list
    is that grid flattened row by row (edge ``i·m + j`` joins data node
    ``i`` to label ``j``).
    """

    attr_grid: np.ndarray    # (prompts + queries, ways) T / F / ? ids
    num_prompts: int
    num_queries: int
    num_ways: int

    @property
    def num_data(self) -> int:
        return self.num_prompts + self.num_queries

    @property
    def num_nodes(self) -> int:
        return self.num_data + self.num_ways

    @property
    def src(self) -> np.ndarray:
        """Data-node endpoint of each edge."""
        return np.repeat(np.arange(self.num_data), self.num_ways)

    @property
    def dst(self) -> np.ndarray:
        """Label-node endpoint of each edge."""
        return self.num_data + np.tile(np.arange(self.num_ways),
                                       self.num_data)

    @property
    def attr(self) -> np.ndarray:
        """T / F / ? attribute id of each edge."""
        return self.attr_grid.reshape(-1)

    @property
    def prompt_ids(self) -> np.ndarray:
        return np.arange(self.num_prompts)

    @property
    def query_ids(self) -> np.ndarray:
        return self.num_prompts + np.arange(self.num_queries)

    @property
    def label_ids(self) -> np.ndarray:
        return self.num_data + np.arange(self.num_ways)


def check_task_graph(prompt_labels: np.ndarray, num_queries: int,
                     num_ways: int) -> None:
    """Raise ``ValueError`` unless ``prompt_labels`` (int64), the query
    count and the way count make a task graph."""
    if num_ways < 2:
        raise ValueError("task graph needs at least two label nodes")
    if prompt_labels.size and (prompt_labels.min() < 0
                               or prompt_labels.max() >= num_ways):
        raise ValueError("prompt labels must lie in [0, num_ways)")
    if num_queries < 1:
        raise ValueError("task graph needs at least one query")


def prompt_attributes(prompt_labels: np.ndarray,
                      num_ways: int) -> np.ndarray:
    """The ``(prompts, ways)`` rows of ``attr_grid``: "T" on each prompt's
    true label, "F" elsewhere."""
    return np.where(prompt_labels[:, None] == np.arange(num_ways),
                    EDGE_ATTR_PROMPT_TRUE, EDGE_ATTR_PROMPT_FALSE)


def build_task_graph(prompt_labels: np.ndarray, num_queries: int,
                     num_ways: int) -> TaskGraph:
    """Construct the fully-connected bipartite task graph.

    ``prompt_labels`` are episode-local labels in ``[0, num_ways)``; each
    prompt node is wired to all ``num_ways`` label nodes with attribute "T"
    on its true label and "F" elsewhere; each query is wired to all label
    nodes with the query attribute.
    """
    prompt_labels = np.asarray(prompt_labels, dtype=np.int64)
    check_task_graph(prompt_labels, num_queries, num_ways)
    num_prompts = int(prompt_labels.shape[0])
    attr_grid = np.full((num_prompts + num_queries, num_ways),
                        EDGE_ATTR_QUERY, dtype=np.int64)
    attr_grid[:num_prompts] = prompt_attributes(prompt_labels, num_ways)
    return TaskGraph(
        attr_grid=attr_grid,
        num_prompts=num_prompts,
        num_queries=num_queries,
        num_ways=num_ways,
    )
