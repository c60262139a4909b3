"""Dataset wrapper: a graph plus a classification task and data splits.

A :class:`Dataset` exposes the universe of classifiable *datapoints* — nodes
for node-classification datasets (arXiv-style) or edges for relation
classification (FB15K-237-style) — with train/val/test partitions, matching
"each downstream classification dataset is accompanied by its original
train, validation, and test partitions" (Sec. V-A2).
"""

from __future__ import annotations

import numpy as np

from ..graph import EdgeInput, Graph, NodeInput
from ..graph.datapoints import EDGE_TASK, NODE_TASK

__all__ = ["Dataset", "NODE_TASK", "EDGE_TASK"]


class Dataset:
    """A graph with a classification task over its nodes or edges."""

    def __init__(
        self,
        graph: Graph,
        task: str,
        name: str | None = None,
        split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
        rng: np.random.Generator | int | None = None,
    ):
        if task not in (NODE_TASK, EDGE_TASK):
            raise ValueError(f"task must be {NODE_TASK!r} or {EDGE_TASK!r}")
        if task == NODE_TASK and graph.node_labels is None:
            raise ValueError("node task requires node labels")
        if abs(sum(split_fractions) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to one")
        self.graph = graph
        self.task = task
        self.name = name or graph.name
        rng = np.random.default_rng(rng)

        if task == NODE_TASK:
            self._labels = graph.node_labels.copy()
        else:
            self._labels = graph.rel.copy()
        num = self._labels.shape[0]
        order = rng.permutation(num)
        n_train = int(split_fractions[0] * num)
        n_val = int(split_fractions[1] * num)
        self.splits = {
            "train": np.sort(order[:n_train]),
            "val": np.sort(order[n_train:n_train + n_val]),
            "test": np.sort(order[n_train + n_val:]),
        }

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return int(self._labels.max()) + 1 if self._labels.size else 0

    @property
    def num_datapoints(self) -> int:
        return int(self._labels.shape[0])

    def label_of(self, datapoint_id: int) -> int:
        """Ground-truth class of a datapoint id."""
        return int(self._labels[datapoint_id])

    def labels_of(self, datapoint_ids: np.ndarray) -> np.ndarray:
        return self._labels[np.asarray(datapoint_ids, dtype=np.int64)]

    def datapoint(self, datapoint_id: int, with_label: bool = True):
        """Materialise a datapoint id into a :class:`NodeInput`/:class:`EdgeInput`."""
        if self.task == NODE_TASK:
            return NodeInput(int(datapoint_id))
        u, r, v = self.graph.edge_endpoints(int(datapoint_id))
        return EdgeInput(u, v, relation=r if with_label else None)

    def ids_with_label(self, label: int, split: str = "train") -> np.ndarray:
        """Datapoint ids of class ``label`` inside ``split``."""
        ids = self.splits[split]
        return ids[self._labels[ids] == label]

    def classes_with_support(self, min_count: int, split: str = "train") -> np.ndarray:
        """Classes that have at least ``min_count`` examples in ``split``."""
        ids = self.splits[split]
        counts = np.bincount(self._labels[ids], minlength=self.num_classes)
        return np.nonzero(counts >= min_count)[0]

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, task={self.task!r}, "
            f"datapoints={self.num_datapoints}, classes={self.num_classes})"
        )
