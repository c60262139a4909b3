"""Input datapoints ``x_i = (V_i, E_i, R_i)`` for classification tasks.

Definition 2 of the paper: a node-classification input consists of a single
node (``|V_i| = 1``); an edge-classification input is a (head, tail) pair
with one relation (``|V_i| = 2, |E_i| = 1``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["NodeInput", "EdgeInput", "Datapoint", "validate_datapoint",
           "NODE_TASK", "EDGE_TASK"]

NODE_TASK = "node"
EDGE_TASK = "edge"


@dataclass(frozen=True)
class NodeInput:
    """A single node whose label is to be predicted."""

    node: int

    @property
    def nodes(self) -> np.ndarray:
        return np.array([self.node], dtype=np.int64)

    @property
    def relation(self) -> None:
        return None


@dataclass(frozen=True)
class EdgeInput:
    """A (head, tail) pair whose relation label is to be predicted.

    ``relation`` is the ground-truth relation when known (training / prompt
    examples) and ``None`` for queries.
    """

    head: int
    tail: int
    relation: int | None = None

    @property
    def nodes(self) -> np.ndarray:
        return np.array([self.head, self.tail], dtype=np.int64)


Datapoint = NodeInput | EdgeInput


#: The datapoint type each classification task takes.
_TASK_INPUTS = {NODE_TASK: NodeInput, EDGE_TASK: EdgeInput}


def validate_datapoint(datapoint, num_nodes: int, num_relations: int,
                       task: str) -> None:
    """Raise ``ValueError`` unless ``datapoint`` is servable for a task.

    It must be the ``task``'s input type — a :class:`NodeInput` on a node
    task, an :class:`EdgeInput` on an edge task — every node id an
    integer in ``[0, num_nodes)``, and the relation ``None`` or an
    integer in ``[0, num_relations)``.
    """
    if isinstance(datapoint, NodeInput):
        ids = (datapoint.node,)
    elif isinstance(datapoint, EdgeInput):
        ids = (datapoint.head, datapoint.tail)
    else:
        raise ValueError(f"datapoint must be a NodeInput or an EdgeInput, "
                         f"not {type(datapoint).__name__}")
    expected = _TASK_INPUTS[task]
    if not isinstance(datapoint, expected):
        raise ValueError(f"a {task} task takes {expected.__name__} "
                         f"datapoints, not {type(datapoint).__name__}")
    for value in ids:
        if not _index_in(value, num_nodes):
            raise ValueError(f"node id {value!r} outside [0, {num_nodes})")
    relation = datapoint.relation
    if relation is not None and not _index_in(relation, num_relations):
        raise ValueError(
            f"relation {relation!r} outside [0, {num_relations})")


def _index_in(value, size: int) -> bool:
    try:
        return 0 <= operator.index(value) < size
    except TypeError:
        return False
