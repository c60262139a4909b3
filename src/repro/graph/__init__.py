"""Graph substrate: containers, CSR adjacency, samplers and subgraphs."""

from .csr import CSRAdjacency
from .datapoints import Datapoint, EdgeInput, NodeInput
from .delta import AppliedUpdate, DeltaAdjacency, GraphUpdate
from .graph import Graph
from .interop import from_networkx, to_networkx
from .sampling import (
    bfs_neighborhood,
    random_walk_neighborhood,
    sample_data_graph,
    sample_node_set,
)
from .subgraph import Subgraph, induced_subgraph

__all__ = [
    "AppliedUpdate",
    "CSRAdjacency",
    "DeltaAdjacency",
    "Graph",
    "GraphUpdate",
    "from_networkx",
    "to_networkx",
    "Subgraph",
    "induced_subgraph",
    "NodeInput",
    "EdgeInput",
    "Datapoint",
    "bfs_neighborhood",
    "random_walk_neighborhood",
    "sample_data_graph",
    "sample_node_set",
]
