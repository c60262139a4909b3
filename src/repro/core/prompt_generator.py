"""Stage 1 — Prompt Generator (Sec. IV-A).

Turns datapoints into data graphs: random-walk / BFS sampling of the l-hop
neighbourhood (Eq. 1).  The *reconstruction* half of the stage (Eqs. 2–4)
is parameterised and therefore lives on the model
(:meth:`~repro.core.model.GraphPrompterModel.reconstruction_weights`); this
class owns the sampling half and the subgraph plumbing.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, Subgraph, sample_data_graph
from ..graph.datapoints import Datapoint
from ..obs.tracing import span
from .config import GraphPrompterConfig

__all__ = ["PromptGenerator"]


class PromptGenerator:
    """Samples data graphs ``G_i^D`` for datapoints of one source graph.

    With ``deterministic=True`` every datapoint gets its own RNG seeded by
    its identity (seed nodes + relation + ``salt``) instead of drawing from
    one shared stream.  The sampled subgraph then depends only on the
    datapoint, never on *when* or *with whom* it is sampled — the property
    the serving layer relies on to keep micro-batched predictions identical
    to per-query ones, and what makes split streaming episodes reproduce a
    merged run exactly.
    """

    def __init__(self, graph: Graph, config: GraphPrompterConfig,
                 rng: np.random.Generator | int | None = None,
                 deterministic: bool = False, salt: int = 0):
        self.graph = graph
        self.config = config.validate()
        self.rng = np.random.default_rng(rng)
        self.deterministic = deterministic
        self.salt = salt

    @property
    def reads_only_seed_rows(self) -> bool:
        """Whether a sample reads the adjacency rows of its seeds alone.

        With at most one hop the random walk reads each seed's row and
        stops, and BFS gathers the seeds' rows once; a deeper sample also
        reads the rows of nodes it reached, anywhere in its node set.
        """
        return self.config.num_hops <= 1

    def _rng_for(self, datapoint: Datapoint) -> np.random.Generator:
        if not self.deterministic:
            return self.rng
        material = [self.salt] + [int(n) for n in datapoint.nodes]
        if datapoint.relation is not None:
            material.append(int(datapoint.relation))
        return np.random.default_rng(material)

    def subgraph_for(self, datapoint: Datapoint) -> Subgraph:
        """Sample one data graph (Eq. 1) with the configured strategy."""
        return sample_data_graph(
            self.graph,
            datapoint,
            num_hops=self.config.num_hops,
            max_nodes=self.config.max_subgraph_nodes,
            rng=self._rng_for(datapoint),
            method=self.config.sampling_method,
        )

    def subgraphs_for(self, datapoints: list[Datapoint]) -> list[Subgraph]:
        """Sample data graphs for a list of datapoints."""
        with span("sample"):
            return [self.subgraph_for(dp) for dp in datapoints]
