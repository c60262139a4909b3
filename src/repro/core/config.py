"""Configuration for the GraphPrompter model and pipeline.

The four stage toggles (`use_reconstruction`, `use_selection_layers`,
`use_knn`, `use_augmenter`) correspond exactly to the Fig. 3 ablation rows;
setting all four to ``False`` recovers the Prodigy baseline (random prompt
selection, unweighted subgraphs, no test-time augmentation).

The config holds what shapes the model and its answers.  ``str(config)``
keys the pre-trained weights cache, so it carries no serving setting:
batch size, session bounds and persistence are
:class:`~repro.serving.PromptServer` keywords, and admission, batching,
deadline and trace-sampling settings are
:class:`~repro.serving.ServingGateway` keywords.  Each is set and
validated there, once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["GraphPrompterConfig", "prodigy_config"]


@dataclass(frozen=True)
class GraphPrompterConfig:
    """Hyper-parameters of the full multi-stage pipeline.

    Attributes
    ----------
    hidden_dim:
        Embedding width (paper: 256 on GPU; CPU default 32).  Serving
        needs a width whose matrix-product rows do not depend on the
        row count — a multiple of 8 under OpenBLAS, pinned up to 8,005
        rows by ``tests/test_batch_invariance.py::
        test_row_invariant_product_rows_match_full_product`` — because
        micro-batching, pool refreshes and the encoding memo all reuse
        a row computed in another batch.  Widths such as 12 or 20 are
        accepted but break those byte-identity contracts.
    num_gnn_layers:
        Depth of the data-graph encoder ``GNN_D``.
    num_task_layers:
        Depth of the attention GNN over the task graph ``GNN_T``.
    num_hops:
        ``l`` — subgraph radius (paper default 1; Fig. 8 sweeps 1–3).
    max_subgraph_nodes:
        Preset node limit of the random-walk sampler (Sec. IV-A1).
    conv:
        Data-graph convolution: ``"sage"`` (paper) or ``"gat"`` (Fig. 4).
    sampling_method:
        ``"random_walk"`` (paper) or ``"bfs"``.
    use_reconstruction:
        Stage 1 — learn edge weights (Eqs. 2–3) instead of raw subgraphs.
    use_selection_layers:
        Stage 2a — pre-trained importance scores ``I_p`` (Eq. 5).
    use_knn:
        Stage 2b — kNN retrieval of prompts by similarity (Eq. 6).
    use_augmenter:
        Stage 3 — online pseudo-label cache (Eq. 9).
    cache_size:
        ``c`` — Augmenter cache capacity (paper: 3, Fig. 5 sweeps 1–10).
    cache_policy:
        Replacement policy of the Augmenter cache: ``"lfu"`` (paper),
        ``"lru"`` or ``"fifo"`` (Further Discussion: "we can replace the
        cache … with other caching solutions").
    recon_scorer:
        Edge-scoring network of the reconstruction layer: ``"mlp"``
        (paper, Eq. 2), ``"bilinear"`` or ``"cosine_gate"`` (Further
        Discussion: "the reconstruction layer … can be replaced with
        networks other than just MLP").
    knn_metric:
        Similarity for Eq. 6: ``"cosine"`` (default), ``"euclidean"`` or
        ``"manhattan"`` (the paper notes the metric is substitutable).
    temperature:
        Scale applied to cosine logits before softmax/cross-entropy.
    random_pseudo_labels:
        Table VII ablation — fill the cache with random queries instead of
        the most confident ones.
    deterministic_sampling:
        Seed each datapoint's subgraph sampler by the datapoint identity
        instead of one shared stream, so subgraphs are independent of call
        order.  Required by the online serving path (batched == unbatched
        predictions) and by split streaming episodes that must replay a
        merged run exactly.
    mutable_graph:
        Enable the serving layer's live-update path
        (:meth:`~repro.serving.PromptServer.update_graph`): online
        edge/node mutations flow through
        :class:`~repro.graph.DeltaAdjacency` overlays and stale session
        caches are invalidated by graph-version epoch instead of serving
        pre-mutation prompts.
    compact_threshold:
        Overlay fraction (tombstoned + delta slots relative to live
        slots) above which a mutated graph folds its overlays back into
        clean CSR bases.  Only consulted when ``mutable_graph`` is on.
    """

    hidden_dim: int = 32
    num_gnn_layers: int = 2
    num_task_layers: int = 2
    num_hops: int = 1
    max_subgraph_nodes: int = 20
    conv: str = "sage"
    sampling_method: str = "random_walk"
    use_reconstruction: bool = True
    use_selection_layers: bool = True
    use_knn: bool = True
    use_augmenter: bool = True
    cache_size: int = 3
    cache_policy: str = "lfu"
    recon_scorer: str = "mlp"
    knn_metric: str = "cosine"
    temperature: float = 10.0
    random_pseudo_labels: bool = False
    deterministic_sampling: bool = False
    mutable_graph: bool = False
    compact_threshold: float = 0.25
    seed: int = 0

    def validate(self) -> "GraphPrompterConfig":
        """Raise on inconsistent settings; returns self for chaining."""
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if self.num_hops < 0:
            raise ValueError("num_hops must be non-negative")
        if self.cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        if self.conv not in ("sage", "gat"):
            raise ValueError(f"unknown conv {self.conv!r}")
        if self.sampling_method not in ("random_walk", "bfs"):
            raise ValueError(f"unknown sampler {self.sampling_method!r}")
        if self.knn_metric not in ("cosine", "euclidean", "manhattan"):
            raise ValueError(f"unknown knn metric {self.knn_metric!r}")
        if self.cache_policy not in ("lfu", "lru", "fifo"):
            raise ValueError(f"unknown cache policy {self.cache_policy!r}")
        if self.recon_scorer not in ("mlp", "bilinear", "cosine_gate"):
            raise ValueError(f"unknown recon scorer {self.recon_scorer!r}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive")
        return self

    def ablate(self, **flags) -> "GraphPrompterConfig":
        """Return a copy with some stages toggled (Fig. 3 helper)."""
        return replace(self, **flags)


def prodigy_config(base: GraphPrompterConfig | None = None) -> GraphPrompterConfig:
    """The Prodigy baseline: every GraphPrompter stage switched off."""
    base = base or GraphPrompterConfig()
    return base.ablate(
        use_reconstruction=False,
        use_selection_layers=False,
        use_knn=False,
        use_augmenter=False,
    )
