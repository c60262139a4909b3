"""Configuration for the GraphPrompter model and pipeline.

The three stage toggles (`use_reconstruction`, `use_selection_layers`,
`use_knn`, `use_augmenter`) correspond exactly to the Fig. 3 ablation rows;
setting all four to ``False`` recovers the Prodigy baseline (random prompt
selection, unweighted subgraphs, no test-time augmentation).
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
        Embedding width (paper: 256 on GPU; CPU default 32).
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
    num_shards:
        Default shard count of the serving layer's
        :class:`~repro.shard.ShardedGraphStore` (1 = monolithic).
        Sharding never changes predictions — sampling over the sharded
        store is bit-identical to the monolithic sampler.
    shard_strategy:
        Node-partition strategy: ``"greedy"`` (degree-balanced) or
        ``"hash"`` (stateless splitmix64).
    gateway_max_queue:
        Bound of the serving gateway's admission queue (across all
        priority classes).  Above it requests are shed with a typed
        ``Overloaded`` result; lower priority classes are shed earlier
        (at fixed fractions of the bound) so interactive latency stays
        bounded under overload.
    gateway_max_batch_size:
        Micro-batch size cap of each gateway priority queue.
    gateway_max_wait_s:
        Age bound of a waiting gateway batch (the base release policy);
        the deadline-aware policy usually fires first.
    gateway_flush_fraction:
        Fraction of a request's deadline budget it may spend queued
        before its class queue force-flushes, leaving the rest of the
        budget for service.
    gateway_tenant_rate_qps:
        Sustained per-tenant admission rate (token-bucket refill);
        0 disables rate limiting.
    gateway_tenant_burst:
        Token-bucket capacity: how many requests a tenant may burst
        above the sustained rate.
    gateway_tenant_quota:
        Absolute per-tenant admitted-query quota (0 = unlimited).
    gateway_deadline_interactive_s / gateway_deadline_batch_s /
    gateway_deadline_background_s:
        Deadline budget attached to each admitted request by priority
        class.
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
    obs_metrics_enabled:
        Record serving-layer metrics into the ambient
        :class:`~repro.obs.MetricsRegistry` (near-zero-cost hot-path
        instruments plus scrape-time ledger mirrors).  ``False`` gives
        the server a disabled registry: every record path short-circuits
        after one branch.
    obs_trace_every:
        Deterministic request-trace sampling rate for the serving
        gateway: every N-th submitted request carries a
        :class:`~repro.obs.TraceContext` collecting per-stage spans
        (admission, queue wait, encode, shard fan-out, predict, total).
        0 (the default) disables tracing; any N is safe to leave on —
        sampling is counter-based (no RNG), so traced runs stay
        bit-identical to untraced ones.
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
    num_shards: int = 1
    shard_strategy: str = "greedy"
    mutable_graph: bool = False
    compact_threshold: float = 0.25
    gateway_max_queue: int = 128
    gateway_max_batch_size: int = 16
    gateway_max_wait_s: float = 1.0
    gateway_flush_fraction: float = 0.5
    gateway_tenant_rate_qps: float = 0.0
    gateway_tenant_burst: float = 16.0
    gateway_tenant_quota: int = 0
    gateway_deadline_interactive_s: float = 0.05
    gateway_deadline_batch_s: float = 0.5
    gateway_deadline_background_s: float = 5.0
    obs_metrics_enabled: bool = True
    obs_trace_every: int = 0
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
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if self.shard_strategy not in ("greedy", "hash"):
            raise ValueError(f"unknown shard strategy {self.shard_strategy!r}")
        if self.compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive")
        if self.gateway_max_queue < 1:
            raise ValueError("gateway_max_queue must be at least 1")
        if self.gateway_max_batch_size < 1:
            raise ValueError("gateway_max_batch_size must be at least 1")
        if self.gateway_max_wait_s < 0:
            raise ValueError("gateway_max_wait_s must be non-negative")
        if not 0.0 < self.gateway_flush_fraction <= 1.0:
            raise ValueError("gateway_flush_fraction must be in (0, 1]")
        if self.gateway_tenant_rate_qps < 0:
            raise ValueError("gateway_tenant_rate_qps must be non-negative")
        if self.gateway_tenant_burst <= 0:
            raise ValueError("gateway_tenant_burst must be positive")
        if self.gateway_tenant_quota < 0:
            raise ValueError("gateway_tenant_quota must be non-negative")
        for name in ("gateway_deadline_interactive_s",
                     "gateway_deadline_batch_s",
                     "gateway_deadline_background_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.obs_trace_every < 0:
            raise ValueError("obs_trace_every must be non-negative")
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
