"""Hot-path microbenchmarks: accelerated encoding, pool bytes, serving QPS.

Each benchmark times the *same work* through two paths, so the reported
number is a hardware-portable **speedup ratio** rather than an absolute
wall-clock (absolute times are also recorded for local trend reading).
``repro bench`` writes the results to ``BENCH_hotpaths.json``; CI re-runs
the quick profile and fails when any speedup regresses more than
``tolerance``× against the committed baseline (see
:func:`check_regression`).  The served workloads' per-layer costs are
measured end to end by ``perfbench/`` instead.

Benchmarked pairs
-----------------
* ``encoding_fast`` — the exact numpy no-grad forward vs. the ``"fused"``
  tensor backend (CSR-matmul message passing at float32, see
  :mod:`repro.nn.backend`), on a serving-shaped fat micro-batch.
* ``pool_bytes_per_session`` — at-rest candidate-pool bytes, fp64 ndarray
  vs. int8 per-row-scale quantization (ratio under the ``speedup`` key so
  the standard floor gate applies; not a timing).
* ``serving_microbatch`` — end-to-end :class:`~repro.serving.PromptServer`
  queries/sec, per-query serving vs. cross-session micro-batching.

The ``shard`` profile benchmarks the horizontal-scale subsystem instead
(``repro bench --profile shard``):

* ``shard_partition`` — greedy vs. hash partition wall-clock;
* ``shard_sampling`` — monolithic CSR sampling vs. the K-shard
  :class:`~repro.shard.ShardedGraphStore` (bit-identical outputs; the
  ratio tracks the halo-resolution overhead);
* ``shard_parallel_qps`` — sharded serve QPS, single worker vs. the
  process pool.

The ``mutate`` profile benchmarks the live-update subsystem
(``repro bench --profile mutate``):

* ``mutation_apply`` — absorbing an add+remove batch through the
  :class:`~repro.graph.DeltaAdjacency` overlay vs. rebuilding the
  undirected CSR from scratch (what a frozen-graph system pays per
  update batch);
* ``mutation_sampling_overlay`` — sampling on a clean CSR vs. the same
  graph carrying a ~10% overlay (the read-path cost compaction bounds);
* ``mutation_compact`` — compaction wall-clock and edge throughput.
"""

from __future__ import annotations

import os

import numpy as np

from ..core import GraphPrompterConfig, GraphPrompterModel, sample_episode
from ..datasets import Dataset, EDGE_TASK
from ..datasets.synthetic import synthetic_knowledge_graph
from ..experiments.replay import (
    replay_gateway,
    replay_workload,
    sample_episodes,
)
from ..gnn import SubgraphBatch
from ..graph import EdgeInput, sample_data_graph
from ..graph.sampling import bfs_neighborhood, random_walk_neighborhood
from ..nn import no_grad
from ..serving import PromptServer
from .microbench import time_callable

__all__ = ["PROFILES", "run_benchmarks", "check_regression"]

SCHEMA_VERSION = 1

#: Workload sizes per profile.  ``full`` is the committed-baseline scale,
#: ``quick`` the CI smoke scale, ``smoke`` a seconds-fast scale for the
#: test suite.
#:
#: The shard and mutation sampling benchmarks run on a *dense* uniform
#: multigraph (mean degree in the hundreds) with production-sized node
#: caps: the paper picks random walks precisely because exact expansion
#: explodes on large dense source graphs, so that is where halo and
#: overlay read costs show.
PROFILES = {
    "full": dict(nodes=4000, edges=24000, relations=8, feature_dim=32,
                 max_nodes=48, hidden_dim=32,
                 fast_subgraphs=64, fast_cap=96, fast_hidden=64,
                 pool_shots=3,
                 serve_sessions=6, serve_queries=10, serve_batch=16,
                 num_ways=5, min_runtime_s=0.1),
    "quick": dict(nodes=1500, edges=9000, relations=8, feature_dim=32,
                  max_nodes=48, hidden_dim=32,
                  fast_subgraphs=48, fast_cap=96, fast_hidden=64,
                  pool_shots=3,
                  serve_sessions=4, serve_queries=6, serve_batch=16,
                  num_ways=5, min_runtime_s=0.05),
    "smoke": dict(nodes=300, edges=1800, relations=6, feature_dim=16,
                  max_nodes=24, hidden_dim=16,
                  fast_subgraphs=16, fast_cap=24, fast_hidden=16,
                  pool_shots=2,
                  serve_sessions=2, serve_queries=3, serve_batch=4,
                  num_ways=3, min_runtime_s=0.01),
    # Horizontal-scale subsystem (runs the shard benchmarks only).  The
    # serving workload is deliberately encode-heavy (wide model, large
    # subgraph cap, fat micro-batches): process workers only pay off once
    # per-task compute dominates task pickling, which is the regime the
    # pool targets — web-scale graphs, not smoke-test ones.
    "shard": dict(sample_nodes=4000, sample_edges=400_000,
                  sample_calls=24, bfs_hops=2, bfs_cap=256,
                  rw_hops=3, rw_cap=1024,
                  nodes=3000, edges=18000, relations=8, feature_dim=32,
                  max_nodes=48, hidden_dim=64,
                  shard_k=2, serve_sessions=6, serve_queries=12,
                  serve_batch=32, serve_workers=2,
                  num_ways=5, min_runtime_s=0.05),
    # Live-update subsystem (runs the mutation benchmarks only).  The
    # apply benchmark cycles one batch of adds followed by the matching
    # removes, so the live edge set — and therefore the work per timed
    # call — stays fixed while the id space grows realistically.
    "mutate": dict(sample_nodes=4000, sample_edges=400_000,
                   sample_calls=24, bfs_hops=2, bfs_cap=256,
                   rw_hops=3, rw_cap=1024,
                   mutate_batch=512, overlay_fraction=0.10,
                   min_runtime_s=0.05),
    # Multi-tenant gateway (runs the gateway benchmarks only): the
    # admission/priority/deadline machinery's end-to-end overhead over a
    # bare PromptServer drain.
    "gateway": dict(nodes=1500, edges=9000, relations=8, feature_dim=32,
                    hidden_dim=32, max_nodes=48,
                    serve_sessions=4, serve_queries=6, serve_batch=8,
                    num_ways=5, min_runtime_s=0.05),
}


def _pair(base_s: float, fast_s: float, base_key: str,
          fast_key: str) -> dict:
    return {
        base_key: base_s,
        fast_key: fast_s,
        "speedup": base_s / fast_s if fast_s > 0 else float("inf"),
    }


def _benchmark_graph(p: dict):
    return synthetic_knowledge_graph(
        p["nodes"], p["relations"], p["edges"],
        feature_dim=p["feature_dim"], rng=0, name="bench-kg")


def _served_workload(graph, p: dict):
    """``(model, dataset, episodes)``: an untrained model over ``graph``
    and the seeded sessions every serving replay uses."""
    config = GraphPrompterConfig(hidden_dim=p["hidden_dim"],
                                 max_subgraph_nodes=p["max_nodes"])
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations, config)
    episodes = sample_episodes(dataset, p["serve_sessions"], p["num_ways"],
                               p["serve_queries"], 100)
    return model, dataset, episodes


def _dense_sampling_graph(p: dict):
    from ..graph import Graph

    rng_np = np.random.default_rng(3)
    n, m = p["sample_nodes"], p["sample_edges"]
    return Graph(n, rng_np.integers(0, n, size=m),
                 rng_np.integers(0, n, size=m),
                 node_features=np.zeros((n, 2)), name="bench-dense")


def _make_subgraphs(graph, count: int, num_hops: int, max_nodes: int):
    rng_np = np.random.default_rng(2)
    heads = rng_np.integers(0, graph.num_nodes, size=count)
    tails = rng_np.integers(0, graph.num_nodes, size=count)
    return [
        sample_data_graph(graph, EdgeInput(int(u), int(v), relation=0),
                          num_hops=num_hops, max_nodes=max_nodes,
                          rng=np.random.default_rng(i))
        for i, (u, v) in enumerate(zip(heads, tails))
    ]


def _encoding_fast_benchmark(graph, p: dict) -> dict:
    """The fused tensor backend vs. the exact numpy no-grad path.

    Both sides run the same no-grad encoder forward; the fast side swaps
    in the ``"fused"`` backend (CSR-matmul message passing — sorted-segment
    reduceat when scipy is absent — at float32).  The workload is a
    serving-shaped fat micro-batch, where the scatter kernels and gemms
    dominate Python overhead, because that is the regime the accelerated
    backend targets.  No environment keys are recorded: the win comes from
    fused kernels and float32 bandwidth, not threading, so the ratio must
    hold on 1-core CI runners too.
    """
    config = GraphPrompterConfig(hidden_dim=p["fast_hidden"])
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    fast_model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                                    config.ablate(tensor_backend="fused"))
    fast_model.load_state_dict(model.state_dict())
    model.eval()
    fast_model.eval()
    batch = SubgraphBatch.from_subgraphs(
        _make_subgraphs(graph, p["fast_subgraphs"], num_hops=2,
                        max_nodes=p["fast_cap"]))

    def exact_path():
        with no_grad():
            model.encode_batch(batch)

    def fast_path():
        with no_grad():
            fast_model.encode_batch(batch)

    exact = time_callable(exact_path, min_runtime_s=p["min_runtime_s"],
                          repeats=5)
    fast = time_callable(fast_path, min_runtime_s=p["min_runtime_s"],
                         repeats=5)
    result = _pair(exact.per_call_s, fast.per_call_s, "numpy_f64_s",
                   "fused_f32_s")
    result["subgraphs_per_batch"] = p["fast_subgraphs"]
    result["hidden_dim"] = p["fast_hidden"]
    return {"encoding_fast": result}


def _pool_bytes_benchmark(graph, p: dict) -> dict:
    """At-rest candidate-pool bytes: fp64 ndarray vs. int8 quantized.

    Opens the same session under both ``pool_quantization`` settings and
    compares :meth:`SessionState.pool_nbytes`.  Reported under the
    ``speedup`` key as the reduction ratio (fp64 bytes / int8 bytes) so
    the standard regression gate — and the CI ``--floor`` — apply; a
    floor of 3.3 is the ≤0.3x-of-fp64 acceptance bound.  Predictions
    under quantized pools are agreement-gated in
    ``tests/test_backend_equivalence.py``, not here.
    """
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    episode = sample_episode(dataset, num_ways=p["num_ways"],
                             num_queries=1, rng=7)
    sizes = {}
    for quant in ("none", "int8"):
        config = GraphPrompterConfig(hidden_dim=p["hidden_dim"],
                                     max_subgraph_nodes=p["max_nodes"],
                                     pool_quantization=quant)
        model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                                   config)
        with PromptServer(model, dataset, rng=0) as server:
            state = server.open_session("pool-bytes", episode,
                                        shots=p["pool_shots"])
            sizes[quant] = state.pool_nbytes()
            rows, dim = state.candidate_emb.shape
    return {"pool_bytes_per_session": {
        "fp64_bytes": sizes["none"],
        "int8_bytes": sizes["int8"],
        "speedup": (sizes["none"] / sizes["int8"]
                    if sizes["int8"] else float("inf")),
        "pool_rows": rows,
        "hidden_dim": dim,
    }}


def _serving_benchmark(graph, p: dict) -> dict:
    # The replay protocol (round-robin arrival across sessions) is the one
    # serve-bench replays, so the perf baseline measures exactly the
    # workload serve-bench validates.
    model, dataset, episodes = _served_workload(graph, p)

    def run(batch_size: int) -> float:
        # Best-of-3 replays, like the calibrated timer used everywhere
        # else: one wall-clock sample would let a scheduler hiccup (or the
        # first-touch warm-up the first run pays) skew the CI-gated ratio.
        best = 0.0
        for _ in range(3):
            server = PromptServer(model, dataset, max_batch_size=batch_size,
                                  rng=0)
            results, elapsed = replay_workload(server, episodes)
            best = max(best, len(results) / elapsed)
        return best

    qps_single = run(1)
    qps_batched = run(p["serve_batch"])
    return {"serving_microbatch": {
        "qps_per_query": qps_single,
        "qps_batched": qps_batched,
        "speedup": qps_batched / qps_single if qps_single > 0 else float("inf"),
        "batch_size": p["serve_batch"],
        "sessions": p["serve_sessions"],
    }}


def _shard_benchmarks(p: dict) -> dict:
    """Partition time, cross-shard sampling overhead, parallel serve QPS."""
    from ..shard import ShardedGraphStore, partition_graph

    dense = _dense_sampling_graph(p)
    dense.undirected_adjacency  # CSR build outside the timed region
    K = p["shard_k"]
    out: dict = {"shard_partition": {}}
    for strategy in ("greedy", "hash"):
        measured = time_callable(
            lambda strategy=strategy: partition_graph(dense, K, strategy),
            min_runtime_s=p["min_runtime_s"], repeats=3)
        out["shard_partition"][f"{strategy}_s"] = measured.per_call_s
    out["shard_partition"]["num_shards"] = K
    out["shard_partition"]["edges"] = dense.num_edges

    # Cross-shard sampling: the K-shard store's halo resolution vs. the
    # monolithic CSR, same seeds and draws (outputs are bit-identical —
    # the equivalence suite asserts it; this pins what it costs).
    view = ShardedGraphStore.from_graph(dense, K, "greedy").view()
    rng_np = np.random.default_rng(1)
    seeds = rng_np.integers(0, dense.num_nodes, size=p["sample_calls"])

    def run(graph, sampler, hops, cap):
        rng = np.random.default_rng(0)

        def call():
            for seed in seeds:
                sampler(graph, np.array([seed]), hops, cap, rng)
        return call

    for name, sampler, hops, cap in (
            ("shard_sampling_bfs", bfs_neighborhood,
             p["bfs_hops"], p["bfs_cap"]),
            ("shard_sampling_random_walk", random_walk_neighborhood,
             p["rw_hops"], p["rw_cap"])):
        mono = time_callable(run(dense, sampler, hops, cap),
                             min_runtime_s=p["min_runtime_s"], repeats=5)
        sharded = time_callable(run(view, sampler, hops, cap),
                                min_runtime_s=p["min_runtime_s"], repeats=5)
        # speedup < 1 is expected: this ratio tracks halo overhead, and
        # the regression check guards it from silently getting worse.
        out[name] = _pair(mono.per_call_s, sharded.per_call_s,
                          "monolithic_s", "sharded_s")
        out[name]["num_shards"] = K

    # Halo row cache: repeated expansion of the same frontier with the
    # cache disabled (every remote row re-pulled and re-translated per
    # call) vs. warm (hits answered from the contiguous ghost-row
    # buffer).  Read-transparent — the equivalence suite asserts the
    # rows match; this ratio pins the payoff (speedup > 1 expected).
    store = ShardedGraphStore.from_graph(dense, K, "greedy")
    frontier = rng_np.integers(0, dense.num_nodes, size=p["bfs_cap"])

    def expand():
        store.gather_neighbors(frontier)

    store.cache_enabled = False
    uncached = time_callable(expand, min_runtime_s=p["min_runtime_s"],
                             repeats=5)
    store.cache_enabled = True
    store.reset_counters()
    expand()  # warm fill outside the timed region
    cached = time_callable(expand, min_runtime_s=p["min_runtime_s"],
                           repeats=5)
    stats = store.cache_stats()
    halo = _pair(uncached.per_call_s, cached.per_call_s,
                 "uncached_s", "cached_s")
    halo["num_shards"] = K
    halo["frontier_rows"] = int(frontier.size)
    halo["hit_rate"] = (stats["hits"]
                        / max(stats["hits"] + stats["misses"], 1))
    out["shard_halo_cache"] = halo

    # Batched frontier expansion: a micro-batch of concurrent sessions,
    # each holding its own frontier.  Per-session, every session pays its
    # own store round-trip (one gather per session — the pre-batching
    # serving path); batched, one grouped prefetch pulls the union of all
    # frontiers in a single round-trip per shard, which is what the
    # router now does ahead of sampling.
    sessions = p["serve_batch"]
    rows_per_session = max(1, p["bfs_cap"] // sessions)
    session_frontiers = [
        rng_np.integers(0, dense.num_nodes, size=rows_per_session)
        for _ in range(sessions)
    ]
    union = np.concatenate(session_frontiers)

    def per_session():
        for session_frontier in session_frontiers:
            store.gather_neighbors(session_frontier)

    def batched():
        store._cache_reset(store.num_nodes)  # force a cold prefetch
        store.prefetch_rows(union)

    store.cache_enabled = False
    per = time_callable(per_session, min_runtime_s=p["min_runtime_s"],
                        repeats=5)
    store.cache_enabled = True
    bat = time_callable(batched, min_runtime_s=p["min_runtime_s"],
                        repeats=5)
    frontier_qps = _pair(per.per_call_s, bat.per_call_s,
                         "per_session_s", "batched_s")
    frontier_qps["num_shards"] = K
    frontier_qps["batch_sessions"] = sessions
    frontier_qps["frontier_rows"] = int(union.size)
    frontier_qps["batches_per_sec"] = (1.0 / bat.per_call_s
                                       if bat.per_call_s > 0
                                       else float("inf"))
    out["shard_batched_frontier_qps"] = frontier_qps

    # Parallel serving: K shards, 1 worker vs. the process pool.
    model, dataset, episodes = _served_workload(_benchmark_graph(p), p)

    def serve_qps(num_workers: int, backend: str) -> tuple[float, str]:
        best, effective = 0.0, backend
        for _ in range(3):
            server = PromptServer(model, dataset,
                                  max_batch_size=p["serve_batch"], rng=0,
                                  num_shards=K, num_workers=num_workers,
                                  worker_backend=backend)
            results, elapsed = replay_workload(server, episodes)
            best = max(best, len(results) / elapsed)
            effective = server.router.backend
            server.close()
        return best, effective

    from ..shard.workers import usable_cores

    # ``auto`` picks processes only on multi-core hosts, so on a 1-core
    # runner this measures the serial fallback against itself (speedup
    # ~1.0) instead of paying IPC for parallelism the host cannot give.
    # ``cores`` is recorded so baselines stay interpretable across
    # machines.
    qps_serial, _ = serve_qps(1, "serial")
    qps_parallel, effective = serve_qps(p["serve_workers"], "auto")
    out["shard_parallel_qps"] = {
        "qps_1worker": qps_serial,
        "qps_parallel": qps_parallel,
        "speedup": (qps_parallel / qps_serial if qps_serial > 0
                    else float("inf")),
        "workers": p["serve_workers"],
        "num_shards": K,
        "backend": effective,
        "cores": usable_cores(),
        # Raw host core count alongside affinity-aware ``cores``: when a
        # container pins affinity below the hardware size the two
        # diverge, which is the first thing to check when a parallel-QPS
        # baseline looks implausible.
        "cpu_count": os.cpu_count() or 1,
    }
    return out


def _mutation_benchmarks(p: dict) -> dict:
    """Overlay apply throughput, overlay read overhead, compaction."""
    from ..graph import CSRAdjacency

    out: dict = {}
    batch = p["mutate_batch"]

    # Apply: absorb (add K, remove the same K) through the overlay vs.
    # rebuilding the undirected CSR from the live list — the per-batch
    # cost a frozen-graph serving system pays for the same freshness.
    graph = _dense_sampling_graph(p)
    graph.adjacency
    graph.undirected_adjacency  # promote-and-build outside the timed region
    rng_np = np.random.default_rng(5)
    add_src = rng_np.integers(0, graph.num_nodes, size=batch)
    add_dst = rng_np.integers(0, graph.num_nodes, size=batch)

    def overlay_cycle():
        eids = graph.add_edges(add_src, add_dst)
        graph.remove_edges(eids)

    overlay_cycle()  # first cycle pays overlay promotion; warm it up

    def rebuild_cycle():
        src, dst, _, _ = graph.live_edges()
        CSRAdjacency(graph.num_nodes,
                     np.concatenate([src, dst]),
                     np.concatenate([dst, src]))

    rebuild = time_callable(rebuild_cycle, min_runtime_s=p["min_runtime_s"],
                            repeats=3)
    overlay = time_callable(overlay_cycle, min_runtime_s=p["min_runtime_s"],
                            repeats=3)
    result = _pair(rebuild.per_call_s, overlay.per_call_s,
                   "rebuild_s", "overlay_s")
    result["batch_edges"] = 2 * batch  # adds + removes per cycle
    result["apply_edges_per_sec"] = (2 * batch / overlay.per_call_s
                                   if overlay.per_call_s > 0 else float("inf"))
    out["mutation_apply"] = result

    # Read overhead: sampling over a clean CSR vs. the same graph carrying
    # an uncompacted overlay at the configured fraction (bit-identical
    # outputs — the differential suite asserts it; this pins the cost).
    clean = _dense_sampling_graph(p)
    clean.undirected_adjacency

    def make_dirty(tier_enabled: bool):
        mutated = clean.rebuild()
        mutated.tier_enabled = tier_enabled
        # Build the CSR *before* mutating: only then do the writes land in
        # a live overlay.  (Mutating first would let the lazy build fold
        # them into a clean base and this benchmark would sample zero
        # overlay.)
        mutated.undirected_adjacency
        count = int(mutated.num_live_edges * p["overlay_fraction"] / 2)
        mut_rng = np.random.default_rng(6)
        mutated.add_edges(mut_rng.integers(0, mutated.num_nodes, size=count),
                          mut_rng.integers(0, mutated.num_nodes, size=count))
        mutated.remove_edges(mut_rng.choice(clean.num_edges, size=count,
                                            replace=False))
        return mutated

    dirty = make_dirty(tier_enabled=True)
    assert dirty.overlay_fraction > 0, "benchmark must sample a live overlay"
    seeds = np.random.default_rng(1).integers(0, clean.num_nodes,
                                              size=p["sample_calls"])

    def run(graph, sampler, hops, cap):
        rng = np.random.default_rng(0)

        def call():
            for seed in seeds:
                sampler(graph, np.array([seed]), hops, cap, rng)
        return call

    for name, sampler, hops, cap in (
            ("mutation_sampling_bfs", bfs_neighborhood,
             p["bfs_hops"], p["bfs_cap"]),
            ("mutation_sampling_random_walk", random_walk_neighborhood,
             p["rw_hops"], p["rw_cap"])):
        clean_t = time_callable(run(clean, sampler, hops, cap),
                                min_runtime_s=p["min_runtime_s"], repeats=5)
        dirty_t = time_callable(run(dirty, sampler, hops, cap),
                                min_runtime_s=p["min_runtime_s"], repeats=5)
        # speedup < 1 is expected: the ratio tracks the overlay read
        # overhead compaction exists to bound.
        out[name] = _pair(clean_t.per_call_s, dirty_t.per_call_s,
                          "clean_s", "overlay_s")
        out[name]["overlay_fraction"] = dirty.overlay_fraction

    # Tiered compaction payoff: the same overlay sampled with row
    # promotion disabled (every dirty row re-assembled per read) vs. the
    # default tiered path, where hot dirty rows are re-materialized into
    # contiguous side storage and the frontier gather stays fused.
    # Outputs are bit-identical — the differential suite asserts it;
    # this ratio pins what the tier buys (speedup > 1 expected).
    untiered = make_dirty(tier_enabled=False)
    delta_t = time_callable(run(untiered, bfs_neighborhood,
                                p["bfs_hops"], p["bfs_cap"]),
                            min_runtime_s=p["min_runtime_s"], repeats=5)
    tiered_t = time_callable(run(dirty, bfs_neighborhood,
                                 p["bfs_hops"], p["bfs_cap"]),
                             min_runtime_s=p["min_runtime_s"], repeats=5)
    tiered = _pair(delta_t.per_call_s, tiered_t.per_call_s,
                   "delta_only_s", "tiered_s")
    tier_stats = dirty.undirected_adjacency.overlay_stats()
    tiered["promoted_rows"] = tier_stats["promoted_rows"]
    out["mutation_sampling_bfs_tiered"] = tiered

    # Compaction: fold the overlay back into clean bases.  Repeatable —
    # compacting an already-clean mutated graph still rebuilds both
    # adjacency views from the live list, which is exactly the work.
    compact = time_callable(dirty.compact, min_runtime_s=p["min_runtime_s"],
                            repeats=3)
    out["mutation_compact"] = {
        "compact_s": compact.per_call_s,
        "edges_per_sec": (dirty.num_live_edges / compact.per_call_s
                        if compact.per_call_s > 0 else float("inf")),
        "live_edges": dirty.num_live_edges,
    }
    return out


def _gateway_benchmarks(p: dict) -> dict:
    """Gateway overhead vs. bare server on the same round-robin replay.

    Both replay paths run with a **live metrics registry** scoped in, so
    the ratio CI gates includes the per-event cost of the observability
    layer — that is the "metrics enabled regresses < 5%" acceptance
    check, pinned structurally rather than by a separate benchmark.
    """
    import asyncio

    from ..obs.metrics import MetricsRegistry, scoped_registry
    from ..serving import ServingGateway

    model, dataset, episodes = _served_workload(_benchmark_graph(p), p)

    def direct_replay() -> float:
        server = PromptServer(model, dataset,
                              max_batch_size=p["serve_batch"], rng=0)
        results, elapsed = replay_workload(server, episodes)
        return len(results) / elapsed

    async def gateway_replay() -> float:
        server = PromptServer(model, dataset,
                              max_batch_size=p["serve_batch"], rng=0)
        gateway = ServingGateway(server, max_queue=4096,
                                 max_batch_size=p["serve_batch"],
                                 auto_drain=False)
        for i, (session_id, episode) in enumerate(episodes.items()):
            gateway.open_session(f"tenant-{i}", session_id, episode)
        tick = [(session_id, q) for q in range(p["serve_queries"])
                for session_id in episodes]
        outcomes, elapsed = await replay_gateway(gateway, episodes, [tick])
        await gateway.close()
        return len(outcomes) / elapsed

    def best_qps(replay_once) -> float:
        best = 0.0
        for _ in range(3):
            with scoped_registry(MetricsRegistry()):
                best = max(best, replay_once())
        return best

    qps_direct = best_qps(direct_replay)
    qps_gateway = best_qps(lambda: asyncio.run(gateway_replay()))
    return {"gateway_overhead": {
        "qps_direct": qps_direct,
        "qps_gateway": qps_gateway,
        # Ratio ≤ 1 expected: it tracks the admission + ledger + asyncio
        # overhead per query; the regression check guards it from
        # silently growing.
        "speedup": qps_gateway / qps_direct if qps_direct > 0
        else float("inf"),
        "batch_size": p["serve_batch"],
        "sessions": p["serve_sessions"],
        "metrics_enabled": True,
    }}


def run_benchmarks(profile: str = "full") -> dict:
    """Run every hot-path benchmark; returns the JSON-ready result dict."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"use one of {sorted(PROFILES)}")
    p = PROFILES[profile]
    benchmarks: dict = {}
    if profile == "shard":
        benchmarks.update(_shard_benchmarks(p))
    elif profile == "mutate":
        benchmarks.update(_mutation_benchmarks(p))
    elif profile == "gateway":
        benchmarks.update(_gateway_benchmarks(p))
    else:
        graph = _benchmark_graph(p)
        benchmarks.update(_encoding_fast_benchmark(graph, p))
        benchmarks.update(_pool_bytes_benchmark(graph, p))
        benchmarks.update(_serving_benchmark(graph, p))
    return {
        "schema": SCHEMA_VERSION,
        "profile": profile,
        "benchmarks": benchmarks,
    }


#: Result keys recording the *environment* a ratio was measured under.
#: When current and baseline disagree on one (e.g. the parallel-QPS row
#: measured with the process pool on a multi-core runner vs. the serial
#: fallback on a 1-core box), their speedups describe different
#: experiments and comparing them would only produce false alarms.
_ENVIRONMENT_KEYS = ("backend", "cores")


def check_regression(current: dict, baseline: dict,
                     tolerance: float = 1.5,
                     skipped: list[str] | None = None) -> list[str]:
    """Compare two result dicts; returns human-readable failures.

    A benchmark regresses when its speedup ratio falls below the
    baseline's by more than ``tolerance``× — ratios, not absolute times,
    so the check is portable across machines (the committed baseline was
    produced on different hardware than CI runners).  Benchmarks whose
    recorded environment keys (``backend``/``cores``) differ from the
    baseline's are skipped: their ratios measure different experiments.
    Pass a ``skipped`` list to receive one explicit message per skip
    (which keys diverged, run vs. baseline) — a silently passing gate
    that compared nothing is indistinguishable from a healthy one
    otherwise.  The return value stays the failures list either way.
    """
    if tolerance < 1.0:
        raise ValueError("tolerance must be at least 1.0")
    failures = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name, result in current.get("benchmarks", {}).items():
        base = base_benchmarks.get(name)
        if base is None or "speedup" not in base or "speedup" not in result:
            continue
        mismatched = [key for key in _ENVIRONMENT_KEYS
                      if (key in result or key in base)
                      and result.get(key) != base.get(key)]
        if mismatched:
            if skipped is not None:
                detail = ", ".join(
                    f"{key} run={result.get(key)!r} "
                    f"baseline={base.get(key)!r}" for key in mismatched)
                skipped.append(
                    f"{name}: environment-skipped — {detail}")
            continue
        floor = base["speedup"] / tolerance
        if result["speedup"] < floor:
            failures.append(
                f"{name}: speedup {result['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x / "
                f"tolerance {tolerance:g})")
    return failures
