"""Hot-path microbenchmarks: serving QPS, sharding, mutation, gateway.

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
* ``serving_microbatch`` — end-to-end :class:`~repro.serving.PromptServer`
  queries/sec, per-query serving vs. cross-session micro-batching.

The ``shard`` profile benchmarks the horizontal-scale subsystem instead
(``repro bench --profile shard``):

* ``shard_partition`` — greedy vs. hash partition wall-clock;
* ``shard_sampling`` — monolithic CSR sampling vs. the K-shard
  :class:`~repro.shard.ShardedGraphStore` (bit-identical outputs; the
  ratio tracks the halo-resolution overhead);
* ``shard_halo_cache`` / ``shard_batched_frontier_qps`` — the halo row
  cache and the batched frontier prefetch.

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

import numpy as np

from ..core import GraphPrompterConfig, GraphPrompterModel
from ..datasets import Dataset, EDGE_TASK
from ..datasets.synthetic import synthetic_knowledge_graph
from ..experiments.replay import (
    replay_gateway,
    replay_workload,
    sample_episodes,
)
from ..graph.sampling import bfs_neighborhood, random_walk_neighborhood
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
                 serve_sessions=6, serve_queries=10, serve_batch=16,
                 num_ways=5, min_runtime_s=0.1),
    "quick": dict(nodes=1500, edges=9000, relations=8, feature_dim=32,
                  max_nodes=48, hidden_dim=32,
                  serve_sessions=4, serve_queries=6, serve_batch=16,
                  num_ways=5, min_runtime_s=0.05),
    "smoke": dict(nodes=300, edges=1800, relations=6, feature_dim=16,
                  max_nodes=24, hidden_dim=16,
                  serve_sessions=2, serve_queries=3, serve_batch=4,
                  num_ways=3, min_runtime_s=0.01),
    # Horizontal-scale subsystem (runs the shard benchmarks only).
    # ``serve_batch`` is the number of concurrent sessions whose
    # frontiers one batched prefetch pulls.
    "shard": dict(sample_nodes=4000, sample_edges=400_000,
                  sample_calls=24, bfs_hops=2, bfs_cap=256,
                  rw_hops=3, rw_cap=1024,
                  shard_k=2, serve_batch=32, min_runtime_s=0.05),
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
    """Partition time, cross-shard sampling overhead, halo caching."""
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

    Both replay paths record into a fresh metrics registry scoped in, so
    the ratio CI gates includes the per-event cost of the observability
    layer along with admission, ledgers and asyncio.
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
        benchmarks.update(_serving_benchmark(_benchmark_graph(p), p))
    return {
        "schema": SCHEMA_VERSION,
        "profile": profile,
        "benchmarks": benchmarks,
    }


def check_regression(current: dict, baseline: dict,
                     tolerance: float = 1.5) -> list[str]:
    """Compare two result dicts; returns human-readable failures.

    A benchmark regresses when its speedup ratio falls below the
    baseline's by more than ``tolerance``× — ratios, not absolute times,
    so the check is portable across machines (the committed baseline was
    produced on different hardware than CI runners).  A baseline row
    with a speedup that the run no longer produces fails too: a gate
    must not pass by dropping its row.  Rows found only in the run are
    not compared — a new benchmark has no baseline yet.
    """
    if tolerance < 1.0:
        raise ValueError("tolerance must be at least 1.0")
    failures = []
    benchmarks = current.get("benchmarks", {})
    for name, base in baseline.get("benchmarks", {}).items():
        if "speedup" not in base:
            continue
        result = benchmarks.get(name)
        if result is None or "speedup" not in result:
            failures.append(
                f"{name}: baseline speedup {base['speedup']:.2f}x but the "
                f"run produced no speedup for it")
            continue
        floor = base["speedup"] / tolerance
        if result["speedup"] < floor:
            failures.append(
                f"{name}: speedup {result['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x / "
                f"tolerance {tolerance:g})")
    return failures
