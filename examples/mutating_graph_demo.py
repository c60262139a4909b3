"""Live-graph mutation demo: delta overlay → epoch invalidation → serving.

Mutates a knowledge graph while it is being served: adds and removes
edges (and appends nodes) through the `DeltaAdjacency` overlay, shows
that every read stays bit-identical to a from-scratch rebuild, watches
the overlay grow and compact, then runs a `PromptServer` with
`mutable_graph=True` and demonstrates cache-epoch invalidation — the
session whose subgraphs the mutation touched is refreshed (only the
pool candidates the mutation touched re-encoded, its pseudo-label cache
purged as `stale_evictions`) while untouched sessions keep their caches,
and post-mutation predictions equal a cold rebuild's.

Run:  python examples/mutating_graph_demo.py      (~1 min; --fast for CI)
"""

import argparse

import numpy as np

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    PretrainConfig,
    Pretrainer,
    sample_episode,
)
from repro.datasets import Dataset, load_dataset
from repro.graph import GraphUpdate
from repro.graph.sampling import random_walk_neighborhood
from repro.serving import PromptServer
from repro.shard import ShardedGraphStore

NUM_SESSIONS = 3
QUERIES_PER_SESSION = 8


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="CI scale: fewer pre-training steps")
    steps = 20 if parser.parse_args().fast else 60
    rng = np.random.default_rng(0)
    config = GraphPrompterConfig(hidden_dim=24, max_subgraph_nodes=16,
                                 mutable_graph=True, compact_threshold=0.15)

    # ------------------------------------------------------------------
    # 1. The overlay write path: mutate, read, compare against a rebuild.
    # ------------------------------------------------------------------
    base = load_dataset("nell")
    graph = base.graph.rebuild()  # private copy we are free to mutate
    graph.undirected_adjacency    # CSRs in service before the first write
    graph.adjacency
    print(f"live graph: {graph.num_nodes} nodes, "
          f"{graph.num_live_edges} edges")

    graph.add_edges(rng.integers(0, graph.num_nodes, 200),
                    rng.integers(0, graph.num_nodes, 200),
                    rng.integers(0, graph.num_relations, 200))
    _, _, _, live = graph.live_edges()
    graph.remove_edges(rng.choice(live, 100, replace=False))
    new = graph.add_nodes(rng.normal(size=(5, graph.feature_dim)))
    graph.add_edges(new, rng.integers(0, graph.num_nodes, new.size))
    print(f"after updates: {graph.num_live_edges} live edges, "
          f"overlay {100 * graph.overlay_fraction:.1f}% "
          f"(auto-compacts past {100 * config.compact_threshold:.0f}%)")

    reference = graph.rebuild()
    sample = random_walk_neighborhood(graph, np.array([7]), 3, 24,
                                      np.random.default_rng(5))
    expect = random_walk_neighborhood(reference, np.array([7]), 3, 24,
                                      np.random.default_rng(5))
    assert np.array_equal(sample, expect)
    print("sampling over the overlay == from-scratch rebuild: OK")

    # Tiered compaction: rows the sampler keeps re-reading are promoted
    # into contiguous side storage (read-transparent — same rows, back on
    # the fused gather path); a later write would demote them again.
    adj = graph.undirected_adjacency
    everything = np.arange(graph.num_nodes, dtype=np.int64)
    for _ in range(3):
        adj.gather_neighbors(everything)
    tiers = adj.overlay_stats()
    print(f"tiering: {tiers['promoted_rows']} hot dirty rows promoted "
          f"({tiers['promotions']} promotions, "
          f"{tiers['demotions']} demotions, "
          f"{tiers['side_slots']} side slots)")

    # Halo row cache: a 2-shard store over the same mutated graph pulls
    # each remote row once; the repeat pass is answered locally.
    store = ShardedGraphStore.from_graph(graph, 2, "greedy")
    frontier = rng.integers(0, graph.num_nodes, 64)
    store.gather_neighbors(frontier)  # cold pass fills the cache
    store.gather_neighbors(frontier)  # warm pass: pure hits
    cache = store.cache_stats()
    print(f"halo cache: {cache['hits']} hits / {cache['misses']} misses, "
          f"{cache['cached_rows']} rows cached, "
          f"{cache['invalidations']} epoch flushes")

    graph.compact()
    assert graph.overlay_fraction == 0.0
    print("compacted: overlay folded back into clean CSR bases\n")

    # ------------------------------------------------------------------
    # 2. Serving while mutating: epoch invalidation.
    # ------------------------------------------------------------------
    dataset = Dataset(graph, base.task, name="nell-live", rng=0)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    Pretrainer(model, dataset, PretrainConfig(steps=steps),
               rng=0).train()

    server = PromptServer(model, dataset, max_batch_size=8, rng=0)
    episodes = [sample_episode(dataset, num_ways=3,
                               num_queries=QUERIES_PER_SESSION, rng=10 + i)
                for i in range(NUM_SESSIONS)]
    for i, episode in enumerate(episodes):
        server.open_session(f"tenant-{i}", episode)
    for q in range(QUERIES_PER_SESSION // 2):
        for i, episode in enumerate(episodes):
            server.submit(f"tenant-{i}", episode.queries[q])
    server.drain()

    # Mutate nodes tenant-0 depends on.  Every session whose sampled
    # subgraphs overlap the touched nodes is invalidated (on this shared
    # graph the tenants' regions overlap, so typically all of them);
    # tests/test_serving.py shows disjoint sessions keeping their caches.
    deps = sorted(server.sessions.get("tenant-0").dependent_nodes)
    server.update_graph(GraphUpdate(add_src=[deps[0]], add_dst=[deps[-1]],
                                    add_rel=[0]))
    stats = server.stats
    print(f"update touched nodes {deps[0]} and {deps[-1]}: "
          f"{stats.sessions_invalidated} session(s) marked stale "
          f"(graph epoch {stats.graph_version})")

    for q in range(QUERIES_PER_SESSION // 2, QUERIES_PER_SESSION):
        for i, episode in enumerate(episodes):
            server.submit(f"tenant-{i}", episode.queries[q])
    server.drain()
    pool_rows = sum(len(server.sessions.get(f"tenant-{i}").pool)
                    for i in range(NUM_SESSIONS))
    print(f"refresh replaced {server.stats.refreshed_candidates} of "
          f"{pool_rows} pool candidates")
    for i in range(NUM_SESSIONS):
        state = server.sessions.get(f"tenant-{i}")
        cache = state.augmenter.stats()
        print(f"  tenant-{i}: stale_evictions={cache.stale_evictions} "
              f"cache_size={cache.size} epoch={state.graph_version}")

    # ------------------------------------------------------------------
    # 3. The acceptance property: mutated server == cold rebuild.
    # ------------------------------------------------------------------
    cold_dataset = Dataset(graph.rebuild(), base.task, name="nell-cold",
                           rng=0)
    cold = PromptServer(model, cold_dataset, max_batch_size=8, rng=0)
    answers = {}
    for tag, srv in (("mutated", server), ("cold", cold)):
        for i, episode in enumerate(episodes):
            srv.open_session(f"check-{i}", episode)
        for q in range(QUERIES_PER_SESSION):
            for i, episode in enumerate(episodes):
                srv.submit(f"check-{i}", episode.queries[q])
        answers[tag] = [(r.session_id, r.prediction) for r in srv.drain()]
    assert answers["mutated"] == answers["cold"]
    print("\npost-mutation predictions == cold rebuild: OK")


if __name__ == "__main__":
    main()
