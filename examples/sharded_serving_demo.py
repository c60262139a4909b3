"""Sharded serving demo: partition → store → router.

Splits a knowledge graph into shards, shows that sampling over the
sharded store is bit-identical to the monolithic engines, then serves the
same multi-session workload unsharded and sharded and prints the
per-shard counters (requests routed, halo fetches across shard
boundaries, encode time per shard) — with identical predictions.

Run:  python examples/sharded_serving_demo.py      (~1 min; --fast for CI)
"""

import argparse
import time

import numpy as np

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    PretrainConfig,
    Pretrainer,
    sample_episode,
)
from repro.datasets import load_dataset
from repro.graph.sampling import random_walk_neighborhood
from repro.serving import PromptServer
from repro.shard import ShardedGraphStore, partition_graph

NUM_SESSIONS = 4
QUERIES_PER_SESSION = 10
NUM_SHARDS = 4


def run_workload(server, episodes):
    for i, episode in enumerate(episodes):
        server.open_session(f"tenant-{i}", episode)
    start = time.perf_counter()
    for q in range(QUERIES_PER_SESSION):
        for i, episode in enumerate(episodes):
            server.submit(f"tenant-{i}", episode.queries[q])
    results = server.drain()
    return results, time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="CI scale: fewer pre-training steps")
    steps = 30 if parser.parse_args().fast else 200
    config = GraphPrompterConfig(hidden_dim=24, max_subgraph_nodes=16)
    wiki = load_dataset("wiki")
    nell = load_dataset("nell")

    # 1. Partition the serving graph and inspect the shards.
    plan = partition_graph(nell.graph, NUM_SHARDS, "greedy")
    print(f"partitioned {nell.name}: {nell.graph.num_nodes} nodes, "
          f"{nell.graph.num_edges} edges -> {NUM_SHARDS} shards")
    for shard in plan.shards:
        print(f"  shard {shard.shard_id}: {shard.num_owned} nodes, "
              f"{shard.edge_ids.size} edges, {shard.num_ghosts} ghosts")

    # 2. Sharded sampling is bit-identical to the monolithic engine.
    view = ShardedGraphStore(nell.graph, plan).view()
    seeds = np.array([3])
    mono = random_walk_neighborhood(nell.graph, seeds, 3, 16,
                                    np.random.default_rng(0))
    sharded = random_walk_neighborhood(view, seeds, 3, 16,
                                       np.random.default_rng(0))
    print(f"\nsharded sampling bit-identical: "
          f"{np.array_equal(mono, sharded)}")

    # 3. Serve the same workload unsharded and sharded.
    print("\npre-training on", wiki.name, "…")
    model = GraphPrompterModel(wiki.graph.feature_dim,
                               wiki.graph.num_relations, config)
    Pretrainer(model, wiki, PretrainConfig(steps=steps, num_ways=8),
               rng=0).train()
    target = GraphPrompterModel(nell.graph.feature_dim,
                                nell.graph.num_relations, config)
    target.load_state_dict(model.state_dict())

    episodes = [sample_episode(nell, num_ways=5,
                               num_queries=QUERIES_PER_SESSION, rng=i)
                for i in range(NUM_SESSIONS)]

    outcomes = {}
    for label, kwargs in (
            ("unsharded", {}),
            (f"{NUM_SHARDS} shards", dict(num_shards=NUM_SHARDS))):
        server = PromptServer(target, nell, max_batch_size=16, rng=7,
                              **kwargs)
        results, elapsed = run_workload(server, episodes)
        outcomes[label] = results
        print(f"\n  {label}: {len(results) / elapsed:7.1f} queries/s")
        for counters in server.stats.shards:
            print(f"    shard {counters.shard_id}: "
                  f"{counters.requests} requests, "
                  f"{counters.halo_fetches} halo fetches, "
                  f"{1000 * counters.worker_busy_s:.1f} ms busy")

    labels = list(outcomes)
    same = ([r.prediction for r in outcomes[labels[0]]]
            == [r.prediction for r in outcomes[labels[1]]])
    print(f"\nsharded == unsharded predictions: {same}")
    print("(sharding changes where each row is fetched from, never an "
          "answer;\n see 'python -m repro serve-bench-sharded' for the "
          "measured table)")


if __name__ == "__main__":
    main()
