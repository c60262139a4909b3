"""Online serving demo: many sessions, one model, micro-batched encoding.

Opens several concurrent logical sessions against one pre-trained
GraphPrompter model, streams interleaved single-query requests through
:class:`repro.serving.PromptServer`, and prints what the serving layer did:
micro-batch sizes, per-session Augmenter cache ledgers, and the throughput
difference against per-query (batch size 1) serving of the same workload.

Run:  python examples/serving_demo.py      (~1 min; --fast for CI scale)
"""

import argparse
import time

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    PretrainConfig,
    Pretrainer,
    sample_episode,
)
from repro.datasets import load_dataset
from repro.serving import PromptServer

NUM_SESSIONS = 4
QUERIES_PER_SESSION = 12


def parse_fast() -> bool:
    """Shared demo flag: ``--fast`` shrinks the workload to CI scale."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="CI scale: fewer pre-training steps and queries")
    return parser.parse_args().fast


def run_workload(server, episodes, queries_per_session):
    """Round-robin submit + drain; returns (results, wall_seconds)."""
    for i, episode in enumerate(episodes):
        server.open_session(f"tenant-{i}", episode)
    start = time.perf_counter()
    for q in range(queries_per_session):
        for i, episode in enumerate(episodes):
            server.submit(f"tenant-{i}", episode.queries[q])
    results = server.drain()
    return results, time.perf_counter() - start


def main():
    fast = parse_fast()
    steps = 30 if fast else 200
    num_sessions = 2 if fast else NUM_SESSIONS
    queries = 4 if fast else QUERIES_PER_SESSION
    config = GraphPrompterConfig(hidden_dim=24, max_subgraph_nodes=16,
                                 cache_size=3)
    wiki = load_dataset("wiki")
    nell = load_dataset("nell")

    print("pre-training on", wiki.name, "…")
    model = GraphPrompterModel(wiki.graph.feature_dim,
                               wiki.graph.num_relations, config)
    Pretrainer(model, wiki, PretrainConfig(steps=steps, num_ways=8),
               rng=0).train()
    target = GraphPrompterModel(nell.graph.feature_dim,
                                nell.graph.num_relations, config)
    target.load_state_dict(model.state_dict())

    episodes = [sample_episode(nell, num_ways=5,
                               num_queries=queries, rng=i)
                for i in range(num_sessions)]

    print(f"\nserving {num_sessions} sessions × {queries} "
          f"queries on {nell.name}:")
    outcomes = {}
    for batch_size in (1, 16):
        server = PromptServer(target, nell, max_batch_size=batch_size,
                              session_ttl_s=300.0, rng=7)
        results, elapsed = run_workload(server, episodes, queries)
        outcomes[batch_size] = results
        print(f"\n  max_batch_size={batch_size:>2}: "
              f"{len(results) / elapsed:7.1f} queries/s  "
              f"(mean micro-batch {server.stats.mean_batch_size:.1f})")
        for sid in server.sessions.ids():
            state = server.sessions.get(sid)
            cache = state.cache_stats()
            print(f"    {sid}: {state.stats.queries} queries, "
                  f"{cache.insertions} cache insertions, "
                  f"{cache.hits} cache hits, {cache.evictions} evictions")

    same = ([r.prediction for r in outcomes[1]]
            == [r.prediction for r in outcomes[16]])
    print(f"\nbatched == per-query predictions: {same}")
    print("(micro-batching coalesces the GNN encoding across sessions — "
          "it changes throughput,\n never answers; see "
          "benchmarks/test_serving_throughput.py for the measured table)")


if __name__ == "__main__":
    main()
