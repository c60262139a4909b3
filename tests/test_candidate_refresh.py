"""Per-candidate refresh: a graph update re-encodes only what it touched.

A session keeps each pool candidate's node ids as the encode pass
sampled them.  An update marks stale only the candidates whose nodes it
touched, and the refresh re-encodes just those rows and splices them in.
These tests pin the three things that must hold for that to be exact:

* the recorded node sets are exactly what the sampler visits, for the
  pool and for every answered query;
* an update touching ``k`` candidates re-encodes exactly ``k`` rows;
* after any stream of updates — with new nodes and an auto-compaction,
  on one shard and on two — every refreshed pool equals a full
  re-encode on the live graph, by bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    GraphPrompterPipeline,
    sample_episode,
)
from repro.datasets import EDGE_TASK, Dataset
from repro.datasets.synthetic import synthetic_knowledge_graph
from repro.experiments.serving import random_graph_update
from repro.graph import GraphUpdate, sample_node_set
from repro.serving import PromptServer


def _server(num_shards: int = 1, compact_threshold: float = 0.25,
            seed: int = 0):
    graph = synthetic_knowledge_graph(300, 3, 900, feature_dim=6, rng=seed)
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=8, max_subgraph_nodes=8,
                                 mutable_graph=True,
                                 compact_threshold=compact_threshold)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    model.eval()
    return PromptServer(model, dataset, max_batch_size=8, rng=0,
                        num_shards=num_shards)


def _episodes(server, count: int, seed: int = 0) -> dict:
    return {f"s{i}": sample_episode(server.dataset, num_ways=3,
                                    num_candidates_per_class=6,
                                    num_queries=6, rng=seed + i)
            for i in range(count)}


def _node_sets(session) -> list[list[int]]:
    """Each candidate's recorded node ids, sorted."""
    return [sorted(session.pool_nodes[session.pool_node_owner == c].tolist())
            for c in range(len(session.pool))]


def _full_encode(server, datapoints):
    """A monolithic, from-scratch encode on the server's live graph."""
    pipeline = GraphPrompterPipeline(server.model, server.dataset, rng=0)
    pipeline.generator.deterministic = True
    return pipeline.encode_points(datapoints)


def test_recorded_node_sets_equal_sample_node_set():
    server = _server()
    episodes = _episodes(server, 2)
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    for q in range(3):
        for session_id, episode in episodes.items():
            server.submit(session_id, episode.queries[q])
    server.drain()
    generator = server.pipeline.generator
    config = server.config

    def sampled(datapoint):
        return sample_node_set(
            server.dataset.graph, datapoint, num_hops=config.num_hops,
            max_nodes=config.max_subgraph_nodes,
            rng=generator._rng_for(datapoint),
            method=config.sampling_method).tolist()

    for session_id, episode in episodes.items():
        session = server.sessions.get(session_id)
        assert _node_sets(session) == [sorted(sampled(dp))
                                       for dp in session.pool]
        queried = sorted({n for q in range(3)
                          for n in sampled(episode.queries[q])})
        assert np.flatnonzero(session.query_nodes).tolist() == queried
        assert session.dependent_nodes == frozenset(
            session.pool_nodes.tolist() + queried)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_update_touching_k_candidates_reencodes_exactly_k(k):
    server = _server()
    [(session_id, episode)] = _episodes(server, 1).items()
    session = server.open_session(session_id, episode)
    # A node only candidate c samples, per candidate that has one.
    owners: dict[int, set] = {}
    for node, owner in zip(session.pool_nodes.tolist(),
                           session.pool_node_owner.tolist()):
        owners.setdefault(node, set()).add(owner)
    exclusive = {}
    for node, members in sorted(owners.items()):
        if len(members) == 1:
            exclusive.setdefault(members.pop(), node)
    assert len(exclusive) >= k
    chosen = sorted(exclusive)[:k]
    graph = server.dataset.graph
    new_node = graph.num_nodes
    before = server.stats
    # Each added edge joins a chosen candidate's exclusive node to one new
    # node that no subgraph holds yet: exactly k candidates are touched.
    server.update_graph(GraphUpdate(
        add_src=[exclusive[c] for c in chosen], add_dst=[new_node] * k,
        add_rel=[0] * k,
        add_node_features=np.zeros((1, graph.feature_dim))))
    assert session.stale
    assert np.flatnonzero(session.stale_candidates).tolist() == chosen
    server.submit(session_id, episode.queries[0])
    server.drain()
    after = server.stats
    assert after.sessions_invalidated - before.sessions_invalidated == 1
    assert (after.refreshed_candidates
            - before.refreshed_candidates) == k
    emb, importance, _ = _full_encode(server, session.pool)
    assert session.candidate_emb.tobytes() == emb.tobytes()
    assert session.candidate_importance.tobytes() == importance.tobytes()


def test_query_only_staleness_reencodes_nothing():
    server = _server()
    [(session_id, episode)] = _episodes(server, 1).items()
    session = server.open_session(session_id, episode)
    server.submit(session_id, episode.queries[0])
    server.drain()
    pool_nodes = set(session.pool_nodes.tolist())
    only_query = [n for n in np.flatnonzero(session.query_nodes).tolist()
                  if n not in pool_nodes]
    assert only_query
    pool_emb = session.candidate_emb
    server.update_graph(GraphUpdate(add_src=[only_query[0]],
                                    add_dst=[only_query[0]], add_rel=[0]))
    assert session.stale and not session.stale_candidates.any()
    server.submit(session_id, episode.queries[1])
    server.drain()
    assert server.stats.refreshed_candidates == 0
    assert session.candidate_emb is pool_emb
    assert session.augmenter.stats().stale_evictions > 0


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_per_candidate_refresh_equals_full_reencode(num_shards, seed):
    """Random update streams (adds, removes, new nodes) with a low
    compaction threshold: after every refresh the spliced pool, its
    selector state and its node sets equal a full re-encode."""
    server = _server(num_shards=num_shards, compact_threshold=0.05,
                     seed=seed)
    episodes = _episodes(server, 3, seed=10 * seed)
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    rng = np.random.default_rng(seed)
    graph = server.dataset.graph
    compactions = refreshes = 0
    for step in range(8):
        update = random_graph_update(
            graph, rng, num_add=int(rng.integers(1, 12)),
            num_remove=int(rng.integers(0, 6)),
            num_new_nodes=int(rng.integers(0, 3)))
        compactions += server.update_graph(update).compacted
        for session_id, episode in episodes.items():
            server.submit(session_id, episode.queries[step % 6])
        refreshed_before = server.stats.refreshed_candidates
        server.drain()
        for session_id in episodes:
            session = server.sessions.get(session_id)
            assert not session.stale
            emb, importance, nodes = _full_encode(server, session.pool)
            assert session.candidate_emb.tobytes() == emb.tobytes()
            assert (session.candidate_importance.tobytes()
                    == importance.tobytes())
            assert _node_sets(session) == [sorted(ids.tolist())
                                           for ids in nodes]
            rebuilt = server.pipeline.selector.pool_state(
                emb, session.pool_labels)
            assert (session.selector_state.centroids.tobytes()
                    == rebuilt.centroids.tobytes())
        refreshes += server.stats.refreshed_candidates - refreshed_before
    assert compactions >= 1
    # Some, but not all, candidates were re-encoded.
    pool_rows = sum(len(server.sessions.get(sid).pool) for sid in episodes)
    assert 0 < refreshes < 8 * pool_rows
