"""Per-candidate refresh: a graph update re-encodes only what it changed.

A session keeps each pool candidate's node ids as the encode pass
sampled them.  An update marks stale only the candidates whose encodings
read something it changed — a touched row their sampler read, or an
added or removed edge with both ends in their node set — and the refresh
re-encodes just those rows and splices them in.  These tests pin the
things that must hold for that to be exact:

* the recorded node sets are exactly what the sampler visits, for the
  pool and for every answered query;
* the candidates marked stale are exactly those the brute-force rule
  (``reference_paths.encoding_is_stale``) names: an update that changes
  ``k`` candidates' seed rows re-encodes exactly ``k``, an edge from a
  non-seed member to a node outside every set re-encodes nothing, and a
  self-loop at a non-seed member stales every candidate holding it;
* after any stream of updates — with new nodes, self-loops, duplicate
  edges and an auto-compaction, on one shard and on two, for both
  samplers at one and two hops — every refreshed pool equals a full
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
from reference_paths import encoding_is_stale


def _server(num_shards: int = 1, compact_threshold: float = 0.25,
            seed: int = 0, num_hops: int = 1,
            sampling_method: str = "random_walk"):
    graph = synthetic_knowledge_graph(300, 3, 900, feature_dim=6, rng=seed)
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=8, max_subgraph_nodes=8,
                                 num_hops=num_hops,
                                 sampling_method=sampling_method,
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


def _reference_stale(server, session, applied) -> list[int]:
    """The candidates the brute-force rule marks stale for ``applied``
    (read before the refresh replaces their node sets)."""
    graph, num_hops = server.dataset.graph, server.config.num_hops
    return [c for c, members in enumerate(_node_sets(session))
            if encoding_is_stale(graph, applied, session.pool[c], members,
                                 num_hops)]


def _memo_node_sets(server) -> dict:
    """Each memo entry's node ids, by datapoint."""
    memo = server.memo
    return {point: set(memo._nodes[slot, :memo._lengths[slot]].tolist())
            for point, slot in memo._slots.items()}


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
    # Per candidate that has one, a seed no other candidate samples
    # from: the one the most other node sets hold.
    readers: dict[int, set] = {}
    for c, point in enumerate(session.pool):
        for node in point.nodes.tolist():
            readers.setdefault(node, set()).add(c)
    node_sets = _node_sets(session)
    held_by = {node: sum(node in members for members in node_sets)
               for node in readers}
    exclusive = {}
    for node, members in sorted(readers.items()):
        if len(members) == 1:
            [c] = members
            if held_by[node] > held_by.get(exclusive.get(c), 0):
                exclusive[c] = node
    assert len(exclusive) >= k
    chosen = sorted(sorted(exclusive,
                           key=lambda c: -held_by[exclusive[c]])[:k])
    graph = server.dataset.graph
    new_node = graph.num_nodes
    seeds = [exclusive[c] for c in chosen]
    holders = [c for c, members in enumerate(node_sets)
               if set(members) & set(seeds)]
    before = server.stats
    # Each added edge joins a chosen candidate's own seed to one new node
    # that no subgraph holds: k candidates' seed rows change, the other
    # holders of those seeds read no changed row, and no changed edge
    # lies inside a node set.
    applied = server.update_graph(GraphUpdate(
        add_src=seeds, add_dst=[new_node] * k, add_rel=[0] * k,
        add_node_features=np.zeros((1, graph.feature_dim))))
    assert session.stale
    assert np.flatnonzero(session.stale_candidates).tolist() == chosen
    assert _reference_stale(server, session, applied) == chosen
    assert len(holders) > k
    server.submit(session_id, episode.queries[0])
    server.drain()
    after = server.stats
    assert after.sessions_invalidated - before.sessions_invalidated == 1
    assert (after.refreshed_candidates
            - before.refreshed_candidates) == k
    emb, importance, _ = _full_encode(server, session.pool)
    assert session.candidate_emb.tobytes() == emb.tobytes()
    assert session.candidate_importance.tobytes() == importance.tobytes()


def test_edge_from_a_non_seed_member_to_outside_every_set_stales_nothing():
    server = _server()
    [(session_id, episode)] = _episodes(server, 1).items()
    session = server.open_session(session_id, episode)
    server.submit(session_id, episode.queries[0])
    server.drain()
    graph = server.dataset.graph
    held = _memo_node_sets(server)
    seeds = {n for point in held for n in point.nodes.tolist()}
    in_a_set = set().union(*held.values())
    member = min(set(session.pool_nodes.tolist()) - seeds)
    outside = min(set(range(graph.num_nodes)) - in_a_set)
    pool_emb = session.candidate_emb
    before = server.stats
    applied = server.update_graph(GraphUpdate(add_src=[member],
                                              add_dst=[outside],
                                              add_rel=[0]))
    assert _reference_stale(server, session, applied) == []
    assert not session.stale_candidates.any()
    assert _memo_node_sets(server) == held
    # The session still depends on ``member``: its cache is purged.
    assert session.stale
    cold = PromptServer(server.model, Dataset(graph.rebuild(), EDGE_TASK,
                                              rng=0),
                        max_batch_size=8, rng=0)
    cold.open_session(session_id, episode)
    answers = {}
    for name, srv in (("live", server), ("cold", cold)):
        for q in range(1, 4):
            srv.submit(session_id, episode.queries[q])
        answers[name] = [(r.prediction, r.confidence.hex())
                         for r in srv.drain()]
    assert answers["live"] == answers["cold"]
    after = server.stats
    assert after.refreshed_candidates == before.refreshed_candidates
    assert after.memo_misses - before.memo_misses == 3
    assert session.candidate_emb is pool_emb


def test_self_loop_at_a_non_seed_member_stales_its_candidates():
    server = _server()
    [(session_id, episode)] = _episodes(server, 1).items()
    session = server.open_session(session_id, episode)
    seeds = {n for point in session.pool for n in point.nodes.tolist()}
    node_sets = _node_sets(session)
    loop = min(set(session.pool_nodes.tolist()) - seeds)
    holders = [c for c, members in enumerate(node_sets) if loop in members]
    pool_emb = session.candidate_emb.copy()
    before = server.stats
    applied = server.update_graph(GraphUpdate(add_src=[loop],
                                              add_dst=[loop], add_rel=[0]))
    assert np.flatnonzero(session.stale_candidates).tolist() == holders
    assert _reference_stale(server, session, applied) == holders
    assert not any(loop in members
                   for members in _memo_node_sets(server).values())
    server.submit(session_id, episode.queries[0])
    server.drain()
    assert (server.stats.refreshed_candidates
            - before.refreshed_candidates) == len(holders)
    emb, importance, _ = _full_encode(server, session.pool)
    assert session.candidate_emb.tobytes() == emb.tobytes()
    assert session.candidate_importance.tobytes() == importance.tobytes()
    # The self-loop changed every row it staled.
    assert all(emb[c].tobytes() != pool_emb[c].tobytes() for c in holders)


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


def _planted_update(server, rng, sessions) -> GraphUpdate:
    """A random update, plus two changes uniform endpoints rarely make,
    planted in a random candidate's node set: a self-loop at one of its
    members, and a duplicate of a live edge the set induces (when it
    induces one)."""
    graph = server.dataset.graph
    update = random_graph_update(
        graph, rng, num_add=int(rng.integers(1, 12)),
        num_remove=int(rng.integers(0, 6)),
        num_new_nodes=int(rng.integers(0, 3)))
    session = sessions[int(rng.integers(len(sessions)))]
    members = session.pool_nodes[
        session.pool_node_owner == int(rng.integers(len(session.pool)))]
    src, dst, rel, _ = graph.live_edges()
    inside = np.flatnonzero(np.isin(src, members) & np.isin(dst, members))
    loop = int(rng.choice(members))
    planted = [(loop, loop, 0)]
    if inside.size:
        edge = int(rng.choice(inside))
        planted.append((src[edge], dst[edge], rel[edge]))
    add_src, add_dst, add_rel = (np.asarray(column) for column in
                                 zip(*planted))
    return GraphUpdate(
        add_src=np.concatenate([update.add_src, add_src]),
        add_dst=np.concatenate([update.add_dst, add_dst]),
        add_rel=np.concatenate([update.add_rel, add_rel]),
        remove_edges=update.remove_edges,
        add_node_features=update.add_node_features)


def _assert_refreshes_equal_full_reencodes(server, seed: int) -> None:
    """Planted update streams with a low compaction threshold: after
    every refresh the spliced pool, its selector state and its node sets
    equal a full re-encode."""
    episodes = _episodes(server, 3, seed=10 * seed)
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    sessions = [server.sessions.get(session_id) for session_id in episodes]
    rng = np.random.default_rng(seed)
    compactions = refreshes = 0
    for step in range(8):
        compactions += server.update_graph(
            _planted_update(server, rng, sessions)).compacted
        for session_id, episode in episodes.items():
            server.submit(session_id, episode.queries[step % 6])
        refreshed_before = server.stats.refreshed_candidates
        server.drain()
        for session in sessions:
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
    pool_rows = sum(len(session.pool) for session in sessions)
    assert 0 < refreshes < 8 * pool_rows


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_per_candidate_refresh_equals_full_reencode(num_shards, seed):
    _assert_refreshes_equal_full_reencodes(
        _server(num_shards=num_shards, compact_threshold=0.05, seed=seed),
        seed)


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("sampling_method", ["random_walk", "bfs"])
@pytest.mark.parametrize("num_hops", [1, 2])
def test_refresh_equals_full_reencode_for_every_sampler(
        num_hops, sampling_method, num_shards):
    _assert_refreshes_equal_full_reencodes(
        _server(num_shards=num_shards, compact_threshold=0.05, seed=2,
                num_hops=num_hops, sampling_method=sampling_method), 2)
