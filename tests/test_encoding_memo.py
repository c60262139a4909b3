"""The encoding memo: one encoding per datapoint across a server's sessions.

Every server encode — session opens, stale-pool refreshes and query
batches — goes through one :class:`~repro.serving.memo.EncodingMemo`.
Serving from it is exact only if a stored row is the row a fresh encode
would give now.  These tests pin that and the bookkeeping around it:

* rows equal a fresh ``encode_points`` by bytes, across sessions that
  share datapoints, on an edge task and on a node task;
* a datapoint two sessions share, or a batch repeats, is encoded once,
  and a scrape exports the memo's own hit and miss counts;
* an update evicts exactly the entries whose encodings read something
  it changed (``reference_paths.encoding_is_stale``), keeps entries
  whose node sets it only touched, and the survivors still equal a
  fresh encode;
* after ``reload_model`` no row under the old weights is served;
* a small memo never holds more than its capacity and changes no answer;
* a failing encode leaves the memo as it was, and the next batch answers;
* a request whose session expired while it queued is not encoded;
* ``seed_ends`` reads each datapoint's first and last seed.
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
from repro.datasets import EDGE_TASK, NODE_TASK, Dataset
from repro.datasets.synthetic import (
    synthetic_citation_graph,
    synthetic_knowledge_graph,
)
from repro.experiments.serving import random_graph_update
from repro.graph import EdgeInput, NodeInput
from repro.obs import MetricsRegistry, collect
from repro.obs.slo import counter_total
from repro.serving import PromptServer
from repro.serving.memo import EncodingMemo, seed_ends
from reference_paths import encoding_is_stale


def _server(task: str = EDGE_TASK, mutable: bool = False, seed: int = 0,
            max_nodes: int = 8, **kwargs) -> PromptServer:
    if task == EDGE_TASK:
        graph = synthetic_knowledge_graph(300, 3, 900, feature_dim=6,
                                          rng=seed)
    else:
        graph = synthetic_citation_graph(300, 3, feature_dim=6, rng=seed)
    dataset = Dataset(graph, task, rng=0)
    config = GraphPrompterConfig(hidden_dim=8, max_subgraph_nodes=max_nodes,
                                 mutable_graph=mutable)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    model.eval()
    return PromptServer(model, dataset, max_batch_size=8, rng=0, **kwargs)


def _episodes(server, count: int, seed: int = 0) -> dict:
    return {f"s{i}": sample_episode(server.dataset, num_ways=3,
                                    num_candidates_per_class=6,
                                    num_queries=6, rng=seed + i)
            for i in range(count)}


def _fresh(server, datapoints):
    """A from-scratch encode on the server's live graph and weights."""
    pipeline = GraphPrompterPipeline(server.model, server.dataset, rng=0)
    pipeline.generator.deterministic = True
    return pipeline.encode_points(datapoints)


def _refuse(datapoints, arena=None):
    raise AssertionError(f"the memo should hold {datapoints}")


def _assert_same_encoding(got, want) -> None:
    emb, importance, nodes = got
    want_emb, want_importance, want_nodes = want
    assert emb.tobytes() == want_emb.tobytes()
    assert importance.tobytes() == want_importance.tobytes()
    assert ([ids.tolist() for ids in nodes]
            == [ids.tolist() for ids in want_nodes])


def _record_encodes(server) -> dict:
    """Every datapoint the server's pipeline encodes, with its node ids
    (the latest encode's), in encode order."""
    encoded: dict = {}
    encode = server.pipeline.encode_points

    def recording(datapoints, arena=None):
        emb, importance, nodes = encode(datapoints, arena=arena)
        for point, ids in zip(datapoints, nodes):
            encoded.setdefault(point, []).append(set(ids.tolist()))
        return emb, importance, nodes

    server.pipeline.encode_points = recording
    return encoded


def _serve_rounds(server, episodes: dict, queries) -> list:
    results = []
    for q in queries:
        for session_id, episode in episodes.items():
            server.submit(session_id, episode.queries[q])
        results.extend(server.drain())
    return results


@pytest.mark.parametrize("task", [EDGE_TASK, NODE_TASK])
def test_rows_equal_a_fresh_encode_across_sessions(task):
    server = _server(task)
    episodes = _episodes(server, 3)
    episodes["twin"] = episodes["s0"]  # shares every datapoint with s0
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    _serve_rounds(server, episodes, range(4))
    assert server.stats.memo_hits > 0
    for session_id in episodes:
        session = server.sessions.get(session_id)
        _assert_same_encoding(
            (session.candidate_emb, session.candidate_importance,
             [session.pool_nodes[session.pool_node_owner == c]
              for c in range(len(session.pool))]),
            _fresh(server, session.pool))
    # Every stored entry, queries included, reads back as a fresh encode.
    stored = list(server.memo._slots)
    _assert_same_encoding(server.memo.encode(stored, _refuse),
                          _fresh(server, stored))


def test_shared_and_repeated_datapoints_are_encoded_once():
    server = _server()
    encoded = _record_encodes(server)
    [episode] = _episodes(server, 1).values()
    pool = len(episode.candidates)
    server.open_session("a", episode)
    server.open_session("b", episode)
    assert len(encoded) == len(set(episode.candidates))
    query = episode.queries[0]
    server.submit("a", query)
    server.submit("b", query)
    first, second = server.drain()
    assert len(encoded[query]) == 1
    assert all(len(sets) == 1 for sets in encoded.values())
    stats = server.stats
    assert stats.memo_misses == len(encoded)
    assert stats.memo_hits + stats.memo_misses == 2 * pool + 2
    # The memo owns the counts; a scrape exports them once.
    snapshot = collect(server, MetricsRegistry()).snapshot()
    assert counter_total(snapshot, "repro_server_encode_memo_hits_total"
                         ) == stats.memo_hits
    assert counter_total(snapshot, "repro_server_encode_memo_misses_total"
                         ) == stats.memo_misses
    # Both sessions answered from the same row.
    assert (first.prediction, first.confidence) == (second.prediction,
                                                    second.confidence)


@pytest.mark.parametrize("seed", [0, 1])
def test_update_evicts_exactly_the_entries_it_touched(seed):
    # A node cap most subgraphs stay under: their padded node rows must
    # not read as touched.
    server = _server(mutable=True, seed=seed, max_nodes=20)
    encoded = _record_encodes(server)
    episodes = _episodes(server, 3, seed=10 * seed)
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    _serve_rounds(server, episodes, range(2))
    graph = server.dataset.graph
    rng = np.random.default_rng(seed)
    kept = dropped = short = spared = 0
    for step in range(5):
        before = list(server.memo._slots)
        applied = server.update_graph(random_graph_update(
            graph, rng, num_add=int(rng.integers(1, 8)),
            num_remove=int(rng.integers(0, 4)),
            num_new_nodes=int(rng.integers(0, 2))))
        touched = set(applied.touched_nodes.tolist())
        survivors = [point for point in before
                     if not encoding_is_stale(graph, applied, point,
                                              encoded[point][-1],
                                              server.config.num_hops)]
        short += sum(len(encoded[point][-1]) < 20 for point in survivors)
        # Survivors holding a touched node: kept although the update
        # touched their node set, because they read nothing it changed.
        spared += sum(bool(encoded[point][-1] & touched)
                      for point in survivors)
        assert list(server.memo._slots) == survivors
        kept += len(survivors)
        dropped += len(before) - len(survivors)
        _assert_same_encoding(server.memo.encode(survivors, _refuse),
                              _fresh(server, survivors))
        _serve_rounds(server, episodes, [2 + step % 4])
    assert kept and dropped and short and spared


def test_reload_serves_no_row_under_the_old_weights():
    server = _server()
    episodes = _episodes(server, 2)
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    _serve_rounds(server, episodes, [0])
    rng = np.random.default_rng(7)
    state = {name: value + 0.1 * rng.normal(size=value.shape)
             for name, value in server.model.state_dict().items()}
    server.reload_model(state)
    for session_id in episodes:
        session = server.sessions.get(session_id)
        emb, importance, _ = _fresh(server, session.pool)
        assert session.candidate_emb.tobytes() == emb.tobytes()
        assert session.candidate_importance.tobytes() == importance.tobytes()
    # Queries the memo held before the reload are encoded again.
    encoded = _record_encodes(server)
    _serve_rounds(server, episodes, [0])
    assert all(episode.queries[0] in encoded
               for episode in episodes.values())


def test_small_memo_holds_at_most_its_capacity_and_answers_the_same():
    answers = {}
    for capacity in (None, 5):
        server = _server()
        if capacity is not None:
            server.memo = EncodingMemo(server.config.max_subgraph_nodes,
                                       capacity=capacity)
        episodes = _episodes(server, 3)
        episodes["twin"] = episodes["s0"]
        sizes = []
        for session_id, episode in episodes.items():
            server.open_session(session_id, episode)
            sizes.append(len(server.memo))
        for q in range(4):
            results = _serve_rounds(server, episodes, [q])
            sizes.append(len(server.memo))
            answers.setdefault(capacity, []).extend(
                (r.session_id, r.prediction, r.confidence) for r in results)
        if capacity is not None:
            assert max(sizes) == capacity
            # One call with more distinct misses than the capacity keeps
            # the newest of them.
            pool = server.sessions.get("s1").pool
            got = server.memo.encode(pool, server.pipeline.encode_points)
            assert list(server.memo._slots) == pool[-capacity:]
            _assert_same_encoding(got, _fresh(server, pool))
    assert answers[5] == answers[None]


def test_failing_encode_leaves_the_memo_unchanged():
    def snapshot(memo):
        return (list(memo._slots.items()), memo.hits, memo.misses,
                memo._emb.tobytes(), memo._nodes.tobytes())

    servers = [_server(), _server()]
    episodes = _episodes(servers[0], 2)
    for server in servers:
        for session_id, episode in episodes.items():
            server.open_session(session_id, episode)
        _serve_rounds(server, episodes, [0])
    server, reference = servers
    before = snapshot(server.memo)
    encode = server.pipeline.encode_points

    def failing(datapoints, arena=None):
        raise RuntimeError("encoder down")

    server.pipeline.encode_points = failing
    # New queries (misses) next to a stored pool candidate (a hit that
    # would move in the recency order).
    server.submit("s0", episodes["s0"].candidates[0])
    for session_id, episode in episodes.items():
        server.submit(session_id, episode.queries[1])
    with pytest.raises(RuntimeError, match="encoder down"):
        server.drain()
    assert snapshot(server.memo) == before
    server.pipeline.encode_points = encode
    got = _serve_rounds(server, episodes, [1])
    want = _serve_rounds(reference, episodes, [1])
    assert all(result.ok for result in got)
    assert ([(r.prediction, r.confidence) for r in got]
            == [(r.prediction, r.confidence) for r in want])


def test_expired_sessions_request_is_not_encoded():
    now = [0.0]
    server = _server(session_ttl_s=10.0, clock=lambda: now[0])
    episodes = _episodes(server, 2)
    reference = _server()
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    reference.open_session("s0", episodes["s0"])
    expired, live = episodes["s1"].queries[0], episodes["s0"].queries[0]
    now[0] = 5.0
    server.submit("s1", expired)
    now[0] = 9.0
    server.submit("s0", live)
    reference.submit("s0", live)
    now[0] = 16.0  # s1 idle for 11 s, s0 for 7 s
    misses = server.stats.memo_misses
    results = {r.session_id: r for r in server.drain()}
    assert results["s1"].error == "session-expired"
    assert server.stats.memo_misses - misses == 1
    assert expired not in server.memo and live in server.memo
    [want] = reference.drain()
    assert ((results["s0"].prediction, results["s0"].confidence)
            == (want.prediction, want.confidence))


@pytest.mark.parametrize("points, want", [
    ([NodeInput(4), NodeInput(np.int64(0))], [[4, 4], [0, 0]]),
    ([EdgeInput(7, 2, 1), EdgeInput(3, 3), EdgeInput(np.int32(5), 9)],
     [[7, 2], [3, 3], [5, 9]]),
    ([NodeInput(1), EdgeInput(8, 6, 0)], [[1, 1], [8, 6]]),
    ([], np.zeros((0, 2))),
], ids=["node", "edge", "mixed", "empty"])
def test_seed_ends_reads_first_and_last_seed(points, want):
    """Each row is ``Datapoint.nodes``' first and last id, as int64."""
    keys = np.empty(len(points), dtype=object)
    keys[:] = points
    for given in (points, keys):
        got = seed_ends(given)
        assert got.dtype == np.int64 and got.shape == (len(points), 2)
        assert np.array_equal(got, want)
        assert got.tolist() == [[p.nodes[0], p.nodes[-1]] for p in points]
