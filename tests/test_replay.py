"""Tests for the replay loop every serving driver shares."""

import asyncio

import numpy as np
import pytest

from repro.core import GraphPrompterConfig, GraphPrompterModel, sample_episode
from repro.datasets import EDGE_TASK, Dataset
from repro.datasets.synthetic import synthetic_knowledge_graph
from repro.experiments.replay import (
    replay,
    replay_gateway,
    require_identical,
    sample_episodes,
)
from repro.serving import Overloaded, Priority, PromptServer, ServingGateway

NUM_QUERIES = 4


@pytest.fixture(scope="module")
def served():
    """A tiny untrained model, its dataset and three seeded sessions."""
    graph = synthetic_knowledge_graph(200, 6, 1200, rng=0, name="kg-replay")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=12, max_subgraph_nodes=10,
                                 num_gnn_layers=2)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    episodes = sample_episodes(dataset, 3, 3, NUM_QUERIES, 100)
    return model, dataset, episodes


def round_robin(episodes):
    return [(session_id, q) for q in range(NUM_QUERIES)
            for session_id in episodes]


def gateway_run(served, ticks, max_queue=4096, after_tick=None):
    """Open every session on a fresh gateway and replay ``ticks``."""
    model, dataset, episodes = served

    async def run():
        gateway = ServingGateway(PromptServer(model, dataset, rng=0),
                                 max_queue=max_queue, max_batch_size=8,
                                 auto_drain=False)
        for session_id, episode in episodes.items():
            gateway.open_session("acme", session_id, episode,
                                 priority=Priority.INTERACTIVE)
        try:
            return await replay_gateway(
                gateway, episodes, ticks,
                after_tick=None if after_tick is None
                else lambda index: after_tick(gateway, index))
        finally:
            await gateway.close()

    return asyncio.run(run())


class TestReplay:
    def test_one_tick_equals_one_query_ticks(self, served):
        model, dataset, episodes = served
        keys = round_robin(episodes)
        answers = []
        for ticks in ([keys], [[key] for key in keys]):
            server = PromptServer(model, dataset, max_batch_size=8, rng=0)
            for session_id, episode in episodes.items():
                server.open_session(session_id, episode)
            results, elapsed = replay(server, episodes, ticks)
            assert elapsed > 0
            answers.append(results)
        batched, single = answers
        assert ([r.session_id for r in batched]
                == [session_id for session_id, _ in keys])
        assert ([(r.session_id, r.prediction) for r in batched]
                == [(r.session_id, r.prediction) for r in single])
        np.testing.assert_allclose([r.confidence for r in batched],
                                   [r.confidence for r in single],
                                   atol=1e-9)

    def test_sample_episodes_seeds_each_session(self, served):
        _, dataset, _ = served
        episodes = sample_episodes(dataset, 3, 3, NUM_QUERIES, 40)
        assert list(episodes) == ["session-0", "session-1", "session-2"]
        for i, episode in enumerate(episodes.values()):
            expected = sample_episode(dataset, num_ways=3,
                                      num_queries=NUM_QUERIES, rng=40 + i)
            np.testing.assert_array_equal(episode.way_classes,
                                          expected.way_classes)
            assert episode.candidates == expected.candidates
            assert episode.queries == expected.queries
            np.testing.assert_array_equal(episode.query_labels,
                                          expected.query_labels)


class TestReplayGateway:
    def test_sheds_stay_in_submission_position(self, served):
        keys = round_robin(served[2])
        outcomes, _ = gateway_run(served, [keys], max_queue=4)
        assert [key for key, _ in outcomes] == keys
        shed = [isinstance(outcome, Overloaded) for _, outcome in outcomes]
        assert shed == [False] * 4 + [True] * (len(keys) - 4)
        assert all(outcome.ok for _, outcome in outcomes[:4])

    def test_after_tick_runs_once_per_tick_after_its_flush(self, served):
        keys = round_robin(served[2])
        ticks = [keys[:5], keys[5:6], keys[6:]]
        calls = []

        def after_tick(gateway, index):
            calls.append((index, gateway.queue_depth(),
                          gateway.server.stats.queries))

        outcomes, _ = gateway_run(served, ticks, after_tick=after_tick)
        assert calls == [(0, 0, 5), (1, 0, 6), (2, 0, len(keys))]
        assert all(outcome.ok for _, outcome in outcomes)

    def test_unresolved_admitted_request_raises(self, served,
                                                monkeypatch):
        async def no_flush(self):
            return 0

        monkeypatch.setattr(ServingGateway, "flush", no_flush)
        with pytest.raises(RuntimeError,
                           match=r"request \('session-1', 2\) never "
                                 r"resolved"):
            gateway_run(served, [[("session-1", 2)]])


class TestRequireIdentical:
    def test_equal_lists_pass(self):
        require_identical([("s", 1)], [("s", 1)], "unused")

    def test_mismatch_names_the_label_and_item(self):
        with pytest.raises(RuntimeError,
                           match="batch 4 vs batch 1 diverged at item 1"):
            require_identical([1, 2, 3], [1, 5, 3], "batch 4 vs batch 1")

    def test_length_mismatch_raises(self):
        with pytest.raises(RuntimeError, match="shards diverged: 1 items"):
            require_identical([1, 2], [1], "shards")
