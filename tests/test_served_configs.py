"""Served answers under the configurations selection and the Augmenter
branch on.

Prediction waves (``PromptServer``) must answer byte for byte as the
request-by-request loop of ``tests/reference_paths.py`` does — which
selects with the per-class loops and reads the Augmenter by stacking its
entries — and as a server with micro-batches of one, under every kNN
metric, cache policy, insertion rule and stage ablation.
"""

import pytest

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    prodigy_config,
    sample_episode,
)
from repro.datasets import Dataset, EDGE_TASK
from repro.datasets.synthetic import synthetic_knowledge_graph
from repro.serving import PromptServer
from test_serving import FakeClock, replay_both

BASE = GraphPrompterConfig(hidden_dim=8, max_subgraph_nodes=10,
                           num_gnn_layers=2)

CONFIGS = {
    "euclidean": BASE.ablate(knn_metric="euclidean"),
    "manhattan": BASE.ablate(knn_metric="manhattan"),
    "lru": BASE.ablate(cache_policy="lru"),
    "fifo": BASE.ablate(cache_policy="fifo"),
    "random-pseudo-labels": BASE.ablate(random_pseudo_labels=True),
    "no-knn": BASE.ablate(use_knn=False),
    "no-selection-layers": BASE.ablate(use_selection_layers=False),
    "no-augmenter": BASE.ablate(use_augmenter=False),
    "all-stages-off": prodigy_config(BASE),
}


@pytest.fixture(scope="module")
def dataset():
    graph = synthetic_knowledge_graph(200, 8, 1600, rng=1, name="configs")
    return Dataset(graph, EDGE_TASK, rng=0)


def build_server(dataset, config, max_batch_size):
    """An untrained model's server: every weight comes from the config's
    seed, so each twin serves the same model."""
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations, config)
    model.eval()

    def build(clock):
        return PromptServer(model, dataset, max_batch_size=max_batch_size,
                            rng=3, clock=clock)
    return build


def script(dataset):
    """Three sessions of two way counts; each batch holds several queries
    of every session, so each micro-batch runs waves several deep."""
    episodes = {name: sample_episode(dataset, num_ways=ways, num_queries=8,
                                     rng=seed)
                for name, ways, seed in (("a", 3, 41), ("b", 4, 42),
                                         ("c", 3, 43))}

    def run(server, clock):
        for session_id, episode in episodes.items():
            server.open_session(session_id, episode)
        results = []
        for start in (0, 4):
            for q in range(start, start + 4):
                for session_id in ("a", "b", "a", "c")[:3 + q % 2]:
                    server.submit(session_id, episodes[session_id].queries[q])
            results += server.drain()
        return results
    return run


def answers(results):
    return sorted((r.request_id, r.session_id, r.prediction,
                   r.confidence.hex(), r.error) for r in results)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_waves_match_per_query_serving(dataset, name):
    build = build_server(dataset, CONFIGS[name], max_batch_size=16)
    waves, per_query = replay_both(build, script(dataset))
    assert waves == per_query
    assert all(error is None for *_, error in waves)
    assert len(waves) == 2 * (4 * 3 + 2)


@pytest.mark.parametrize("name", ["default"] + list(CONFIGS))
def test_batch_of_one_matches_batch_of_sixteen(dataset, name):
    config = BASE if name == "default" else CONFIGS[name]
    run = script(dataset)
    served = [answers(run(build_server(dataset, config, size)(FakeClock()),
                          None))
              for size in (1, 16)]
    assert served[0] == served[1]
