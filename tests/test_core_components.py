"""Tests for core components: config, task graph, episodes, selector, augmenter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphPrompterConfig,
    PromptAugmenter,
    PromptSelector,
    build_task_graph,
    pairwise_similarity,
    prodigy_config,
    sample_episode,
)
from repro.datasets import load_dataset
from repro.gnn import (
    EDGE_ATTR_PROMPT_FALSE,
    EDGE_ATTR_PROMPT_TRUE,
    EDGE_ATTR_QUERY,
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = GraphPrompterConfig()
        assert cfg.validate() is cfg

    def test_prodigy_config_disables_all_stages(self):
        cfg = prodigy_config()
        assert not cfg.use_reconstruction
        assert not cfg.use_selection_layers
        assert not cfg.use_knn
        assert not cfg.use_augmenter

    def test_ablate_returns_copy(self):
        cfg = GraphPrompterConfig()
        ablated = cfg.ablate(use_knn=False)
        assert cfg.use_knn and not ablated.use_knn

    @pytest.mark.parametrize("bad", [
        {"hidden_dim": 0},
        {"num_hops": -1},
        {"cache_size": 0},
        {"conv": "gcn"},
        {"sampling_method": "dfs"},
        {"knn_metric": "chebyshev"},
        {"temperature": 0.0},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            GraphPrompterConfig(**bad).validate()

    @pytest.mark.parametrize("field, value", [
        ("tensor_backend", "fused"),
        ("pool_quantization", "int8"),
        ("num_workers", 2),
        ("worker_backend", "process"),
    ])
    def test_retired_serving_knobs_fail_loudly(self, field, value):
        """The fused backend, int8 pools and the worker pool are gone: a
        config naming one is an error, not a silently ignored field, and
        no artifact key (``str(config)``) carries it."""
        with pytest.raises(TypeError, match=field):
            GraphPrompterConfig(**{field: value})
        with pytest.raises(TypeError, match=field):
            GraphPrompterConfig().ablate(**{field: value})
        assert field not in str(GraphPrompterConfig())


class TestTaskGraph:
    def test_counts(self):
        tg = build_task_graph(np.array([0, 0, 1, 1]), num_queries=3,
                              num_ways=2)
        assert tg.num_nodes == 4 + 3 + 2
        # 4 prompts x 2 labels + 3 queries x 2 labels edges.
        assert tg.src.shape[0] == 4 * 2 + 3 * 2

    def test_attrs_true_false(self):
        tg = build_task_graph(np.array([1]), num_queries=1, num_ways=2)
        # Prompt 0 has label 1: edge to label 0 is F, to label 1 is T.
        prompt_edges = tg.attr[:2]
        assert prompt_edges[0] == EDGE_ATTR_PROMPT_FALSE
        assert prompt_edges[1] == EDGE_ATTR_PROMPT_TRUE
        assert np.all(tg.attr[2:] == EDGE_ATTR_QUERY)

    def test_each_prompt_connects_all_labels(self):
        tg = build_task_graph(np.array([0, 2, 1]), num_queries=2, num_ways=3)
        for p in range(3):
            targets = tg.dst[tg.src == p]
            assert set(targets) == set(tg.label_ids)

    def test_id_partitions(self):
        tg = build_task_graph(np.array([0, 1]), num_queries=2, num_ways=2)
        all_ids = np.concatenate([tg.prompt_ids, tg.query_ids, tg.label_ids])
        np.testing.assert_array_equal(np.sort(all_ids),
                                      np.arange(tg.num_nodes))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_task_graph(np.array([0]), num_queries=1, num_ways=1)
        with pytest.raises(ValueError):
            build_task_graph(np.array([5]), num_queries=1, num_ways=2)
        with pytest.raises(ValueError):
            build_task_graph(np.array([0]), num_queries=0, num_ways=2)


class TestEpisodeSampling:
    def test_shapes(self):
        ds = load_dataset("conceptnet")
        ep = sample_episode(ds, num_ways=5, num_candidates_per_class=10,
                            num_queries=12, rng=0)
        assert ep.num_ways == 5
        assert len(ep.candidates) == 50
        assert ep.num_candidates_per_class == 10
        assert ep.num_queries == 12

    def test_candidate_labels_class_major(self):
        ds = load_dataset("conceptnet")
        ep = sample_episode(ds, num_ways=4, num_candidates_per_class=3, rng=1)
        np.testing.assert_array_equal(
            ep.candidate_labels, np.repeat(np.arange(4), 3))

    def test_candidates_have_correct_global_labels(self):
        ds = load_dataset("conceptnet")
        ep = sample_episode(ds, num_ways=4, rng=2)
        for i, dp in enumerate(ep.candidates):
            local = ep.candidate_labels[i]
            assert dp.relation == ep.way_classes[local]

    def test_queries_have_hidden_labels(self):
        ds = load_dataset("conceptnet")
        ep = sample_episode(ds, num_ways=3, rng=3)
        assert all(q.relation is None for q in ep.queries)

    def test_query_labels_in_range(self):
        ds = load_dataset("conceptnet")
        ep = sample_episode(ds, num_ways=6, num_queries=30, rng=4)
        assert ep.query_labels.min() >= 0
        assert ep.query_labels.max() < 6

    def test_too_many_ways_rejected(self):
        ds = load_dataset("conceptnet")  # 14 classes
        with pytest.raises(ValueError):
            sample_episode(ds, num_ways=100, rng=0)

    def test_min_ways(self):
        ds = load_dataset("conceptnet")
        with pytest.raises(ValueError):
            sample_episode(ds, num_ways=1, rng=0)

    def test_candidate_ids_of_class(self):
        ds = load_dataset("conceptnet")
        ep = sample_episode(ds, num_ways=3, num_candidates_per_class=4, rng=5)
        ids = ep.candidate_ids_of_class(1)
        np.testing.assert_array_equal(ids, np.arange(4, 8))

    def test_node_task_episode(self):
        ds = load_dataset("arxiv")
        ep = sample_episode(ds, num_ways=5, num_queries=10, rng=6)
        assert len(ep.candidates) == 50
        assert all(hasattr(c, "node") for c in ep.candidates)


class TestPairwiseSimilarity:
    def test_cosine_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        sim = pairwise_similarity(x, x, "cosine")
        np.testing.assert_allclose(np.diag(sim), np.ones(4), rtol=1e-9)

    def test_euclidean_zero_distance(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        sim = pairwise_similarity(x, x, "euclidean")
        np.testing.assert_allclose(np.diag(sim), np.zeros(3), atol=1e-12)
        assert np.all(sim <= 1e-12)  # negated distances

    def test_manhattan_orders_like_distance(self):
        q = np.zeros((1, 2))
        prompts = np.array([[1.0, 0.0], [3.0, 0.0]])
        sim = pairwise_similarity(q, prompts, "manhattan")
        assert sim[0, 0] > sim[0, 1]

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pairwise_similarity(np.zeros((1, 2)), np.zeros((1, 2)), "dot")


def _selection_problem(rng, num_ways=3, per_class=6, dim=8, queries=5):
    """Candidates clustered per class; queries near class centroids."""
    centroids = rng.normal(size=(num_ways, dim)) * 3
    labels = np.repeat(np.arange(num_ways), per_class)
    candidates = centroids[labels] + rng.normal(size=(len(labels), dim)) * 0.3
    q_labels = rng.integers(0, num_ways, size=queries)
    queries_emb = centroids[q_labels] + rng.normal(size=(queries, dim)) * 0.3
    return candidates, labels, queries_emb, q_labels


class TestPromptSelector:
    def test_selects_k_per_class(self):
        rng = np.random.default_rng(0)
        cand, labels, q, _ = _selection_problem(rng)
        sel = PromptSelector(GraphPrompterConfig(), rng=0).select(
            cand, np.ones(len(labels)), q, np.ones(len(q)), labels, shots=2)
        assert len(sel) == 6  # 3 classes x 2 shots
        np.testing.assert_array_equal(
            np.bincount(labels[sel], minlength=3), [2, 2, 2])

    def test_random_when_all_disabled(self):
        rng = np.random.default_rng(1)
        cand, labels, q, _ = _selection_problem(rng)
        cfg = prodigy_config()
        a = PromptSelector(cfg, rng=5).select(
            cand, np.ones(len(labels)), q, np.ones(len(q)), labels, 2)
        b = PromptSelector(cfg, rng=6).select(
            cand, np.ones(len(labels)), q, np.ones(len(q)), labels, 2)
        assert len(a) == len(b) == 6
        # Different rngs give (almost surely) different draws.
        assert not np.array_equal(a, b)

    def test_knn_prefers_query_like_prompts(self):
        """With one far-outlier candidate per class, kNN avoids it."""
        rng = np.random.default_rng(2)
        cand, labels, q, _ = _selection_problem(rng, per_class=5)
        # Poison candidate 0 of each class with a far-away embedding.
        for cls in range(3):
            idx = np.nonzero(labels == cls)[0][0]
            cand[idx] = rng.normal(size=cand.shape[1]) * 50
        cfg = GraphPrompterConfig(use_selection_layers=False,
                                  use_augmenter=False)
        sel = PromptSelector(cfg, rng=0).select(
            cand, np.ones(len(labels)), q, np.ones(len(q)), labels, 3)
        poisoned = {np.nonzero(labels == c)[0][0] for c in range(3)}
        assert len(poisoned & set(sel)) == 0

    def test_selection_layers_only_uses_importance(self):
        rng = np.random.default_rng(3)
        cand, labels, q, _ = _selection_problem(rng, per_class=4)
        importance = np.zeros(len(labels))
        # Mark exactly shots=2 candidates per class as important.
        want = []
        for cls in range(3):
            members = np.nonzero(labels == cls)[0]
            importance[members[:2]] = 1.0
            want.extend(members[:2])
        cfg = GraphPrompterConfig(use_knn=False, use_augmenter=False)
        sel = PromptSelector(cfg, rng=0).select(
            cand, importance, q, np.ones(len(q)), labels, 2)
        assert set(sel) == set(want)

    def test_scores_respect_flags(self):
        rng = np.random.default_rng(4)
        cand, labels, q, _ = _selection_problem(rng)
        selector_off = PromptSelector(prodigy_config())
        scores = selector_off.scores(cand, np.ones(len(labels)),
                                     q, np.ones(len(q)))
        np.testing.assert_allclose(scores, 0.0)

    def test_fewer_members_than_shots(self):
        cfg = GraphPrompterConfig()
        cand = np.random.default_rng(5).normal(size=(3, 4))
        labels = np.array([0, 0, 1])
        sel = PromptSelector(cfg, rng=0).select(
            cand, np.ones(3), cand[:1], np.ones(1), labels, shots=5)
        # Class 0 contributes 2, class 1 contributes 1.
        assert len(sel) == 3


class TestPromptAugmenter:
    def _augmenter(self, **kwargs):
        cfg = GraphPrompterConfig(**kwargs)
        return PromptAugmenter(cfg, rng=0)

    def test_empty_cache(self):
        aug = self._augmenter()
        emb, labels = aug.cached_prompts()
        assert emb.shape[0] == 0 and labels.shape[0] == 0
        assert len(aug) == 0

    def test_update_inserts_most_confident_per_class(self):
        aug = self._augmenter(cache_size=5)
        emb = np.arange(8, dtype=float).reshape(4, 2)
        preds = np.array([0, 0, 1, 1])
        confs = np.array([0.9, 0.1, 0.2, 0.8])
        inserted = aug.update(emb, preds, confs)
        assert inserted == 2
        cached_emb, cached_labels = aug.cached_prompts()
        assert set(cached_labels) == {0, 1}
        # Class 0 entry should be query 0 (conf 0.9), class 1 query 3.
        rows = {tuple(r) for r in cached_emb}
        assert tuple(emb[0]) in rows and tuple(emb[3]) in rows

    def test_random_pseudo_labels_mode(self):
        aug = self._augmenter(cache_size=5, random_pseudo_labels=True)
        emb = np.arange(20, dtype=float).reshape(10, 2)
        preds = np.zeros(10, dtype=int)
        confs = np.linspace(0, 1, 10)
        aug.update(emb, preds, confs)
        assert len(aug) == 1  # one per predicted class

    def test_cache_eviction_respects_capacity(self):
        aug = self._augmenter(cache_size=2)
        for i in range(5):
            aug.update(np.array([[float(i), 0.0]]), np.array([i]),
                       np.array([0.5]))
        assert len(aug) == 2

    def test_record_hits_bumps_frequency(self):
        aug = self._augmenter(cache_size=3)
        aug.update(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]),
                   np.array([0.9, 0.9]))
        hits = aug.record_hits(np.array([[1.0, 0.1]]), top_k=1)
        assert hits == 1

    def test_record_hits_empty_cases(self):
        aug = self._augmenter()
        assert aug.record_hits(np.zeros((2, 2)), 3) == 0
        aug.update(np.ones((1, 2)), np.array([0]), np.array([0.5]))
        assert aug.record_hits(np.zeros((0, 2)), 3) == 0

    def test_reset(self):
        aug = self._augmenter()
        aug.update(np.ones((1, 2)), np.array([0]), np.array([0.5]))
        aug.reset()
        assert len(aug) == 0


@settings(max_examples=15, deadline=None)
@given(
    ways=st.integers(min_value=2, max_value=5),
    prompts_per_way=st.integers(min_value=1, max_value=4),
    queries=st.integers(min_value=1, max_value=5),
)
def test_property_task_graph_edge_count(ways, prompts_per_way, queries):
    labels = np.repeat(np.arange(ways), prompts_per_way)
    tg = build_task_graph(labels, queries, ways)
    assert tg.src.shape[0] == (len(labels) + queries) * ways
    # Exactly one T edge per prompt.
    assert (tg.attr == EDGE_ATTR_PROMPT_TRUE).sum() == len(labels)


@settings(max_examples=10, deadline=None)
@given(
    shots=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=99),
)
def test_property_selector_output_sorted_per_class_and_unique(shots, seed):
    rng = np.random.default_rng(seed)
    cand, labels, q, _ = _selection_problem(rng, num_ways=3, per_class=6)
    sel = PromptSelector(GraphPrompterConfig(), rng=seed).select(
        cand, rng.random(len(labels)), q, rng.random(len(q)), labels, shots)
    assert len(np.unique(sel)) == len(sel)
    np.testing.assert_array_equal(
        np.bincount(labels[sel], minlength=3), [shots] * 3)
