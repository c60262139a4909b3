"""Prompt selection as array operations vs. the per-class loops.

``PromptSelector.select`` ranks every query's routed class with one
stable sort and picks every class's winners with one ``np.lexsort``;
``pool_state`` builds the class layout, centroids and unit rows without a
per-class loop.  Both must equal the loops of ``tests/reference_paths.py``
byte for byte over a product grid of pool shapes, tie patterns, query
counts, stage flags and metrics.
"""

from itertools import product

import numpy as np
import pytest

from repro.core import GraphPrompterConfig, PromptSelector
from repro.core.prompt_selector import unit_rows
from reference_paths import pool_state_loop, select_loop, similarity_reference

#: (use_knn, use_selection_layers): the adaptive stage combinations.
FLAGS = [(True, True), (True, False), (False, True)]
METRICS = ["cosine", "euclidean", "manhattan"]


def make_pool(r, ways, sizes, ties, layout, num_queries, dim=8):
    """A candidate pool, its importance and a query batch.

    ``sizes``: "even" gives every class 10 candidates, "uneven" 1–11
    each.  ``ties``: "none", "rounded" (one-decimal rows and importance,
    so many scores tie) or "duplicated" (repeated candidate rows and
    equal importance).  ``layout``: labels in class blocks or shuffled.
    """
    counts = (np.full(ways, 10) if sizes == "even"
              else r.integers(1, 12, size=ways))
    labels = np.repeat(np.arange(ways), counts)
    if layout == "shuffled":
        labels = r.permutation(labels)
    emb = r.normal(size=(labels.size, dim))
    importance = r.uniform(size=labels.size)
    queries = r.normal(size=(num_queries, dim))
    query_importance = r.uniform(size=num_queries)
    if ties == "rounded":
        emb, queries = np.round(emb, 1), np.round(queries, 1)
        importance = np.round(importance, 1)
        query_importance = np.round(query_importance, 1)
    elif ties == "duplicated":
        copies = r.integers(0, labels.size, size=labels.size // 2)
        emb[r.permutation(labels.size)[:copies.size]] = emb[copies]
        importance[:] = 0.5
    return emb, importance, queries, query_importance, labels


def flag_id(flags):
    return {(True, True): "knn+sel", (True, False): "knn",
            (False, True): "sel"}[flags]


@pytest.mark.parametrize("ways", [2, 5, 50])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("flags", FLAGS, ids=flag_id)
def test_select_matches_loop(flags, metric, ways):
    config = GraphPrompterConfig(use_knn=flags[0],
                                 use_selection_layers=flags[1],
                                 knn_metric=metric)
    selector = PromptSelector(config, rng=0)
    grid = product(["even", "uneven"], ["none", "rounded", "duplicated"],
                   ["blocks", "shuffled"], [1, 8], [1, 3, 4])
    for case, (sizes, ties, layout, num_queries, shots) in enumerate(grid):
        r = np.random.default_rng([ways, case, len(metric), *flags])
        emb, imp, queries, query_imp, labels = make_pool(
            r, ways, sizes, ties, layout, num_queries)
        state = selector.pool_state(emb, labels)
        got = selector.select(emb, imp, queries, query_imp, labels, shots,
                              state=state)
        want = select_loop(selector, emb, imp, queries, query_imp, labels,
                           shots)
        assert got.tobytes() == want.tobytes(), (sizes, ties, layout,
                                                 num_queries, shots)
        # Without a prebuilt state, select builds the same one.
        assert selector.select(emb, imp, queries, query_imp, labels,
                               shots).tobytes() == want.tobytes()


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("sizes", ["even", "uneven"])
def test_pool_state_matches_loop(sizes, metric):
    """Classes, members and centroids equal the loop-built ones by
    bytes, and the unit rows give the similarity's bytes."""
    config = GraphPrompterConfig(knn_metric=metric)
    selector = PromptSelector(config)
    for dim, ways, layout in product([8, 24, 32], [2, 7, 50],
                                     ["blocks", "shuffled"]):
        r = np.random.default_rng([dim, ways, len(metric), len(sizes)])
        emb, _, _, _, labels = make_pool(r, ways, sizes, "none", layout, 1,
                                         dim=dim)
        labels = labels * 3 - 4       # labels need not be 0..ways-1
        state = selector.pool_state(emb, labels)
        classes, members, centroids = pool_state_loop(config, emb, labels)
        assert state.classes.tobytes() == classes.tobytes()
        split = np.split(state.order, np.cumsum(state.counts)[:-1])
        assert len(split) == len(members)
        for got, want in zip(split, members):
            assert got.tobytes() == want.tobytes()
        assert (state.within.tobytes()
                == np.concatenate([np.arange(m.size)
                                   for m in members]).tobytes())
        assert state.centroids.tobytes() == centroids.tobytes()
        if metric == "cosine":
            # A query normalised alone meets the stored unit rows in the
            # bytes of a similarity computed in one call.
            for queries in (r.normal(size=(1, dim)), r.normal(size=(8, dim))):
                query_unit = unit_rows(queries)
                assert ((query_unit @ state.unit.T).tobytes()
                        == similarity_reference(queries, emb).tobytes())
                assert ((query_unit @ state.unit_centroids.T).tobytes()
                        == similarity_reference(queries,
                                                centroids).tobytes())
        else:
            assert state.unit is None and state.unit_centroids is None


def test_pool_state_without_knn_has_no_centroids():
    selector = PromptSelector(GraphPrompterConfig(use_knn=False))
    state = selector.pool_state(np.zeros((4, 0)), np.array([1, 0, 1, 0]))
    assert state.centroids is None and state.unit is None
    assert state.order.tolist() == [1, 3, 0, 2]


def test_random_pick_matches_loop():
    """With every adaptive stage off, the random per-class pick draws
    exactly what the loop draws."""
    config = GraphPrompterConfig(use_knn=False, use_selection_layers=False)
    r = np.random.default_rng(3)
    for ways, shots in product([2, 5, 50], [1, 3]):
        labels = r.permutation(np.repeat(np.arange(ways),
                                         r.integers(1, 8, size=ways)))
        emb = np.zeros((labels.size, 0))
        got = PromptSelector(config, rng=ways).select(
            emb, np.zeros(labels.size), np.zeros((1, 0)), np.zeros(1),
            labels, shots)
        want = select_loop(PromptSelector(config, rng=ways), emb,
                           np.zeros(labels.size), np.zeros((1, 0)),
                           np.zeros(1), labels, shots)
        assert got.tobytes() == want.tobytes()
