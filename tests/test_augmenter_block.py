"""The Augmenter's slot block vs. the stacking Augmenter, step by step.

``PromptAugmenter`` keeps its cached rows, their unit rows and their
pseudo-labels in one block addressed by slot; ``StackingAugmenter``
(``tests/reference_paths.py``) re-stacks the cached entries on every
read.  Replayed on the same random streams of updates, hit recordings,
reads, invalidations and direct cache clears, both must return, count,
order and evict the same, for every policy, size, metric and insertion
rule.
"""

from itertools import product

import numpy as np
import pytest

from repro.core import GraphPrompterConfig, PromptAugmenter
from reference_paths import StackingAugmenter


def snapshot(augmenter):
    """Everything observable about an Augmenter's cache."""
    cache = augmenter.cache
    emb, labels = augmenter.cached_prompts()
    return (augmenter.stats(), list(cache.keys()),
            [cache.frequency(key) for key in cache.keys()],
            emb.tobytes(), emb.shape, labels.tobytes(), len(augmenter))


def random_step(r, width):
    """One seeded operation: ``(method name, args)``."""
    pick = r.uniform()
    rows = int(r.integers(1, 9))
    queries = r.normal(size=(rows, width))
    if r.uniform() < 0.3:
        # Near-duplicate rows make similarity ties and near-ties.
        queries = np.round(queries, 0)
    if pick < 0.45:
        predictions = r.integers(0, 4, size=rows)
        confidences = np.round(r.uniform(size=rows), 1)
        return "update", (queries, predictions, confidences)
    if pick < 0.8:
        return "record_hits", (queries, int(r.integers(1, 5)))
    if pick < 0.92:
        return "cached_prompts", ()
    if pick < 0.96:
        return "invalidate", ()
    return "clear", ()


@pytest.mark.parametrize("random_labels", [False, True])
@pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan"])
@pytest.mark.parametrize("policy", ["lfu", "lru", "fifo"])
def test_block_replays_the_stacking_augmenter(policy, metric,
                                              random_labels):
    for size, stream in product([1, 2, 3, 10], range(3)):
        config = GraphPrompterConfig(cache_policy=policy, cache_size=size,
                                     knn_metric=metric,
                                     random_pseudo_labels=random_labels)
        seed = [size, stream, len(policy), len(metric), random_labels]
        block = PromptAugmenter(config, rng=seed)
        oracle = StackingAugmenter(config, rng=seed)
        r = np.random.default_rng(seed)
        for step in range(60):
            name, args = random_step(r, width=8)
            if name == "clear":
                # Bypasses invalidate(): slots must come from the live
                # entries, not from a table this leaves behind.
                block.cache.clear()
                oracle.cache.clear()
                continue
            got = getattr(block, name)(*args)
            want = getattr(oracle, name)(*args)
            if name == "cached_prompts":
                assert [a.tobytes() for a in got] == [a.tobytes()
                                                      for a in want]
            else:
                assert got == want, (size, stream, step, name)
            assert snapshot(block) == snapshot(oracle), (size, stream, step)


def test_single_query_update_draws_under_random_labels():
    """One query per update (the serving path) under the Table VII
    ablation inserts what the oracle inserts and leaves the RNG where
    the oracle leaves it."""
    config = GraphPrompterConfig(random_pseudo_labels=True, cache_size=2)
    block = PromptAugmenter(config, rng=4)
    oracle = StackingAugmenter(config, rng=4)
    r = np.random.default_rng(4)
    for _ in range(20):
        row = r.normal(size=(1, 8))
        pred, conf = r.integers(0, 3, size=1), r.uniform(size=1)
        assert block.update(row, pred, conf) == oracle.update(row, pred,
                                                              conf) == 1
        block.record_hits(row, 2)
        oracle.record_hits(row, 2)
        assert snapshot(block) == snapshot(oracle)
    assert (block.rng.bit_generator.state
            == oracle.rng.bit_generator.state)


def test_slots_are_reused_after_eviction():
    config = GraphPrompterConfig(cache_size=3)
    augmenter = PromptAugmenter(config, rng=0)
    for label in range(7):
        augmenter.update(np.full((1, 4), float(label + 1)),
                         np.array([label % 2]), np.array([0.9]))
    slots = sorted(entry.slot for entry in augmenter.cache.values())
    assert slots == [0, 1, 2]
    emb, _ = augmenter.cached_prompts()
    assert emb.shape == (3, 4)
