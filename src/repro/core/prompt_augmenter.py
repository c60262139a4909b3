"""Stage 3 — Prompt Augmenter (Sec. IV-C).

Online test-time augmentation: high-confidence query predictions become
pseudo-labelled prompts stored in an LFU cache ``C`` (Eq. 9,
``Ŝ' = Ŝ ∪ C``).  Retrieval hits — cache entries that rank among a query's
top-k most similar prompts — bump LFU frequencies, so entries that keep
matching incoming queries survive eviction.

The cache policy decides which entries live and in what order; their
rows live in one block of ``cache_size`` slots, written once when an
entry is inserted: the embedding, its unit-length row (cosine metric)
and its pseudo-label.  Each :class:`CacheEntry` carries its slot, and a
new entry takes the lowest slot no live entry holds, so the block never
needs a side table that a direct ``cache.clear()`` could leave stale.
Reading the cache is then one gather in the policy's iteration order,
and scoring hits one product.  The stacking reads this replaces are the
equivalence oracle in ``tests/reference_paths.py``.

The Table VII ablation (``random_pseudo_labels``) replaces the
max-confidence insertion policy with uniform random query selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..cache import CacheStats, make_cache
from .config import GraphPrompterConfig
from .prompt_selector import pairwise_similarity, unit_rows

__all__ = ["PromptAugmenter", "CacheEntry"]


@dataclass
class CacheEntry:
    """One pseudo-labelled test sample held in the Augmenter cache.

    ``slot`` is its row in the owning Augmenter's block.
    """

    embedding: np.ndarray
    pseudo_label: int
    confidence: float
    slot: int = -1


class PromptAugmenter:
    """LFU-cached online prompt augmentation."""

    def __init__(self, config: GraphPrompterConfig,
                 rng: np.random.Generator | int | None = None):
        self.config = config.validate()
        self.cache = make_cache(config.cache_policy, config.cache_size)
        self.rng = np.random.default_rng(rng)
        self._next_key = 0
        self._stale_evictions = 0
        # The slot block, allocated at the first insertion (the row
        # width is the caller's).
        self._rows: np.ndarray | None = None
        self._unit: np.ndarray | None = None
        self._labels = np.zeros(config.cache_size, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.cache)

    def cached_prompts(self) -> tuple[np.ndarray, np.ndarray]:
        """Current cache contents as ``(embeddings, pseudo_labels)`` arrays.

        Rows come in the cache's iteration order.  Returns empty arrays
        when the cache is empty — the caller then skips augmentation,
        matching Alg. 2's "if cache is not empty" guard.
        """
        slots = [entry.slot for entry in self.cache.values()]
        if not slots:
            return (np.zeros((0, 0)), np.zeros(0, dtype=np.int64))
        return self._rows[slots], self._labels[slots]

    def record_hits(self, query_embeddings: np.ndarray, top_k: int) -> int:
        """LFU frequency update: top-k most similar cache entries per query.

        Returns the number of hits recorded.
        """
        entries = list(self.cache.items())
        if not entries or query_embeddings.shape[0] == 0:
            return 0
        slots = [entry.slot for _, entry in entries]
        if self._unit is not None:
            sims = unit_rows(query_embeddings) @ self._unit[slots].T
        else:
            sims = pairwise_similarity(query_embeddings, self._rows[slots],
                                       self.config.knn_metric)
        hits = 0
        take = min(top_k, len(entries))
        # The default (unstable) sort kind orders ties as the LFU bumps
        # always have; the touches go query by query, best first.
        for idx in np.argsort(-sims, axis=1)[:, :take].ravel():
            if self.cache.touch(entries[idx][0]):
                hits += 1
        return hits

    def update(self, query_embeddings: np.ndarray, predictions: np.ndarray,
               confidences: np.ndarray) -> int:
        """Insert pseudo-labelled queries (``Q̂``) into the cache.

        Per batch, at most one query per *predicted class* is inserted — the
        most confident one (``|Q̂| ≤ m``, Sec. IV-C) — or a uniformly random
        one under the Table VII ablation.  Returns the number of insertions.
        """
        predictions = np.asarray(predictions, dtype=np.int64)
        confidences = np.asarray(confidences, dtype=np.float64)
        if query_embeddings.shape[0] == 0:
            return 0
        if predictions.size == 1:
            # A lone query (the serving path) is its class's only
            # member; the ablation still makes its draw.
            chosen = 0
            if self.config.random_pseudo_labels:
                chosen = int(self.rng.choice(np.zeros(1, dtype=np.intp)))
            self._insert(query_embeddings[chosen], predictions[0],
                         confidences[chosen])
            return 1
        classes = np.unique(predictions)
        for cls in classes:
            members = np.nonzero(predictions == cls)[0]
            if self.config.random_pseudo_labels:
                chosen = int(self.rng.choice(members))
            else:
                chosen = int(members[np.argmax(confidences[members])])
            self._insert(query_embeddings[chosen], cls, confidences[chosen])
        return int(classes.size)

    def _insert(self, row: np.ndarray, label, confidence) -> None:
        """Cache a copy of ``row`` under the next key and write its
        block rows into the lowest slot no other live entry holds."""
        entry = CacheEntry(embedding=np.array(row, copy=True),
                           pseudo_label=int(label),
                           confidence=float(confidence))
        self.cache.put(self._next_key, entry)
        self._next_key += 1
        taken = {other.slot for _, other in self.cache.items()}
        entry.slot = min(set(range(self.cache.capacity)).difference(taken))
        row = entry.embedding
        if self._rows is None or self._rows.shape[1:] != row.shape:
            if len(taken) > 1:
                raise ValueError("every cached embedding needs the same "
                                 "width")
            self._rows = np.zeros((self.cache.capacity,) + row.shape,
                                  dtype=row.dtype)
            if self.config.knn_metric == "cosine":
                self._unit = np.zeros(self._rows.shape)
        self._rows[entry.slot] = row
        self._labels[entry.slot] = entry.pseudo_label
        if self._unit is not None:
            # unit_rows's ops on one row, without its array overheads.
            norm = math.sqrt(np.add.reduce(row * row))
            np.divide(row, max(norm, 1e-12), out=self._unit[entry.slot])

    def invalidate(self) -> int:
        """Drop every entry because the source graph mutated.

        Cached prompts are embeddings of subgraphs sampled from a graph
        state that no longer exists — serving them would answer with
        pre-mutation structure.  The drop count accumulates in
        ``stale_evictions`` (it survives the underlying cache's counter
        reset).  Returns the number of entries dropped.
        """
        dropped = len(self.cache)
        if dropped:
            self.cache.clear()
        self._stale_evictions += dropped
        return dropped

    def stats(self) -> CacheStats:
        """Usage counters of the underlying cache (any policy),
        plus the Augmenter-level ``stale_evictions`` epoch counter."""
        return replace(self.cache.stats(),
                       stale_evictions=self._stale_evictions)

    def reset(self) -> None:
        """Empty the cache and its counters (between evaluation runs)."""
        self.cache.clear()
        self._next_key = 0
        self._stale_evictions = 0
