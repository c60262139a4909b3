"""Stage 2 — Prompt Selector (Sec. IV-B).

Combines two signals to pick the k most useful prompts per class out of the
N candidates:

* the pre-trained selection layers' importance ``I_p`` (Eq. 5, on the
  model), and
* kNN retrieval similarity between query and prompt subgraph embeddings
  (Eq. 6).

Scores combine as ``score(p, q) = sim(p, q) + I_p · I_q`` (Eq. 7); a voting
round over all queries (Eq. 8) yields the shared prompt set ``Ŝ``.  The
selection honours the episode's class structure ("selecting k examples per
category", Sec. V-A2): each query casts its votes inside the candidate pool
of its *retrieval-predicted* class (nearest class centroid), so queries of
other classes cannot pull a class's prompt choice toward themselves; classes
that receive no votes fall back to the query-averaged score.

What depends only on the candidate pool is a :class:`SelectorState`,
built once per pool by :meth:`PromptSelector.pool_state` (a serving
session keeps its own): each candidate's class index and the class
member order, the class centroids, and — under the cosine metric — the
pool rows and centroids scaled to unit length.  A query then costs array
operations only: its rows are normalised once, each query ranks its
routed class with one stable sort over the whole score matrix, and every
class's winners come from one stable sort over (class, -key).  The
per-class loops these replace are the equivalence oracle in
``tests/reference_paths.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GraphPrompterConfig

__all__ = ["PromptSelector", "SelectorState", "pairwise_similarity",
           "unit_rows"]


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` as float64, each scaled to unit length (zero rows stay
    zero): the cosine metric's normalisation, row by row, so a row's
    bytes do not depend on the rows normalised with it."""
    rows = np.asarray(rows, dtype=np.float64)
    # np.linalg.norm(rows, axis=1, keepdims=True)'s ops, without its
    # dispatch.
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))
    return rows / np.maximum(norms, 1e-12)


def pairwise_similarity(queries: np.ndarray, prompts: np.ndarray,
                        metric: str = "cosine") -> np.ndarray:
    """Similarity matrix ``(n_queries, n_prompts)`` for Eq. 6.

    Cosine by default; Euclidean / Manhattan variants return negated
    distances so that "larger is more similar" holds for every metric (the
    paper notes the metric is substitutable).
    """
    if metric == "cosine":
        return unit_rows(queries) @ unit_rows(prompts).T
    queries = np.asarray(queries, dtype=np.float64)
    prompts = np.asarray(prompts, dtype=np.float64)
    if metric == "euclidean":
        diff = queries[:, None, :] - prompts[None, :, :]
        return -np.sqrt((diff**2).sum(axis=-1))
    if metric == "manhattan":
        diff = queries[:, None, :] - prompts[None, :, :]
        return -np.abs(diff).sum(axis=-1)
    raise ValueError(f"unknown metric {metric!r}")


@dataclass(frozen=True)
class SelectorState:
    """The query-independent part of selection over one candidate pool.

    ``classes`` holds the pool's labels in ascending order and
    ``class_of[i]`` the index into ``classes`` of candidate ``i``.
    ``order`` lists the candidates class by class, ascending within each
    class; ``counts[c]`` is the size of class ``c`` and ``within[j]`` the
    rank of ``order[j]`` inside its class.  ``centroids[c]`` is the mean
    embedding of class ``c``, the routing target of kNN voting (``None``
    when kNN is off).  Under the cosine metric ``unit`` and
    ``unit_centroids`` hold the pool rows and the centroids scaled to
    unit length (``None`` otherwise).
    """

    classes: np.ndarray
    class_of: np.ndarray
    order: np.ndarray
    counts: np.ndarray
    within: np.ndarray
    centroids: np.ndarray | None
    unit: np.ndarray | None
    unit_centroids: np.ndarray | None


class PromptSelector:
    """Adaptive top-k prompt selection (Eqs. 6–8)."""

    def __init__(self, config: GraphPrompterConfig,
                 rng: np.random.Generator | int | None = None):
        self.config = config.validate()
        self.rng = np.random.default_rng(rng)

    def scores(self, prompt_embeddings: np.ndarray,
               prompt_importance: np.ndarray,
               query_embeddings: np.ndarray,
               query_importance: np.ndarray,
               prompt_unit: np.ndarray | None = None,
               query_unit: np.ndarray | None = None) -> np.ndarray:
        """Eq. 7 score matrix ``(n_queries, n_prompts)`` under the ablation flags.

        ``prompt_unit`` and ``query_unit`` are both sides' :func:`unit_rows`
        under the cosine metric, when the caller has them.
        """
        n = query_embeddings.shape[0]
        p = prompt_embeddings.shape[0]
        total = np.zeros((n, p))
        if self.config.use_knn:
            total += self._similarity(query_embeddings, query_unit,
                                      prompt_embeddings, prompt_unit)
        if self.config.use_selection_layers:
            total += np.outer(query_importance, prompt_importance)
        return total

    def _similarity(self, queries, query_unit, rows, row_unit
                    ) -> np.ndarray:
        """:func:`pairwise_similarity`, from both sides' cosine unit rows
        when they are given."""
        if query_unit is None or row_unit is None:
            return pairwise_similarity(queries, rows, self.config.knn_metric)
        return query_unit @ row_unit.T

    def pool_state(self, prompt_embeddings: np.ndarray,
                   candidate_labels: np.ndarray) -> SelectorState:
        """Build the :class:`SelectorState` of one candidate pool."""
        candidate_labels = np.asarray(candidate_labels, dtype=np.int64)
        classes = np.unique(candidate_labels)
        class_of = np.searchsorted(classes, candidate_labels)
        counts = np.bincount(class_of, minlength=classes.size)
        order = np.argsort(class_of, kind="stable")
        starts = np.cumsum(counts) - counts
        within = np.arange(order.size) - np.repeat(starts, counts)
        centroids = unit = unit_centroids = None
        if self.config.use_knn:
            # A (class, member, dim) block summed over members adds each
            # class's rows in index order, as .mean(axis=0) does; -0.0
            # pads short classes because adding it changes no sum.
            rows = prompt_embeddings[order]
            shape = (classes.size, int(counts.max()), rows.shape[1])
            if rows.shape[0] == shape[0] * shape[1]:
                block = rows.reshape(shape)
            else:
                block = np.full(shape, -0.0)
                block[class_of[order], within] = rows
            centroids = block.sum(axis=1) / counts[:, None]
            if self.config.knn_metric == "cosine":
                unit = unit_rows(prompt_embeddings)
                unit_centroids = unit_rows(centroids)
        return SelectorState(classes, class_of, order, counts, within,
                             centroids, unit, unit_centroids)

    def select(
        self,
        prompt_embeddings: np.ndarray,
        prompt_importance: np.ndarray,
        query_embeddings: np.ndarray,
        query_importance: np.ndarray,
        candidate_labels: np.ndarray,
        shots: int,
        state: SelectorState | None = None,
    ) -> np.ndarray:
        """Choose ``shots`` prompts per class; returns candidate indices.

        ``state`` is the pool's :meth:`pool_state`; it is built here when
        absent.  The indices come class by class (ascending labels),
        ascending within each class.  With both kNN and selection layers
        disabled this degrades to Prodigy's uniform random choice.
        """
        if state is None:
            state = self.pool_state(prompt_embeddings, candidate_labels)
        adaptive = self.config.use_knn or self.config.use_selection_layers
        if not adaptive:
            # Prodigy: uniform random k-shot per class.
            selected = []
            for members in np.split(state.order,
                                    np.cumsum(state.counts)[:-1]):
                take = min(shots, members.size)
                choice = self.rng.choice(members, size=take, replace=False)
                selected.append(np.sort(choice))
            return np.concatenate(selected)

        query_unit = (None if state.unit is None
                      else unit_rows(query_embeddings))
        score_matrix = self.scores(prompt_embeddings, prompt_importance,
                                   query_embeddings, query_importance,
                                   state.unit, query_unit)
        votes = self._vote(score_matrix, query_embeddings, query_unit,
                           state, shots)
        # Fallback ranking for classes whose pool received no votes:
        # query-averaged score (plain Eq. 8 without routing).
        keys = votes + 1e-6 * score_matrix.mean(axis=0)
        # Every class's top-``shots`` keys in one stable sort: class
        # first, then descending key, ties to the lower index.
        ranked = np.lexsort((-keys, state.class_of))
        chosen = np.zeros(keys.size, dtype=bool)
        chosen[ranked[state.within < shots]] = True
        return state.order[chosen[state.order]]

    def _vote(self, score_matrix: np.ndarray, query_embeddings: np.ndarray,
              query_unit: np.ndarray | None, state: SelectorState,
              k: int) -> np.ndarray:
        """Eq. 8 voting, routed by each query's retrieval-predicted class.

        The query first retrieves its nearest class centroid, then votes
        ``score(p, q)`` for its top-k prompts inside that class's pool;
        votes add up query by query.
        """
        num_queries, num_prompts = score_matrix.shape
        keys = (-score_matrix,)
        if self.config.use_knn:
            affinity = self._similarity(query_embeddings, query_unit,
                                        state.centroids,
                                        state.unit_centroids)
            routed = affinity.argmax(axis=1)
            # Candidates outside a query's routed class rank after it.
            keys += (state.class_of != routed[:, None],)
            take = np.minimum(k, state.counts[routed])
        else:
            # Selection layers only: importance is query-independent, so
            # routing is irrelevant — everyone votes everywhere.
            take = np.full(num_queries, min(k, num_prompts))
        ranked = np.lexsort(keys)
        queries, ranks = np.nonzero(np.arange(num_prompts) < take[:, None])
        top = ranked[queries, ranks]
        votes = np.zeros(num_prompts)
        np.add.at(votes, top, score_matrix[queries, top])
        return votes
