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

What depends only on the candidate pool — its classes, each class's
members and the class centroids — is a :class:`SelectorState`, built once
per pool by :meth:`PromptSelector.pool_state` (a serving session keeps its
own) instead of once per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GraphPrompterConfig

__all__ = ["PromptSelector", "SelectorState", "pairwise_similarity"]


def pairwise_similarity(queries: np.ndarray, prompts: np.ndarray,
                        metric: str = "cosine") -> np.ndarray:
    """Similarity matrix ``(n_queries, n_prompts)`` for Eq. 6.

    Cosine by default; Euclidean / Manhattan variants return negated
    distances so that "larger is more similar" holds for every metric (the
    paper notes the metric is substitutable).
    """
    queries = np.asarray(queries, dtype=np.float64)
    prompts = np.asarray(prompts, dtype=np.float64)
    if metric == "cosine":
        qn = queries / np.maximum(np.linalg.norm(queries, axis=1,
                                                 keepdims=True), 1e-12)
        pn = prompts / np.maximum(np.linalg.norm(prompts, axis=1,
                                                 keepdims=True), 1e-12)
        return qn @ pn.T
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

    ``members[c]`` holds the candidate indices labelled ``classes[c]``
    (ascending); ``centroids[c]`` is their mean embedding, the routing
    target of kNN voting (``None`` when kNN is off).
    """

    classes: np.ndarray
    members: tuple
    centroids: np.ndarray | None


class PromptSelector:
    """Adaptive top-k prompt selection (Eqs. 6–8)."""

    def __init__(self, config: GraphPrompterConfig,
                 rng: np.random.Generator | int | None = None):
        self.config = config.validate()
        self.rng = np.random.default_rng(rng)

    def scores(self, prompt_embeddings: np.ndarray,
               prompt_importance: np.ndarray,
               query_embeddings: np.ndarray,
               query_importance: np.ndarray) -> np.ndarray:
        """Eq. 7 score matrix ``(n_queries, n_prompts)`` under the ablation flags."""
        n = query_embeddings.shape[0]
        p = prompt_embeddings.shape[0]
        total = np.zeros((n, p))
        if self.config.use_knn:
            total += pairwise_similarity(query_embeddings, prompt_embeddings,
                                         self.config.knn_metric)
        if self.config.use_selection_layers:
            total += np.outer(query_importance, prompt_importance)
        return total

    def pool_state(self, prompt_embeddings: np.ndarray,
                   candidate_labels: np.ndarray) -> SelectorState:
        """Build the :class:`SelectorState` of one candidate pool."""
        candidate_labels = np.asarray(candidate_labels, dtype=np.int64)
        classes = np.unique(candidate_labels)
        members = tuple(np.nonzero(candidate_labels == cls)[0]
                        for cls in classes)
        centroids = None
        if self.config.use_knn:
            centroids = np.stack([prompt_embeddings[rows].mean(axis=0)
                                  for rows in members])
        return SelectorState(classes, members, centroids)

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
        absent.  With both kNN and selection layers disabled this degrades
        to Prodigy's uniform random choice.
        """
        if state is None:
            state = self.pool_state(prompt_embeddings, candidate_labels)
        adaptive = self.config.use_knn or self.config.use_selection_layers
        if not adaptive:
            # Prodigy: uniform random k-shot per class.
            selected = []
            for members in state.members:
                take = min(shots, members.size)
                choice = self.rng.choice(members, size=take, replace=False)
                selected.append(np.sort(choice))
            return np.concatenate(selected)

        score_matrix = self.scores(prompt_embeddings, prompt_importance,
                                   query_embeddings, query_importance)
        votes = self._vote(score_matrix, query_embeddings, state, shots)
        # Fallback ranking for classes whose pool received no votes:
        # query-averaged score (plain Eq. 8 without routing).
        fallback = score_matrix.mean(axis=0)

        selected = []
        for members in state.members:
            take = min(shots, members.size)
            keys = votes[members] + 1e-6 * fallback[members]
            winners = members[np.argsort(-keys, kind="stable")[:take]]
            selected.append(np.sort(winners))
        return np.concatenate(selected)

    def _vote(self, score_matrix: np.ndarray, query_embeddings: np.ndarray,
              state: SelectorState, k: int) -> np.ndarray:
        """Eq. 8 voting, routed by each query's retrieval-predicted class.

        The query first retrieves its nearest class centroid, then votes
        ``score(p, q)`` for its top-k prompts inside that class's pool.
        """
        num_prompts = score_matrix.shape[1]
        votes = np.zeros(num_prompts)
        if self.config.use_knn:
            affinity = pairwise_similarity(query_embeddings, state.centroids,
                                           self.config.knn_metric)
            routed = affinity.argmax(axis=1)
        else:
            # Selection layers only: importance is query-independent, so
            # routing is irrelevant — everyone votes everywhere.
            routed = None
        for q in range(score_matrix.shape[0]):
            if routed is None:
                pool = np.arange(num_prompts)
            else:
                pool = state.members[routed[q]]
            take = min(k, pool.size)
            top = pool[np.argsort(-score_matrix[q, pool],
                                  kind="stable")[:take]]
            votes[top] += score_matrix[q, top]
        return votes
