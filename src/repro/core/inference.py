"""Inference pipeline (Alg. 2): the three stages wired together.

Per evaluation run the pipeline receives one m-way episode — ``N``
candidates per class plus a stream of queries — and processes queries in
mini-batches, maintaining the Augmenter cache across batches exactly as
Alg. 2 maintains it across test steps:

1. **Generator** — sample + encode candidate and query data graphs (with
   reconstruction weights when enabled).
2. **Selector** — importance scores + kNN retrieval + voting pick ``k``
   prompts per class for the current query batch.
3. **Augmenter** — cache entries join the prompt set (``Ŝ' = Ŝ ∪ C``);
   after prediction, high-confidence queries are inserted and similarity
   hits bump LFU frequencies.

:meth:`GraphPrompterPipeline.predict_batch` runs steps 2–3 for several
task graphs at once — a query batch of one episode, or one query of each
of several serving sessions — with one task-GNN forward for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.base import Dataset
from ..eval.metrics import safe_accuracy
from ..nn import Tensor, no_grad
from ..obs.tracing import batch_scope, span
from .config import GraphPrompterConfig
from .episodes import Episode
from .model import GraphPrompterModel
from .prompt_augmenter import PromptAugmenter
from .prompt_generator import PromptGenerator
from .prompt_selector import PromptSelector, SelectorState

__all__ = ["EpisodeResult", "GraphPrompterPipeline", "PredictEntry"]


@dataclass
class EpisodeResult:
    """Predictions and bookkeeping of one evaluation run."""

    predictions: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray
    num_cache_insertions: int

    @property
    def accuracy(self) -> float:
        return safe_accuracy(self.predictions, self.labels)

    @property
    def num_queries(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class PredictEntry:
    """One task graph of :meth:`GraphPrompterPipeline.predict_batch`.

    The encoded candidate pool with its selector state, the query rows
    to answer against it, and the Augmenter cache that serves and
    learns from them.  ``trace`` receives the entry's own ``select`` and
    ``augment`` spans.
    """

    candidate_emb: np.ndarray
    candidate_importance: np.ndarray
    pool_labels: np.ndarray
    selector_state: SelectorState | None
    num_ways: int
    shots: int
    query_emb: np.ndarray
    query_importance: np.ndarray
    augmenter: PromptAugmenter
    trace: object | None = None


class GraphPrompterPipeline:
    """End-to-end in-context inference over one downstream dataset."""

    def __init__(self, model: GraphPrompterModel, dataset: Dataset,
                 rng: np.random.Generator | int | None = None):
        self.model = model
        self.dataset = dataset
        self.config: GraphPrompterConfig = model.config
        self.rng = np.random.default_rng(rng)
        self.generator = PromptGenerator(
            dataset.graph, model.config, rng=self.rng,
            deterministic=model.config.deterministic_sampling,
            salt=model.config.seed)
        self.selector = PromptSelector(model.config, rng=self.rng)
        self.augmenter = PromptAugmenter(model.config, rng=self.rng)

    def run_episode(self, episode: Episode, shots: int = 3,
                    query_batch_size: int = 8,
                    reset_cache: bool = True) -> EpisodeResult:
        """Run Alg. 2 over one episode; returns per-query predictions.

        ``reset_cache=False`` keeps the Augmenter cache from a previous
        call — use when streaming one logical episode through several
        ``run_episode`` invocations.
        """
        self.model.eval()
        if reset_cache:
            self.augmenter.reset()

        with no_grad():
            candidate_emb, candidate_importance, pool_labels = (
                self.encode_candidate_pool(episode, shots))
            state = self.selector.pool_state(candidate_emb, pool_labels)

            predictions: list[np.ndarray] = []
            confidences: list[np.ndarray] = []
            insertions = 0
            for start in range(0, episode.num_queries, query_batch_size):
                batch_queries = episode.queries[start:start + query_batch_size]
                query_emb, query_importance, _ = self.encode_points(
                    batch_queries)

                [(preds, confs, inserted)] = self.predict_batch([PredictEntry(
                    candidate_emb, candidate_importance, pool_labels, state,
                    episode.num_ways, shots, query_emb, query_importance,
                    self.augmenter)])
                predictions.append(preds)
                confidences.append(confs)
                insertions += inserted

        return EpisodeResult(
            predictions=np.concatenate(predictions),
            labels=episode.query_labels,
            confidences=np.concatenate(confidences),
            num_cache_insertions=insertions,
        )

    # ------------------------------------------------------------------
    # Public per-batch API — shared by the offline episode runner above and
    # the online serving path (repro.serving), which injects per-session
    # Augmenter caches.
    # ------------------------------------------------------------------
    def encode_points(self, datapoints: list, arena=None
                      ) -> tuple[np.ndarray, np.ndarray, list]:
        """Sample + encode datapoints.

        Returns ``(embeddings, importance, nodes)``: one row and one
        importance score per datapoint, and the node ids of each
        datapoint's sampled subgraph — what its row was computed from,
        which the serving layer's graph-update invalidation keys on.
        Runs the no-grad fused encoder path, whose rows do not depend on
        the batch; ``arena`` optionally supplies reusable batch buffers
        (the serving loop passes its per-tick
        :class:`~repro.gnn.BatchArena`).
        """
        subgraphs = self.generator.subgraphs_for(datapoints)
        with no_grad():
            emb_t = self.model.encode_subgraphs(subgraphs, arena=arena)
            importance = self.model.importance(emb_t).data
        return emb_t.data, importance, [sub.nodes for sub in subgraphs]

    def select_candidate_pool(self, episode: Episode, shots: int
                              ) -> tuple[list, np.ndarray]:
        """The datapoints (and labels) the prediction step works against.

        The *full* candidate set under adaptive selection, or Prodigy's
        random k-shot choice when every selection stage is disabled.
        Note the Prodigy branch draws from the pipeline RNG — callers that
        need both the datapoints and their encodings (the serving layer's
        session open/revalidate path) must reuse one selection rather
        than calling twice.
        """
        config = self.config
        if config.use_knn or config.use_selection_layers:
            # GraphPrompter pays for encoding the full candidate pool —
            # the selector needs every embedding (Eqs. 5–8).
            return list(episode.candidates), episode.candidate_labels
        # Prodigy only ever encodes its random k-shot choice
        # (Sec. V-A3), so its per-query cost excludes the pool.
        selected = self.selector.select(
            np.zeros((len(episode.candidates), 0)),
            np.zeros(len(episode.candidates)),
            np.zeros((1, 0)), np.zeros(1),
            episode.candidate_labels, shots)
        return ([episode.candidates[i] for i in selected],
                episode.candidate_labels[selected])

    def encode_candidate_pool(self, episode: Episode, shots: int
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Embeddings/importance/labels of the episode's prompt pool."""
        candidate_pool, pool_labels = self.select_candidate_pool(episode,
                                                                 shots)
        candidate_emb, candidate_importance, _ = (
            self.encode_points(candidate_pool))
        return candidate_emb, candidate_importance, pool_labels

    def predict_batch(self, entries: list[PredictEntry]
                      ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Select → augment → predict → cache-update, one task graph per entry.

        Each entry selects its prompts and reads its Augmenter cache; the
        task graphs then share one no-grad task-GNN forward per way count
        and query count (the cosine head's product is exact per graph
        only between equal query counts); last, each entry updates its
        cache.  No two entries may share an Augmenter, so each answers
        byte for byte as it would alone.  Returns ``(predictions,
        confidences, insertions)`` per entry.
        """
        augmenters = {id(entry.augmenter) for entry in entries}
        if len(augmenters) != len(entries):
            raise ValueError("entries of one predict_batch call need "
                             "distinct Augmenters")
        config = self.config
        prompts = []
        for entry in entries:
            with batch_scope([entry.trace]):
                prompts.append(self._prompt_set(entry))

        groups: dict[tuple[int, int], list[int]] = {}
        for i, entry in enumerate(entries):
            key = (entry.num_ways, entry.query_emb.shape[0])
            groups.setdefault(key, []).append(i)
        answers: list = [None] * len(entries)
        for (num_ways, _), members in groups.items():
            logits = self.model.wave_logits(
                [prompts[i][0] for i in members],
                [prompts[i][1] for i in members],
                [entries[i].query_emb for i in members], num_ways)
            preds, confs = self.model.predict(Tensor(logits))
            for k, i in enumerate(members):
                answers[i] = (preds[k], confs[k])

        results = []
        for entry, (preds, confs) in zip(entries, answers):
            inserted = 0
            if config.use_augmenter:
                with batch_scope([entry.trace]), span("augment"):
                    entry.augmenter.record_hits(entry.query_emb, entry.shots)
                    # Once a query becomes a cached prompt it plays a
                    # prompt's role, so store it importance-weighted like
                    # the selected prompts.
                    stored = entry.query_emb
                    if config.use_selection_layers:
                        stored = (entry.query_emb
                                  * entry.query_importance[:, None])
                    inserted = entry.augmenter.update(stored, preds, confs)
            results.append((preds, confs, inserted))
        return results

    def _prompt_set(self, entry: PredictEntry
                    ) -> tuple[np.ndarray, np.ndarray]:
        """An entry's prompt rows and labels: its selected candidates,
        importance-weighted, then its Augmenter cache (``Ŝ' = Ŝ ∪ C``)."""
        config = self.config
        if config.use_knn or config.use_selection_layers:
            with span("select"):
                selected = self.selector.select(
                    entry.candidate_emb, entry.candidate_importance,
                    entry.query_emb, entry.query_importance,
                    entry.pool_labels, entry.shots,
                    state=entry.selector_state)
        else:
            # Pool already holds exactly the random k-shot prompts.
            selected = np.arange(entry.candidate_emb.shape[0])
        prompt_emb = entry.candidate_emb[selected]
        prompt_labels = entry.pool_labels[selected]
        if config.use_selection_layers:
            prompt_emb = prompt_emb * entry.candidate_importance[selected,
                                                                 None]
        if config.use_augmenter and len(entry.augmenter):
            with span("augment"):
                cache_emb, cache_labels = entry.augmenter.cached_prompts()
            prompt_emb = np.concatenate([prompt_emb, cache_emb], axis=0)
            prompt_labels = np.concatenate([prompt_labels, cache_labels])
        return prompt_emb, prompt_labels
