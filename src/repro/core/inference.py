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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.base import Dataset
from ..eval.metrics import safe_accuracy
from ..nn import Tensor, no_grad
from ..obs.tracing import span
from .config import GraphPrompterConfig
from .episodes import Episode
from .model import GraphPrompterModel
from .prompt_augmenter import PromptAugmenter
from .prompt_generator import PromptGenerator
from .prompt_selector import PromptSelector

__all__ = ["EpisodeResult", "GraphPrompterPipeline"]


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
        #: Optional override of :meth:`encode_points` with the same
        #: ``(datapoints, arena=...) -> (emb, importance)`` contract.  The
        #: serving layer installs :meth:`~repro.serving.ShardRouter.
        #: encode_points` here so both query batches and candidate pools
        #: take the sharded path.
        self.point_encoder = None

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

            predictions: list[np.ndarray] = []
            confidences: list[np.ndarray] = []
            insertions = 0
            for start in range(0, episode.num_queries, query_batch_size):
                batch_queries = episode.queries[start:start + query_batch_size]
                query_emb, query_importance = self.encode_points(batch_queries)

                preds, confs, inserted = self.predict_batch(
                    candidate_emb, candidate_importance, pool_labels,
                    query_emb, query_importance, episode.num_ways, shots)
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
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Sample + encode datapoints; returns ``(embeddings, importance)``.

        Runs the no-grad fused encoder path; ``arena`` optionally supplies
        reusable batch buffers (the serving loop passes its per-tick
        :class:`~repro.gnn.BatchArena`).
        """
        if self.point_encoder is not None:
            return self.point_encoder(datapoints, arena=arena)
        with no_grad():
            emb_t = self.model.encode_subgraphs(
                self.generator.subgraphs_for(datapoints), arena=arena)
            importance = self.model.importance(emb_t).data
        return emb_t.data, importance

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
        candidate_emb, candidate_importance = (
            self.encode_points(candidate_pool))
        return candidate_emb, candidate_importance, pool_labels

    def predict_batch(self, candidate_emb: np.ndarray,
                      candidate_importance: np.ndarray,
                      pool_labels: np.ndarray,
                      query_emb: np.ndarray, query_importance: np.ndarray,
                      num_ways: int, shots: int,
                      augmenter: PromptAugmenter | None = None
                      ) -> tuple[np.ndarray, np.ndarray, int]:
        """Select → augment → predict → cache-update for one query batch.

        ``augmenter`` overrides the pipeline-owned cache — the serving layer
        passes each session's private :class:`PromptAugmenter` here.

        The whole step is inference-only, so it runs under ``no_grad`` —
        the task-graph GNN takes its fused numpy path and no backward
        closures are allocated, whether the caller is the offline episode
        runner (already inside ``no_grad``) or the online server.
        """
        with no_grad():
            return self._predict_batch_impl(
                candidate_emb, candidate_importance, pool_labels, query_emb,
                query_importance, num_ways, shots, augmenter)

    def _predict_batch_impl(self, candidate_emb, candidate_importance,
                            pool_labels, query_emb, query_importance,
                            num_ways, shots, augmenter):
        config = self.config
        augmenter = augmenter if augmenter is not None else self.augmenter
        adaptive = config.use_knn or config.use_selection_layers
        if adaptive:
            with span("select"):
                selected = self.selector.select(
                    candidate_emb, candidate_importance, query_emb,
                    query_importance, pool_labels, shots)
        else:
            # Pool already holds exactly the random k-shot prompts.
            selected = np.arange(candidate_emb.shape[0])
        prompt_emb = candidate_emb[selected]
        prompt_labels = pool_labels[selected]
        if config.use_selection_layers:
            prompt_emb = prompt_emb * candidate_importance[selected, None]

        if config.use_augmenter and len(augmenter):
            with span("augment"):
                cache_emb, cache_labels = augmenter.cached_prompts()
            prompt_emb = np.concatenate([prompt_emb, cache_emb], axis=0)
            prompt_labels = np.concatenate([prompt_labels, cache_labels])

        logits = self.model.task_logits(
            Tensor(prompt_emb), prompt_labels, Tensor(query_emb), num_ways)
        preds, confs = self.model.predict(logits)

        inserted = 0
        if config.use_augmenter:
            with span("augment"):
                augmenter.record_hits(query_emb, shots)
                # Once a query becomes a cached prompt it plays a prompt's
                # role, so store it importance-weighted like the selected
                # prompts.
                stored = query_emb
                if config.use_selection_layers:
                    stored = query_emb * query_importance[:, None]
                inserted = augmenter.update(stored, preds, confs)
        return preds, confs, inserted
