"""Which public functions each ledger row wraps.

One span name per layer.  Several entry points can feed one row (the
gateway and the bare server both admit and dispatch), so every row has a
value on every workload.  The benchmark's calls reach these functions
through the attribute patched here: methods through their class, and the
sampler and inducer through the globals of :mod:`repro.graph.sampling`,
which is where ``sample_data_graph`` looks them up.
"""

from __future__ import annotations

from repro.core.inference import GraphPrompterPipeline
from repro.core.model import GraphPrompterModel
from repro.core.prompt_augmenter import PromptAugmenter
from repro.core.prompt_generator import PromptGenerator
from repro.core.prompt_selector import PromptSelector
from repro.gnn.batch import SubgraphBatch
from repro.graph import sampling
from repro.serving import PromptServer, ServingGateway

__all__ = ["SPANS", "install"]


def _task_graph_nodes(counts, args, _result) -> None:
    # task_logits(self, prompt_embeddings, prompt_labels,
    #             query_embeddings, num_ways): prompts + queries + labels.
    counts["task_graph_nodes"] += (args[1].shape[0] + args[3].shape[0]
                                   + args[4])


def _augmented(counts, _args, _result) -> None:
    # The pipeline reads the cache only when it holds entries, so each call
    # is one query whose prompt set drew on cached pseudo-labels.
    counts["augmented_queries"] += 1


#: (owner, attribute, span name, counter hook), innermost layers first.
SPANS = (
    (sampling, "induced_subgraph", "graph.subgraph.induce", None),
    (sampling, "random_walk_neighborhood", "graph.sampling.sample", None),
    (PromptGenerator, "subgraph_for", "core.prompt_generator.dispatch",
     None),
    (SubgraphBatch, "from_subgraphs", "gnn.batch.assemble", None),
    (GraphPrompterModel, "encode_batch", "core.model.forward", None),
    (GraphPrompterModel, "importance", "core.model.importance", None),
    (PromptSelector, "select", "core.prompt_selector.select", None),
    (GraphPrompterModel, "task_logits", "core.model.task_gnn",
     _task_graph_nodes),
    (PromptAugmenter, "record_hits", "core.prompt_augmenter.augment", None),
    (PromptAugmenter, "update", "core.prompt_augmenter.augment", None),
    (PromptAugmenter, "cached_prompts", "core.prompt_augmenter.augment",
     _augmented),
    (GraphPrompterPipeline, "predict_batch", "core.inference.predict", None),
    (ServingGateway, "submit_nowait", "serving.admit", None),
    (PromptServer, "submit", "serving.admit", None),
    (ServingGateway, "flush", "serving.dispatch", None),
    (PromptServer, "drain", "serving.dispatch", None),
    (PromptServer, "step", "serving.server.step", None),
    (PromptServer, "update_graph", "serving.server.update", None),
    (ServingGateway, "open_session", "serving.session.open", None),
    (PromptServer, "open_session", "serving.session.open", None),
)


def install(ledger) -> None:
    """Wrap every layer of :data:`SPANS` with ``ledger``'s spans."""
    for owner, attr, name, count in SPANS:
        ledger.wrap(owner, attr, name, count)
