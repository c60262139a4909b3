"""An encoded datapoint has the same bytes in every batch it rides in.

The serving stack re-encodes only the pool candidates a graph update
touched and splices their rows into the pool, and micro-batches queries
from many sessions into one encoder pass.  Both are exact only if a
datapoint's no-grad embedding and importance do not depend on which
other datapoints share its batch, how many there are, or where in the
batch it sits.  The grid below encodes seeded subsets of a candidate
pool — sizes 1, 2, 3, 17 and the full pool, with a chosen candidate
first, in the middle and last — and compares every row with the full
pool's row by bytes.  Hand-built subgraphs add the edge cases: a
one-node subgraph encoded alone and a batch whose total edge count is 1.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro.core import (
    GraphPrompterModel,
    GraphPrompterPipeline,
    sample_episode,
)
from repro.datasets import load_dataset
from repro.experiments.common import default_config
from repro.graph.subgraph import Subgraph
from repro.nn import Linear, Tensor, no_grad
from repro.nn.layers import row_invariant_product

DATASETS = ("nell", "fb15k237", "arxiv")
#: Subset sizes; ``None`` is the full pool.
SIZES = (1, 2, 3, 17, None)
POSITIONS = ("first", "middle", "last")


def _pipeline(dataset) -> GraphPrompterPipeline:
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations, default_config())
    model.eval()
    pipeline = GraphPrompterPipeline(model, dataset, rng=0)
    pipeline.generator.deterministic = True
    return pipeline


@pytest.fixture(scope="module")
def pools():
    """Per dataset: its pipeline, a 50-candidate pool and the pool's rows."""
    built = {}
    for name in DATASETS:
        dataset = load_dataset(name)
        pipeline = _pipeline(dataset)
        episode = sample_episode(dataset, num_ways=5, rng=3)
        pool = list(episode.candidates)
        emb, importance, _ = pipeline.encode_points(pool)
        built[name] = (pipeline, pool, emb, importance)
    return built


def _subset(size: int, position: str, pool_size: int, seed) -> np.ndarray:
    """Pool indices of one batch: ``size`` distinct candidates with
    candidate 0 at ``position``."""
    rng = np.random.default_rng(seed)
    others = rng.permutation(np.arange(1, pool_size))[:size - 1]
    at = {"first": 0, "middle": (size - 1) // 2, "last": size - 1}[position]
    return np.insert(others, at, 0)


@pytest.mark.parametrize("name,size,position",
                         list(product(DATASETS, SIZES, POSITIONS)))
def test_row_bytes_equal_full_pool_row(pools, name, size, position):
    pipeline, pool, full_emb, full_importance = pools[name]
    size = size or len(pool)
    seed = [DATASETS.index(name), size, POSITIONS.index(position)]
    subset = _subset(size, position, len(pool), seed)
    emb, importance, _ = pipeline.encode_points([pool[i] for i in subset])
    for row, i in enumerate(subset):
        assert emb[row].tobytes() == full_emb[i].tobytes(), (name, row, i)
        assert importance[row].tobytes() == full_importance[i].tobytes(), (
            name, row, i)


def _subgraph(rng, num_nodes, edges, centers, edge_task):
    """A hand-built subgraph; edge tasks carry relation features."""
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    return Subgraph(
        nodes=np.arange(num_nodes), src=src, dst=dst,
        rel=np.zeros(src.size, dtype=np.int64),
        node_features=rng.normal(size=(num_nodes, 32)),
        centers=np.array(centers),
        rel_features=rng.normal(size=(src.size, 32)) if edge_task else None)


@pytest.mark.parametrize("edge_task", [False, True], ids=["node", "edge"])
def test_lone_node_and_one_edge_batches_equal_full_batch_rows(edge_task):
    """Sampled subgraphs are symmetrised (an even edge count), so the
    one-edge batch is built by hand: subgraph 0 is one node with no edge,
    subgraph 1 two nodes joined by one edge, the rest random."""
    rng = np.random.default_rng(int(edge_task))
    centers = [0, 1] if edge_task else [0]
    subgraphs = [_subgraph(rng, 1, [], [0] * len(centers), edge_task),
                 _subgraph(rng, 2, [(0, 1)], centers, edge_task)]
    for size in (3, 5, 8):
        edges = [tuple(rng.integers(0, size, 2)) for _ in range(2 * size)]
        subgraphs.append(_subgraph(rng, size, edges, centers, edge_task))
    model = GraphPrompterModel(32, 4, default_config())
    model.eval()

    def encode(batch):
        with no_grad():
            emb = model.encode_subgraphs(batch)
            return emb.data, model.importance(emb).data

    full_emb, full_importance = encode(subgraphs)
    for subset in ([0], [1], [0, 1], [1, 0], [2, 0], [1, 4, 0]):
        batch = [subgraphs[i] for i in subset]
        if subset in ([0, 1], [1, 0]):
            assert sum(sub.num_edges for sub in batch) == 1
        emb, importance = encode(batch)
        for row, i in enumerate(subset):
            assert emb[row].tobytes() == full_emb[i].tobytes(), (subset, i)
            assert (importance[row].tobytes()
                    == full_importance[i].tobytes()), (subset, i)


@pytest.mark.parametrize("rows,cols,height", [
    pytest.param(rows, cols, height,
                 id="-".join(str(v) for v in (rows, cols, height) if v))
    for height in (None, 8005)
    for rows, cols in product((1, 2, 3, 17, 64), (1, 8, 24, 32))])
def test_row_invariant_product_rows_match_full_product(rows, cols, height):
    """Each row of a sub-product equals the same row of the whole
    product, at every buffer offset, and the two-row route of a one-row
    operand matches it too.  ``cols`` are the models' output widths: a
    one-column head and hidden widths that are multiples of 8.  (Other
    widths, such as 2 or 17, are not row-invariant under OpenBLAS's
    matrix-matrix kernels; no model layer has them.)  The whole product
    is ``2 * rows + 5`` rows tall, or 8,005: a many-way pool encode
    multiplies about 8,000 node rows in one product, and the serving
    memo hands rows of such products to later batches."""
    rng = np.random.default_rng([rows, cols])
    full = rng.normal(size=(height or 2 * rows + 5, 24))
    weight = rng.normal(size=(24, cols))
    reference = row_invariant_product(full, weight)
    for start in range(4):
        part = row_invariant_product(full[start:start + rows], weight)
        assert part.tobytes() == reference[start:start + rows].tobytes()


def test_linear_keeps_the_plain_product_with_gradients():
    """Training runs the product it always ran, so trained weights (and
    the artifact cache) do not change."""
    layer = Linear(24, 1)
    x = np.random.default_rng(0).normal(size=(5, 24))
    with_grad = layer(Tensor(x))
    assert with_grad._backward is not None
    assert with_grad.data.tobytes() == (x @ layer.weight.data
                                        + layer.bias.data).tobytes()
