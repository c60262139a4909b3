"""Equivalence suite: vectorized hot paths == legacy reference paths.

Three families of guarantees pinned here:

* the CSR frontier samplers are **bit-identical** to the legacy per-node
  Python samplers of ``reference_paths`` for the same graph / seeds /
  hops / cap / RNG state (50 random graphs × seeds, plus targeted edge
  cases);
* arena batch assembly is **byte-identical** to the legacy list-append +
  concatenate assembly, with and without reusable arena buffers;
* the fused no-grad inference forward is **bit-identical** to the
  autodiff-graph forward for both convolution types and the task GNN.
"""

import numpy as np
import pytest

from repro.core import GraphPrompterConfig, GraphPrompterModel
from repro.gnn import BatchArena, SubgraphBatch
from repro.graph import EdgeInput, Graph, NodeInput, sample_data_graph
from repro.graph.sampling import bfs_neighborhood, random_walk_neighborhood
from repro.graph.subgraph import induced_subgraph
from repro.nn import Tensor, no_grad
from reference_paths import bfs_legacy, from_subgraphs_concat, random_walk_legacy

BATCH_FIELDS = ("node_features", "src", "dst", "rel", "edge_weights",
                "rel_features", "graph_index", "edge_graph_index")
#: Each vectorized sampler with its legacy reference.
SAMPLER_PAIRS = ((bfs_neighborhood, bfs_legacy),
                 (random_walk_neighborhood, random_walk_legacy))


def random_graph(trial: int, max_nodes: int = 200) -> Graph:
    r = np.random.default_rng(trial)
    n = int(r.integers(5, max_nodes))
    m = int(r.integers(0, 6 * n))
    return Graph(
        n, r.integers(0, n, size=m), r.integers(0, n, size=m),
        rel=r.integers(0, 4, size=m),
        node_features=r.normal(size=(n, 4)),
    )


def random_seeds(graph: Graph, trial: int) -> np.ndarray:
    r = np.random.default_rng(1000 + trial)
    return np.unique(r.integers(0, graph.num_nodes,
                                size=int(r.integers(1, 4))))


class TestSamplerEngineEquivalence:
    """Vectorized samplers vs. the legacy references, 50 random graphs × seeds."""

    @pytest.mark.parametrize("trial", range(50))
    def test_bfs_bit_identical_with_rng(self, trial):
        graph = random_graph(trial)
        seeds = random_seeds(graph, trial)
        for num_hops in (0, 1, 2, 3):
            for cap in (4, 9, 33, 10_000):
                legacy = bfs_legacy(
                    graph, seeds, num_hops, cap,
                    np.random.default_rng(trial))
                fast = bfs_neighborhood(
                    graph, seeds, num_hops, cap,
                    np.random.default_rng(trial))
                np.testing.assert_array_equal(legacy, fast)

    @pytest.mark.parametrize("trial", range(50))
    def test_random_walk_bit_identical(self, trial):
        graph = random_graph(trial)
        seeds = random_seeds(graph, trial)
        for num_hops in (0, 1, 2, 3):
            for cap in (4, 9, 33, 130, 10_000):
                legacy = random_walk_legacy(
                    graph, seeds, num_hops, cap,
                    np.random.default_rng(trial))
                fast = random_walk_neighborhood(
                    graph, seeds, num_hops, cap,
                    np.random.default_rng(trial))
                np.testing.assert_array_equal(legacy, fast)

    @pytest.mark.parametrize("trial", range(20))
    def test_bfs_rngless_truncation_order_stable(self, trial):
        """Without an RNG the cap drop is by largest node id — sampler- and
        discovery-order-independent."""
        graph = random_graph(trial)
        seeds = random_seeds(graph, trial)
        for cap in (4, 9, 33):
            legacy = bfs_legacy(graph, seeds, 2, cap, None)
            fast = bfs_neighborhood(graph, seeds, 2, cap, None)
            np.testing.assert_array_equal(legacy, fast)

    def test_star_hub_overflow(self):
        """A hub row much larger than the cap (the chunked-absorb path)."""
        n = 5000
        hub_src = np.zeros(n - 1, dtype=np.int64)
        hub_dst = np.arange(1, n, dtype=np.int64)
        graph = Graph(n, hub_src, hub_dst,
                      node_features=np.zeros((n, 2)))
        for fn, reference in SAMPLER_PAIRS:
            legacy = reference(graph, np.array([0]), 2, 64,
                               np.random.default_rng(3))
            fast = fn(graph, np.array([0]), 2, 64,
                      np.random.default_rng(3))
            np.testing.assert_array_equal(legacy, fast)

    def test_parallel_edge_hub(self):
        """A hub row led by one neighbour repeated over several absorb
        chunks: chunks with nothing unseen must be skipped in row order."""
        n = 400
        src = np.zeros(1000 + n - 2, dtype=np.int64)
        dst = np.concatenate([np.ones(1000, dtype=np.int64),
                              np.arange(2, n, dtype=np.int64)])
        graph = Graph(n, src, dst, node_features=np.zeros((n, 2)))
        for fn, reference in SAMPLER_PAIRS:
            for cap in (8, 64, 10_000):
                legacy = reference(graph, np.array([0]), 2, cap,
                                   np.random.default_rng(3))
                fast = fn(graph, np.array([0]), 2, cap,
                          np.random.default_rng(3))
                np.testing.assert_array_equal(legacy, fast)

    def test_sample_data_graph_engines_agree(self):
        """The datapoint wrapper == legacy node set + induction."""
        graph = random_graph(7)
        dp = NodeInput(3)
        for method, reference in (("bfs", bfs_legacy),
                                  ("random_walk", random_walk_legacy)):
            a = induced_subgraph(graph, reference(
                graph, dp.nodes, 2, 12, np.random.default_rng(0)), dp.nodes)
            b = sample_data_graph(graph, dp, num_hops=2, max_nodes=12,
                                  rng=np.random.default_rng(0),
                                  method=method)
            np.testing.assert_array_equal(a.nodes, b.nodes)
            np.testing.assert_array_equal(a.src, b.src)
            np.testing.assert_array_equal(a.dst, b.dst)

    def test_scratch_mask_left_clean(self):
        """The borrowed visited scratch must be fully reset after a call."""
        graph = random_graph(11)
        adj = graph.undirected_adjacency
        for fn in (bfs_neighborhood, random_walk_neighborhood):
            fn(graph, np.array([1]), 3, 8, np.random.default_rng(0))
            assert not adj.visited_scratch().any()


def _kg_subgraphs(count: int = 12, trial: int = 0):
    r = np.random.default_rng(trial)
    n, m = 150, 700
    graph = Graph(
        n, r.integers(0, n, size=m), r.integers(0, n, size=m),
        rel=r.integers(0, 4, size=m),
        node_features=r.normal(size=(n, 6)),
        relation_features=r.normal(size=(4, 6)),
    )
    subs = [
        sample_data_graph(graph, EdgeInput(int(u), int(v), relation=1),
                          num_hops=2, max_nodes=14,
                          rng=np.random.default_rng(trial * 100 + i))
        for i, (u, v) in enumerate(zip(r.integers(0, n, count),
                                       r.integers(0, n, count)))
    ]
    return subs


def _assert_batches_byte_identical(a: SubgraphBatch, b: SubgraphBatch):
    for field in BATCH_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None) == (y is None), field
        if x is not None:
            assert x.dtype == y.dtype, field
            assert x.shape == y.shape, field
            assert x.tobytes() == y.tobytes(), field
    assert a.num_graphs == b.num_graphs
    for ca, cb in zip(a.centers, b.centers):
        assert ca.dtype == cb.dtype
        np.testing.assert_array_equal(ca, cb)


class TestArenaBatchingEquivalence:
    @pytest.mark.parametrize("trial", range(10))
    def test_arena_assembly_byte_identical(self, trial):
        subs = _kg_subgraphs(trial=trial)
        # Half the subgraphs carry reconstruction weights.
        subs = [
            s.with_edge_weights(
                np.random.default_rng(trial).random(s.num_edges))
            if i % 2 else s
            for i, s in enumerate(subs)
        ]
        reference = from_subgraphs_concat(subs)
        fresh = SubgraphBatch.from_subgraphs(subs)
        _assert_batches_byte_identical(reference, fresh)
        arena = BatchArena()
        for _ in range(3):  # reuse across "ticks"
            pooled = SubgraphBatch.from_subgraphs(subs, arena=arena)
            _assert_batches_byte_identical(reference, pooled)

    def test_arena_buffers_are_reused(self):
        subs = _kg_subgraphs()
        arena = BatchArena()
        first = SubgraphBatch.from_subgraphs(subs, arena=arena)
        grown = arena.allocated_bytes
        second = SubgraphBatch.from_subgraphs(subs, arena=arena)
        assert arena.allocated_bytes == grown  # steady state: no growth
        # Same backing memory handed out again.
        assert np.shares_memory(first.node_features, second.node_features)

    def test_arena_grows_for_larger_batches(self):
        small = _kg_subgraphs(count=4)
        arena = BatchArena()
        SubgraphBatch.from_subgraphs(small, arena=arena)
        before = arena.allocated_bytes
        SubgraphBatch.from_subgraphs(_kg_subgraphs(count=16), arena=arena)
        assert arena.allocated_bytes > before

    def test_mixed_rel_features_still_rejected(self):
        subs = _kg_subgraphs(count=4)
        bare = Graph(5, np.array([0, 1]), np.array([1, 2]),
                     node_features=np.zeros((5, 6)))
        no_rel = sample_data_graph(bare, NodeInput(0), num_hops=1,
                                   max_nodes=5)
        assert no_rel.num_edges > 0
        with pytest.raises(ValueError, match="relation features"):
            SubgraphBatch.from_subgraphs(subs + [no_rel])
        with pytest.raises(ValueError, match="relation features"):
            from_subgraphs_concat(subs + [no_rel])


class TestFusedInferenceEquivalence:
    @pytest.mark.parametrize("conv", ["sage", "gat"])
    def test_encoder_fused_bit_identical(self, conv):
        subs = _kg_subgraphs()
        config = GraphPrompterConfig(hidden_dim=16, conv=conv)
        model = GraphPrompterModel(6, 4, config)
        model.eval()
        with_graph = model.encode_subgraphs(subs).data
        with no_grad():
            fused = model.encode_subgraphs(subs).data
        assert with_graph.tobytes() == fused.tobytes()

    def test_task_logits_fused_bit_identical(self):
        model = GraphPrompterModel(6, 4, GraphPrompterConfig(hidden_dim=16))
        model.eval()
        r = np.random.default_rng(0)
        prompts = r.normal(size=(9, 16))
        queries = r.normal(size=(5, 16))
        labels = r.integers(0, 3, size=9)
        with_graph = model.task_logits(Tensor(prompts), labels,
                                       Tensor(queries), 3).data
        with no_grad():
            fused = model.task_logits(Tensor(prompts), labels,
                                      Tensor(queries), 3).data
        assert with_graph.tobytes() == fused.tobytes()

    def test_no_grad_ops_skip_graph_bookkeeping(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with no_grad():
            out = (x @ x).relu().sum()
        assert out._backward is None
        assert out._parents == ()
        assert not out.requires_grad
