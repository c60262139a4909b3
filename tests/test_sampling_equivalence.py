"""Equivalence suite: vectorized hot paths == legacy reference paths.

Five families of guarantees pinned here:

* the CSR frontier samplers are **bit-identical** to the legacy per-node
  Python samplers of ``reference_paths`` for the same graph / seeds /
  hops / cap / RNG state (50 random graphs × seeds, plus targeted edge
  cases);
* batched subgraph induction (one ``gather_neighbor_edges`` call plus
  ``searchsorted`` membership) returns the **same** ``Subgraph`` as the
  per-row loop of ``reference_paths`` — every field's dtype, shape and
  bytes — and raises the same centre-not-in-set error;
* arena batch assembly is **byte-identical** to the legacy list-append +
  concatenate assembly, with and without reusable arena buffers;
* the fused no-grad inference forward is **bit-identical** to the
  autodiff-graph forward for both convolution types and the task GNN;
* the task GNN's dense (data × label) no-grad kernel is **byte-identical**
  to the per-edge forward of ``reference_paths`` and to the autodiff
  path, over a product grid of ways × prompts × cache rows × queries —
  and so is every graph of a padded *wave* forward, over product grids
  of task-GNN depths × dims × ways × wave sizes with uneven prompt
  counts per graph, whose last layer computes only query and label rows.
"""

from itertools import product

import numpy as np
import pytest

from repro.core import GraphPrompterConfig, GraphPrompterModel
from repro.gnn import BatchArena, SubgraphBatch
from repro.graph import EdgeInput, Graph, NodeInput, sample_data_graph
from repro.graph.sampling import bfs_neighborhood, random_walk_neighborhood
from repro.gnn.task_gnn import EDGE_ATTR_QUERY, _sum_sources
from repro.graph.subgraph import induced_subgraph
from repro.nn import Tensor, no_grad
from reference_paths import (
    bfs_legacy,
    from_subgraphs_concat,
    induced_subgraph_loop,
    random_walk_legacy,
    task_logits_edges,
)

BATCH_FIELDS = ("node_features", "src", "dst", "rel", "edge_weights",
                "rel_features", "graph_index", "edge_graph_index")
SUBGRAPH_FIELDS = ("nodes", "src", "dst", "rel", "node_features", "centers",
                   "edge_weights", "rel_features")
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


def assert_subgraphs_identical(got, want, context=None) -> None:
    """Every ``Subgraph`` field equal in dtype, shape and bytes."""
    for field in SUBGRAPH_FIELDS:
        x, y = getattr(got, field), getattr(want, field)
        assert (x is None) == (y is None), (context, field)
        if x is not None:
            assert x.dtype == y.dtype, (context, field)
            assert x.shape == y.shape, (context, field)
            assert x.tobytes() == y.tobytes(), (context, field)
    assert got.center_relation == want.center_relation, context


def induction_node_sets(graph: Graph, trial: int):
    """(node set, centres) pairs: both samplers, singletons, full range."""
    seeds = random_seeds(graph, trial)
    for sampler in (bfs_neighborhood, random_walk_neighborhood):
        for num_hops, cap in ((1, 4), (2, 16), (3, 10_000)):
            node_set = sampler(graph, seeds, num_hops, cap,
                               np.random.default_rng(trial))
            yield node_set, seeds
            # Unsorted, duplicated input canonicalises the same way.
            yield np.concatenate([node_set[::-1], node_set[:2]]), seeds[:1]
    for node in (0, graph.num_nodes - 1, int(seeds[0])):
        yield np.array([node]), np.array([node])
    yield np.arange(graph.num_nodes), seeds


class TestInductionEquivalence:
    """Batched induction vs. the per-row loop oracle, field for field."""

    @pytest.mark.parametrize("trial", range(50))
    def test_induction_bit_identical(self, trial):
        base = random_graph(trial)
        r = np.random.default_rng(2000 + trial)
        with_rel = Graph(base.num_nodes, base.src, base.dst, rel=base.rel,
                         node_features=base.node_features,
                         num_relations=base.num_relations,
                         relation_features=r.normal(
                             size=(base.num_relations, 3)))
        for graph in (base, with_rel):
            for node_set, centers in induction_node_sets(graph, trial):
                want = induced_subgraph_loop(graph, node_set, centers,
                                             center_relation=1)
                got = induced_subgraph(graph, node_set, centers,
                                       center_relation=1)
                assert_subgraphs_identical(got, want, (trial, node_set))

    @pytest.mark.parametrize("trial", range(50))
    def test_gather_neighbor_edges_matches_rows(self, trial):
        """The batched CSR gather == per-row ``neighbor_edges``, frontier
        order, duplicates and empty rows included."""
        graph = random_graph(trial)
        adj = graph.adjacency
        frontier = np.random.default_rng(trial).integers(
            0, graph.num_nodes, size=17)
        for rows in (frontier, frontier[:1], frontier[:0]):
            dsts, eids, lens = adj.gather_neighbor_edges(rows)
            parts = [adj.neighbor_edges(int(u)) for u in rows]
            assert lens.tolist() == [d.size for d, _ in parts]
            want_dsts = np.concatenate([d for d, _ in parts] + [dsts[:0]])
            want_eids = np.concatenate([e for _, e in parts] + [eids[:0]])
            assert dsts.tobytes() == want_dsts.tobytes()
            assert eids.tobytes() == want_eids.tobytes()

    def test_corner_rows(self):
        """Self-loops, parallel edges, empty rows, and destinations below,
        between and above the node set's members."""
        src = np.array([0, 0, 0, 1, 3, 3, 1, 5, 2, 7, 7])
        dst = np.array([0, 1, 1, 0, 6, 1, 7, 1, 9, 7, 3])
        graph = Graph(10, src, dst, rel=np.arange(11) % 3,
                      node_features=np.arange(20.0).reshape(10, 2),
                      relation_features=np.eye(3))
        for node_set, centers in (([0, 1, 3], [1]), ([3, 5, 8], [5, 3]),
                                  ([0, 1, 2, 3, 4], [4]), ([7], [7]),
                                  ([4, 8], [8]), ([1, 3, 7], [3])):
            want = induced_subgraph_loop(graph, node_set, centers)
            got = induced_subgraph(graph, node_set, centers)
            assert_subgraphs_identical(got, want, node_set)

    def test_center_outside_node_set_message(self):
        graph = Graph(20, np.arange(19), np.arange(1, 20),
                      node_features=np.zeros((20, 2)))
        node_set = np.array([2, 9, 11])
        for centers in ([5], [1], [12], [19], [9, 5], [0, 5], [-1]):
            with pytest.raises(ValueError) as want:
                induced_subgraph_loop(graph, node_set, centers)
            with pytest.raises(ValueError) as got:
                induced_subgraph(graph, node_set, centers)
            assert str(got.value) == str(want.value), centers


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


def task_episode_id(case) -> str:
    return "ways{}-shots{}-cache{}-queries{}".format(*case)


@pytest.fixture
def task_episode(request):
    """A model with random task-GNN weights, and one episode's inputs.

    Every task-GNN weight is drawn at random — the zero-initialised
    output projection would otherwise hide the attention path from the
    logits.  With cache rows, the selected prompts cover every label but
    the last and the cache rows carry uneven labels, so the last label
    node starts from a zero embedding (it has no true prompt).
    """
    ways, per_class, cache_rows, queries = request.param
    r = np.random.default_rng([ways, per_class, cache_rows, queries])
    dim = 16
    model = GraphPrompterModel(6, 4, GraphPrompterConfig(hidden_dim=dim))
    model.eval()
    for param in model.task_gnn.parameters():
        param.data[:] = r.normal(size=param.data.shape)
    if cache_rows:
        labels = np.concatenate([np.repeat(np.arange(ways - 1), per_class),
                                 r.integers(0, ways - 1, size=cache_rows)])
    else:
        labels = np.repeat(np.arange(ways), per_class)
    prompts = r.normal(size=(labels.size, dim))
    return model, prompts, labels, r.normal(size=(queries, dim)), ways


def assert_task_logits_identical(model, prompts, labels, queries, ways):
    """Dense no-grad logits == per-edge oracle == autodiff path, by bytes."""
    autodiff = model.task_logits(Tensor(prompts), labels, Tensor(queries),
                                 ways).data
    with no_grad():
        dense = model.task_logits(Tensor(prompts), labels, Tensor(queries),
                                  ways).data
    oracle = task_logits_edges(model, prompts, labels, queries, ways)
    assert dense.dtype == oracle.dtype == autodiff.dtype == np.float64
    assert dense.shape == oracle.shape == autodiff.shape == (len(queries),
                                                              ways)
    assert dense.tobytes() == oracle.tobytes()
    assert dense.tobytes() == autodiff.tobytes()


class TestTaskAttentionEquivalence:
    """Dense task-GNN kernel vs. the per-edge oracle and autodiff path."""

    @pytest.mark.parametrize(
        "task_episode",
        product([2, 3, 5, 9, 20, 50], [1, 3], [0, 3], [1, 4, 16]),
        indirect=True, ids=task_episode_id)
    def test_dense_kernel_bit_identical(self, task_episode):
        assert_task_logits_identical(*task_episode)

    @pytest.mark.parametrize("task_episode", [(9, 1, 3, 4)], indirect=True,
                             ids=task_episode_id)
    def test_all_zero_embeddings(self, task_episode):
        """Zeros flow through every op, so signs of zero must match too."""
        model, prompts, labels, queries, ways = task_episode
        assert_task_logits_identical(model, np.zeros_like(prompts), labels,
                                     np.zeros_like(queries), ways)

    @pytest.mark.parametrize("shape", [(2, 1), (9, 1), (50, 1), (9, 1, 1),
                                       (9, 2), (50, 16), (20, 1, 16),
                                       (3, 50, 16)])
    def test_source_sum_matches_add_at(self, shape):
        """The kernel's per-destination sum adds sources in ``np.add.at``'s
        order and zero — including one-element rows, which numpy's
        source-axis reduction would sum pairwise — for every graph of a
        wave (``shape`` is one graph's source grid)."""
        r = np.random.default_rng(len(shape) * 100 + shape[0])
        grids = [r.normal(size=shape) for _ in range(10)]
        for wave in (grids[:1], grids, [np.full(shape, -0.0)] + grids[:2]):
            got = _sum_sources(np.stack(wave))
            assert got.shape == (len(wave),) + shape[1:]
            for values, row in zip(wave, got):
                want = np.zeros((1,) + shape[1:])
                np.add.at(want, np.zeros(shape[0], dtype=np.int64), values)
                assert row.tobytes() == want[0].tobytes()


def wave_case_id(case) -> str:
    return "dim{}-ways{}-wave{}".format(*case)


def depth_case_id(case) -> str:
    return "layers{}-dim{}-ways{}-wave{}".format(*case)


def random_task_model(dim, r, layers=2):
    """A model whose every task-GNN weight is random (see task_episode),
    with ``layers`` task-GNN layers."""
    model = GraphPrompterModel(6, 4, GraphPrompterConfig(
        hidden_dim=dim, num_task_layers=layers))
    model.eval()
    for param in model.task_gnn.parameters():
        param.data[:] = r.normal(size=param.data.shape)
    return model


def assert_wave_matches_oracle(model, prompts, labels, queries, ways):
    """One wave forward == each graph's per-edge oracle, by bytes."""
    wave = model.wave_logits(prompts, labels, queries, ways)
    assert wave.shape == (len(prompts), queries[0].shape[0], ways)
    for g, logits in enumerate(wave):
        oracle = task_logits_edges(model, prompts[g], labels[g], queries[g],
                                   ways)
        assert logits.tobytes() == oracle.tobytes(), f"graph {g}"


class TestWaveKernelEquivalence:
    """The padded wave forward vs. the per-edge oracle, graph by graph."""

    @pytest.mark.parametrize("case", product([16, 32], [2, 5, 9, 50],
                                             [1, 2, 4, 16]), ids=wave_case_id)
    def test_wave_bit_identical(self, case):
        """Every graph draws its own shot count (1 or 3 per class) and
        0–3 cache rows, so data rows are padded to the longest graph."""
        dim, ways, size = case
        r = np.random.default_rng([dim, ways, size])
        model = random_task_model(dim, r)
        num_queries = int(r.choice([1, 4]))
        prompts, labels, queries = [], [], []
        for _ in range(size):
            shots, cache = int(r.choice([1, 3])), int(r.integers(0, 4))
            graph_labels = np.concatenate([np.repeat(np.arange(ways), shots),
                                           r.integers(0, ways, size=cache)])
            labels.append(graph_labels)
            prompts.append(r.normal(size=(graph_labels.size, dim)))
            queries.append(r.normal(size=(num_queries, dim)))
        assert_wave_matches_oracle(model, prompts, labels, queries, ways)

    @pytest.mark.parametrize("case", product([1, 2, 3], [16, 24, 32],
                                             [2, 5, 50], [1, 4]),
                             ids=depth_case_id)
    def test_wave_bit_identical_at_depth(self, case):
        """The last layer computes only query and label rows at every
        depth; at depth 1 it is also the first, so its labels read the
        input rows as keys and values."""
        layers, dim, ways, size = case
        r = np.random.default_rng([layers, dim, ways, size])
        model = random_task_model(dim, r, layers)
        num_queries = int(r.choice([1, 4]))
        prompts, labels, queries = [], [], []
        for _ in range(size):
            shots, cache = int(r.choice([1, 3])), int(r.integers(0, 4))
            graph_labels = np.concatenate([np.repeat(np.arange(ways), shots),
                                           r.integers(0, ways, size=cache)])
            labels.append(graph_labels)
            prompts.append(r.normal(size=(graph_labels.size, dim)))
            queries.append(r.normal(size=(num_queries, dim)))
        assert_wave_matches_oracle(model, prompts, labels, queries, ways)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_queries_at_a_different_column_per_graph(self, layers):
        """Three queries per graph and a different prompt count in each
        (5, 17, 11 and 8), so every graph's queries sit at its own
        columns of the padded grid."""
        r = np.random.default_rng(11 + layers)
        model = random_task_model(24, r, layers)
        labels = [np.concatenate([np.repeat(np.arange(5), shots),
                                  r.integers(0, 5, size=cache)])
                  for shots, cache in ((1, 0), (3, 2), (2, 1), (1, 3))]
        prompts = [r.normal(size=(row.size, 24)) for row in labels]
        queries = [r.normal(size=(3, 24)) for _ in labels]
        assert_wave_matches_oracle(model, prompts, labels, queries, 5)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_forward_grid_returns_query_and_label_rows(self, layers):
        r = np.random.default_rng(20 + layers)
        model = random_task_model(16, r, layers)
        num_prompts, num_queries, ways = np.array([4, 9, 6]), 2, 3
        width = num_prompts.max() + num_queries
        attr = np.full((3, width, ways), EDGE_ATTR_QUERY)
        for g, count in enumerate(num_prompts):
            attr[g, :count] = r.integers(0, 2, size=(count, ways))
        rows = model.task_gnn.forward_grid(
            r.normal(size=(3, width + ways, 16)), attr,
            num_prompts + num_queries,
            num_prompts[:, None] + np.arange(num_queries))
        assert rows.shape == (3, num_queries + ways, 16)

    def test_wave_without_padding(self):
        r = np.random.default_rng(7)
        model = random_task_model(16, r)
        labels = [np.repeat(np.arange(5), 3)] * 4
        prompts = [r.normal(size=(15, 16)) for _ in range(4)]
        queries = [r.normal(size=(4, 16)) for _ in range(4)]
        assert_wave_matches_oracle(model, prompts, labels, queries, 5)

    def test_all_zero_embeddings(self):
        """Zeros flow through every op, padded rows included."""
        r = np.random.default_rng(8)
        model = random_task_model(16, r)
        labels = [np.repeat(np.arange(9), shots) for shots in (1, 3, 1)]
        prompts = [np.zeros((row.size, 16)) for row in labels]
        queries = [np.zeros((1, 16)) for _ in labels]
        assert_wave_matches_oracle(model, prompts, labels, queries, 9)

    def test_wave_rejects_mixed_query_counts(self):
        model = random_task_model(16, np.random.default_rng(9))
        labels = [np.array([0, 1])] * 2
        prompts = [np.zeros((2, 16))] * 2
        with pytest.raises(ValueError, match="same number of queries"):
            model.wave_logits(prompts, labels,
                              [np.zeros((1, 16)), np.zeros((2, 16))], 2)
