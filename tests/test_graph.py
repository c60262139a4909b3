"""Tests for the graph substrate: Graph, CSR, subgraphs and samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import (
    synthetic_citation_graph,
    synthetic_knowledge_graph,
)
from repro.graph import (
    CSRAdjacency,
    DeltaAdjacency,
    EdgeInput,
    Graph,
    GraphUpdate,
    NodeInput,
    Subgraph,
    bfs_neighborhood,
    induced_subgraph,
    random_walk_neighborhood,
    sample_data_graph,
)


def path_graph(n=5, feature_dim=3):
    """0-1-2-...-(n-1) path with simple features."""
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    feats = np.arange(n * feature_dim, dtype=float).reshape(n, feature_dim)
    return Graph(n, src, dst, node_features=feats, name="path")


def star_graph(leaves=6):
    """Node 0 connected to 1..leaves."""
    src = np.zeros(leaves, dtype=int)
    dst = np.arange(1, leaves + 1)
    return Graph(leaves + 1, src, dst,
                 node_features=np.eye(leaves + 1), name="star")


class TestCSR:
    def test_neighbors(self):
        adj = CSRAdjacency(4, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3]))
        np.testing.assert_array_equal(np.sort(adj.neighbors(0)), [1, 2])
        np.testing.assert_array_equal(adj.neighbors(3), [])

    def test_edge_ids_recoverable(self):
        src = np.array([2, 0, 1])
        dst = np.array([0, 1, 2])
        adj = CSRAdjacency(3, src, dst)
        dsts, eids = adj.neighbor_edges(2)
        np.testing.assert_array_equal(dsts, [0])
        np.testing.assert_array_equal(eids, [0])

    def test_degree_vector(self):
        adj = CSRAdjacency(3, np.array([0, 0, 1]), np.array([1, 2, 0]))
        np.testing.assert_array_equal(adj.degree(), [2, 1, 0])
        assert adj.degree(0) == 2

    def test_validates_range(self):
        with pytest.raises(ValueError):
            CSRAdjacency(2, np.array([0]), np.array([5]))
        with pytest.raises(ValueError):
            CSRAdjacency(2, np.array([0, 1]), np.array([1]))

    def test_empty_graph(self):
        adj = CSRAdjacency(3, np.array([], dtype=int), np.array([], dtype=int))
        assert adj.num_edges == 0
        np.testing.assert_array_equal(adj.neighbors(1), [])


class TestGraph:
    def test_basic_properties(self):
        g = path_graph(5)
        assert g.num_nodes == 5
        assert g.num_edges == 4
        assert g.feature_dim == 3
        assert "path" in repr(g)

    def test_undirected_neighbors(self):
        g = path_graph(4)
        np.testing.assert_array_equal(np.sort(g.neighbors(1)), [0, 2])
        np.testing.assert_array_equal(np.sort(g.neighbors(0)), [1])

    def test_degree(self):
        g = star_graph(5)
        assert g.degree(0) == 5
        assert g.degree(3) == 1

    def test_edge_endpoints(self):
        g = Graph(3, np.array([0]), np.array([2]), rel=np.array([1]),
                  num_relations=2)
        assert g.edge_endpoints(0) == (0, 1, 2)

    def test_edges_between(self):
        g = Graph(3, np.array([0, 0, 1]), np.array([1, 1, 2]))
        assert len(g.edges_between(0, 1)) == 2
        assert len(g.edges_between(1, 0)) == 0

    def test_edge_id_to_original_wraps(self):
        g = path_graph(3)
        assert g.edge_id_to_original(g.num_edges) == 0

    def test_num_node_classes(self):
        g = Graph(3, np.array([0]), np.array([1]),
                  node_labels=np.array([0, 2, 1]))
        assert g.num_node_classes == 3
        assert path_graph().num_node_classes == 0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Graph(0, np.array([]), np.array([]))
        with pytest.raises(ValueError):
            Graph(2, np.array([0]), np.array([3]))
        with pytest.raises(ValueError):
            Graph(2, np.array([0]), np.array([1]), rel=np.array([5]),
                  num_relations=2)
        with pytest.raises(ValueError):
            Graph(2, np.array([0]), np.array([1]),
                  node_features=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Graph(2, np.array([0]), np.array([1]),
                  node_labels=np.array([0]))

    @pytest.mark.parametrize("arrays, message", [
        (dict(src=[0, 1], dst=[1]), "src/dst length mismatch"),
        (dict(src=[0, 1], dst=[1, 2], rel=[0]), "rel length"),
        (dict(src=[0], dst=[1], num_relations=2,
              relation_features=np.zeros((3, 4))), "relation_features"),
    ], ids=["endpoint-lengths-differ", "relation-length-differs",
            "relation-feature-rows"])
    def test_inconsistent_arrays_refused(self, arrays, message):
        with pytest.raises(ValueError, match=message):
            Graph(3, **arrays)


class TestSubgraph:
    def test_induced_keeps_internal_edges(self):
        g = path_graph(5)
        sub = induced_subgraph(g, np.array([1, 2, 3]), centers=np.array([2]))
        assert sub.num_nodes == 3
        # Edges 1-2 and 2-3 survive, symmetrised to 4 directed edges.
        assert sub.num_edges == 4

    def test_centers_map_to_local(self):
        g = path_graph(5)
        sub = induced_subgraph(g, np.array([2, 3, 4]), centers=np.array([3]))
        local_center = sub.centers[0]
        assert sub.nodes[local_center] == 3

    def test_center_outside_raises(self):
        g = path_graph(5)
        with pytest.raises(ValueError):
            induced_subgraph(g, np.array([0, 1]), centers=np.array([4]))

    def test_features_subset(self):
        g = path_graph(5)
        sub = induced_subgraph(g, np.array([0, 4]), centers=np.array([0]))
        np.testing.assert_allclose(sub.node_features,
                                   g.node_features[[0, 4]])

    def test_with_edge_weights(self):
        g = path_graph(4)
        sub = induced_subgraph(g, np.array([0, 1, 2]), centers=np.array([1]))
        weighted = sub.with_edge_weights(np.full(sub.num_edges, 0.5))
        assert weighted.edge_weights is not None
        assert sub.edge_weights is None  # original untouched

    def test_with_edge_weights_validates_shape(self):
        g = path_graph(4)
        sub = induced_subgraph(g, np.array([0, 1]), centers=np.array([0]))
        with pytest.raises(ValueError):
            sub.with_edge_weights(np.ones(99))

    def test_subgraph_validates_local_ids(self):
        with pytest.raises(ValueError):
            Subgraph(
                nodes=np.array([0, 1]),
                src=np.array([0]),
                dst=np.array([5]),
                rel=np.array([0]),
                node_features=np.zeros((2, 2)),
                centers=np.array([0]),
            )


class TestBFSSampler:
    def test_zero_hops_returns_seeds(self):
        g = path_graph(5)
        out = bfs_neighborhood(g, np.array([2]), num_hops=0)
        np.testing.assert_array_equal(out, [2])

    def test_one_hop_path(self):
        g = path_graph(5)
        out = bfs_neighborhood(g, np.array([2]), num_hops=1)
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_two_hops_path(self):
        g = path_graph(7)
        out = bfs_neighborhood(g, np.array([3]), num_hops=2)
        np.testing.assert_array_equal(out, [1, 2, 3, 4, 5])

    def test_max_nodes_cap(self):
        g = star_graph(20)
        out = bfs_neighborhood(g, np.array([0]), num_hops=1, max_nodes=5,
                               rng=np.random.default_rng(0))
        assert len(out) == 5
        assert 0 in out

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            bfs_neighborhood(path_graph(3), np.array([0]), num_hops=-1)


class TestRandomWalkSampler:
    def test_contains_seed_and_neighbors(self):
        g = path_graph(5)
        out = random_walk_neighborhood(g, np.array([2]), num_hops=1,
                                       rng=np.random.default_rng(0))
        assert 2 in out
        assert 1 in out and 3 in out

    def test_respects_max_nodes(self):
        g = star_graph(50)
        out = random_walk_neighborhood(g, np.array([0]), num_hops=3,
                                       max_nodes=10,
                                       rng=np.random.default_rng(1))
        assert len(out) <= 10

    def test_subset_of_l_hop_ball(self):
        g = path_graph(9)
        ball = set(bfs_neighborhood(g, np.array([4]), num_hops=3,
                                    max_nodes=10_000))
        walk = random_walk_neighborhood(g, np.array([4]), num_hops=3,
                                        max_nodes=10_000,
                                        rng=np.random.default_rng(2))
        assert set(walk) <= ball

    def test_deterministic_given_rng(self):
        g = star_graph(10)
        a = random_walk_neighborhood(g, np.array([3]), 2,
                                     rng=np.random.default_rng(7))
        b = random_walk_neighborhood(g, np.array([3]), 2,
                                     rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestScratchCheckout:

    def test_concurrent_borrowers_get_distinct_masks(self):
        graph = synthetic_knowledge_graph(50, 3, 200, feature_dim=4, rng=0)
        adj = graph.undirected_adjacency
        first = adj.visited_scratch()
        second = adj.visited_scratch()
        assert first is not second
        first[3] = True   # a dirty mask must not leak to the next borrower
        first[3] = False
        adj.release_scratch(first)
        adj.release_scratch(second)
        assert adj.visited_scratch() is second
        assert adj.visited_scratch() is first

    def test_interleaved_sampling_is_isolated(self):
        # A sampler borrowing the scratch while another borrow is live
        # must not corrupt the outer borrower's visited state.
        graph = synthetic_knowledge_graph(60, 3, 300, feature_dim=4, rng=1)
        adj = graph.undirected_adjacency
        outer = adj.visited_scratch()
        outer[:10] = True
        result = bfs_neighborhood(graph, np.array([0]), 2, 16,
                                  np.random.default_rng(0))
        fresh = bfs_neighborhood(graph, np.array([0]), 2, 16,
                                 np.random.default_rng(0))
        assert np.array_equal(result, fresh)
        assert outer[:10].all() and not outer[10:].any()
        outer[:10] = False
        adj.release_scratch(outer)

    @pytest.mark.parametrize("surface", ["csr", "overlay"])
    @pytest.mark.parametrize("sampler", [bfs_neighborhood,
                                         random_walk_neighborhood],
                             ids=["bfs", "random_walk"])
    def test_failed_sample_returns_a_clean_mask(self, sampler, surface):
        """A sampler that raises mid-walk still clears every entry it set
        and hands its mask back, on the CSR and on the delta overlay."""
        graph = synthetic_knowledge_graph(60, 3, 300, feature_dim=4, rng=2)
        if surface == "overlay":
            graph.apply_updates(GraphUpdate(add_src=[0], add_dst=[1]))
        adj = graph.undirected_adjacency
        assert isinstance(adj, DeltaAdjacency) == (surface == "overlay")
        mask = adj.visited_scratch()
        adj.release_scratch(mask)
        seeds = np.array([0, 5])
        # The first draw comes after the first hop marked nodes: BFS draws
        # when its second frontier overflows the cap, the walk per hop.
        with pytest.raises(RuntimeError, match="draw budget"):
            sampler(graph, seeds, 3, 40, ExhaustingRNG(0, budget=0))
        assert adj.visited_scratch() is mask
        assert not mask.any()
        adj.release_scratch(mask)
        np.testing.assert_array_equal(
            sampler(graph, seeds, 3, 40, np.random.default_rng(1)),
            sampler(graph.rebuild(), seeds, 3, 40,
                    np.random.default_rng(1)))


class ExhaustingRNG:
    """Draws like a seeded generator until ``budget`` draws are spent,
    then raises: a sampler that fails partway through."""

    def __init__(self, seed: int, budget: int):
        self._rng = np.random.default_rng(seed)
        self._budget = budget

    def _spend(self) -> None:
        if self._budget == 0:
            raise RuntimeError("draw budget spent")
        self._budget -= 1

    def integers(self, *args, **kwargs):
        self._spend()
        return self._rng.integers(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self._spend()
        return self._rng.choice(*args, **kwargs)


# ----------------------------------------------------------------------
# Writes: validation at the boundary, and the receipt of an update
# ----------------------------------------------------------------------
def _labelled_graph() -> Graph:
    return synthetic_citation_graph(40, 3, feature_dim=4, rng=0)


def _graph_state(graph: Graph) -> tuple:
    alive = None if graph.edge_alive is None else graph.edge_alive.tobytes()
    return (graph.version, graph.num_nodes, graph.num_edges,
            graph.node_features.shape, graph.node_labels.shape, alive)


#: Writes the graph must refuse, each with the message it raises.
BAD_WRITES = {
    "features-wrong-width": (
        lambda g: g.add_nodes(np.zeros((2, 5))), "node_features"),
    "features-one-dimensional": (
        lambda g: g.add_nodes(np.zeros(4)), "node_features"),
    "labels-wrong-length": (
        lambda g: g.add_nodes(np.zeros((2, 4)), [0, 1, 2]), "node_labels"),
    "endpoint-lengths-differ": (
        lambda g: g.add_edges([0, 1], [2]), "length mismatch"),
    "endpoint-past-last-node": (
        lambda g: g.add_edges([0], [g.num_nodes]), "out of range"),
    "negative-endpoint": (
        lambda g: g.add_edges([-1], [0]), "out of range"),
    "relation-length-differs": (
        lambda g: g.add_edges([0, 1], [2, 3], rel=[0]), "rel length"),
    "relation-past-last-id": (
        lambda g: g.add_edges([0], [1], rel=[g.num_relations]),
        "num_relations"),
    # apply_updates batches whose earlier stages alone would apply.
    "update-endpoint-past-new-nodes": (
        lambda g: g.apply_updates(GraphUpdate(
            add_node_features=np.zeros((1, 4)), add_src=[0],
            add_dst=[g.num_nodes + 1])), "out of range"),
    "update-removal-repeated-after-add": (
        lambda g: g.apply_updates(GraphUpdate(
            add_src=[0], add_dst=[1], remove_edges=[1, 1])), "duplicate"),
    "update-removal-past-new-edges": (
        lambda g: g.apply_updates(GraphUpdate(
            add_src=[0], add_dst=[1], remove_edges=[g.num_edges + 1])),
        "out of range"),
}


class TestGraphWrites:

    @pytest.mark.parametrize("case", sorted(BAD_WRITES))
    def test_rejected_write_leaves_graph_unchanged(self, case):
        write, message = BAD_WRITES[case]
        graph = _labelled_graph()
        graph.undirected_adjacency  # built: a write would wrap it in place
        before = _graph_state(graph)
        with pytest.raises(ValueError, match=message):
            write(graph)
        assert _graph_state(graph) == before
        # Nothing was half-written: the graph still reads whole.
        ref = graph.rebuild()
        assert np.array_equal(graph.degree(), ref.degree())

    @pytest.mark.parametrize("write", [
        lambda g: g.add_nodes(np.zeros((0, 4))),
        lambda g: g.add_edges([], []),
    ], ids=["no-nodes", "no-edges"])
    def test_empty_write_is_a_no_op(self, write):
        graph = _labelled_graph()
        before = _graph_state(graph)
        assert write(graph).size == 0
        assert _graph_state(graph) == before

    def test_empty_removal_is_a_no_op(self):
        """Removing no edges writes nothing: no version bump, and the
        built view stays a plain CSR (the graph is not promoted)."""
        graph = _labelled_graph()
        graph.undirected_adjacency
        before = _graph_state(graph)
        graph.remove_edges([])
        assert _graph_state(graph) == before
        assert isinstance(graph.undirected_adjacency, CSRAdjacency)

    def test_graph_without_edges_takes_writes(self):
        """Views built over no edges promote and compact like any other:
        edges added and then all removed read as a rebuild does."""
        graph = Graph(4, [], [], node_features=np.eye(4))
        graph.adjacency, graph.undirected_adjacency  # built while edgeless

        def reads_as_rebuild():
            ref = graph.rebuild()
            for node in range(graph.num_nodes):
                assert np.array_equal(graph.neighbors(node),
                                      ref.neighbors(node))
                assert np.array_equal(graph.adjacency.neighbors(node),
                                      ref.adjacency.neighbors(node))

        assert graph.add_edges([0, 1, 3], [1, 2, 0]).tolist() == [0, 1, 2]
        reads_as_rebuild()
        graph.remove_edges([0, 1, 2])
        graph.compact()  # rebuilds both views from no live edge
        reads_as_rebuild()
        assert graph.num_live_edges == 0
        assert graph.degree().tolist() == [0, 0, 0, 0]
        assert graph.undirected_adjacency.gather_neighbors([]).size == 0

    @pytest.mark.parametrize("query", [
        lambda adj: adj.neighbor_edges(0),
        lambda adj: adj.gather_neighbor_edges(np.array([0, 1])),
    ], ids=["one-row", "batched"])
    def test_only_the_directed_overlay_answers_edge_queries(self, query):
        """A two-lane row holds each edge once per direction, so edge-id
        queries are refused there and answered by the directed view."""
        graph = _labelled_graph()
        graph.adjacency, graph.undirected_adjacency
        new = graph.add_edges([0], [1])
        with pytest.raises(TypeError, match="directed-view"):
            query(graph.undirected_adjacency)
        dsts, eids = query(graph.adjacency)[:2]
        assert new[0] in eids.tolist()
        assert dsts[eids.tolist().index(new[0])] == 1

    def test_update_may_remove_an_edge_it_adds(self):
        graph = _labelled_graph()
        graph.remove_edges([0])
        n, m = graph.num_nodes, graph.num_edges
        before = _graph_state(graph)
        with pytest.raises(ValueError, match="already removed"):
            graph.apply_updates(GraphUpdate(add_src=[0], add_dst=[1],
                                            remove_edges=[m, 0]))
        assert _graph_state(graph) == before
        update = GraphUpdate(add_node_features=np.ones((1, 4)),
                             add_src=[0], add_dst=[n], remove_edges=[m])
        graph.check_update(update)
        assert graph.apply_updates(update).new_edge_ids.tolist() == [m]
        assert graph.num_nodes == n + 1 and not graph.edge_alive[m]
        assert graph.degree(n) == 0

    def test_new_nodes_default_to_class_zero(self):
        graph = _labelled_graph()
        labels = graph.node_labels.copy()
        new = graph.add_nodes(np.ones((2, 4)))
        assert new.tolist() == [40, 41]
        assert np.array_equal(graph.node_labels, np.append(labels, [0, 0]))
        assert np.array_equal(graph.node_features[new], np.ones((2, 4)))


#: Update batches that reach different write paths of ``apply_updates``.
UPDATE_SHAPES = ("add-edges", "remove-edges", "new-nodes-only",
                 "new-nodes-wired", "self-loops-and-parallels", "mixed")


def shaped_update(graph: Graph, shape: str,
                  rng: np.random.Generator) -> GraphUpdate:
    n = graph.num_nodes
    src, dst, rel, live = graph.live_edges()
    ends = dict(add_src=rng.integers(0, n, size=6),
                add_dst=rng.integers(0, n, size=6),
                add_rel=rng.integers(0, graph.num_relations, size=6))
    new_nodes = dict(
        add_node_features=rng.normal(size=(2, graph.feature_dim)))
    if shape == "add-edges":
        return GraphUpdate(**ends)
    if shape == "remove-edges":
        return GraphUpdate(remove_edges=rng.choice(live, size=6,
                                                   replace=False))
    if shape == "new-nodes-only":
        return GraphUpdate(**new_nodes)
    if shape == "new-nodes-wired":
        # The batch's own new nodes are endpoints of its new edges.
        return GraphUpdate(add_src=[n, n + 1, n],
                           add_dst=rng.integers(0, n, size=3),
                           add_rel=[0, 0, 0], **new_nodes)
    if shape == "self-loops-and-parallels":
        u, i = int(rng.integers(n)), int(rng.integers(live.size))
        return GraphUpdate(add_src=[u, src[i], src[i]],
                           add_dst=[u, dst[i], dst[i]],
                           add_rel=[0, rel[i], rel[i]])
    # "mixed": every stage in one batch.
    return GraphUpdate(remove_edges=rng.choice(live, size=3, replace=False),
                       **ends, **new_nodes)


def _rows(graph: Graph, node: int) -> tuple:
    """What a sampler or an inducer reads of one node: its undirected row,
    its directed row and that row's relations."""
    dsts, eids = graph.adjacency.neighbor_edges(node)
    return (graph.neighbors(node).tolist(), dsts.tolist(),
            graph.rel[eids].tolist())


class TestUpdateReceipt:
    """Every cache keys invalidation on ``AppliedUpdate.touched_nodes``: it
    must name each row an update changed, new nodes included."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shape", UPDATE_SHAPES)
    def test_touched_nodes_name_every_changed_row(self, shape, seed):
        graph = synthetic_knowledge_graph(60, 3, 240, feature_dim=4,
                                          rng=seed)
        graph.undirected_adjacency  # the update writes through an overlay
        rng = np.random.default_rng([seed, UPDATE_SHAPES.index(shape)])
        update = shaped_update(graph, shape, rng)
        before, version = graph.rebuild(), graph.version
        applied = graph.apply_updates(update)
        after = graph.rebuild()

        removed = np.asarray(update.remove_edges, dtype=np.int64)
        new_nodes = set(range(before.num_nodes, after.num_nodes))
        endpoints = set(np.concatenate([
            np.asarray(update.add_src, dtype=np.int64),
            np.asarray(update.add_dst, dtype=np.int64),
            graph.src[removed], graph.dst[removed]]).tolist())
        touched = applied.touched_nodes
        assert np.array_equal(touched, np.unique(touched))
        assert set(touched.tolist()) == endpoints | new_nodes
        changed = new_nodes | {node for node in range(before.num_nodes)
                               if _rows(before, node) != _rows(after, node)}
        assert changed <= set(touched.tolist())
        if shape != "mixed":  # no write in these batches undoes another
            assert changed == set(touched.tolist())

        assert applied.version == graph.version > version
        np.testing.assert_array_equal(graph.src[applied.new_edge_ids],
                                      np.asarray(update.add_src))
        np.testing.assert_array_equal(graph.dst[applied.new_edge_ids],
                                      np.asarray(update.add_dst))
        np.testing.assert_array_equal(applied.removed_edge_ids, removed)
        if removed.size:
            assert not graph.edge_alive[removed].any()


class TestSampleDataGraph:
    def test_node_input(self):
        g = path_graph(5)
        sub = sample_data_graph(g, NodeInput(2), num_hops=1, method="bfs")
        assert sub.num_nodes == 3
        assert sub.nodes[sub.centers[0]] == 2
        assert sub.center_relation is None

    def test_edge_input_carries_relation(self):
        g = Graph(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                  rel=np.array([0, 1, 0]), num_relations=2,
                  node_features=np.eye(4))
        sub = sample_data_graph(g, EdgeInput(1, 2, relation=1), num_hops=1,
                                method="bfs")
        assert sub.center_relation == 1
        assert set(sub.nodes[sub.centers]) == {1, 2}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            sample_data_graph(path_graph(3), NodeInput(0), method="dfs")

    def test_unknown_datapoint_rejected(self):
        with pytest.raises(TypeError):
            sample_data_graph(path_graph(3), "node-0", method="bfs")


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    hops=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=999),
)
def test_property_bfs_monotone_in_hops(n, hops, seed):
    """The l-hop ball grows (weakly) with l and always contains the seed."""
    rng = np.random.default_rng(seed)
    num_edges = max(1, n)
    src = rng.integers(0, n, size=num_edges)
    dst = rng.integers(0, n, size=num_edges)
    g = Graph(n, src, dst, node_features=np.zeros((n, 2)))
    start = int(rng.integers(n))
    smaller = set(bfs_neighborhood(g, np.array([start]), hops,
                                   max_nodes=10_000))
    larger = set(bfs_neighborhood(g, np.array([start]), hops + 1,
                                  max_nodes=10_000))
    assert start in smaller
    assert smaller <= larger


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=25),
    seed=st.integers(min_value=0, max_value=999),
)
def test_property_induced_subgraph_edges_closed(n, seed):
    """Every edge of an induced subgraph has both endpoints in the node set."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=2 * n)
    dst = rng.integers(0, n, size=2 * n)
    g = Graph(n, src, dst, node_features=np.zeros((n, 2)))
    chosen = np.unique(rng.integers(0, n, size=n // 2 + 1))
    sub = induced_subgraph(g, chosen, centers=chosen[:1])
    assert np.all(sub.src < sub.num_nodes)
    assert np.all(sub.dst < sub.num_nodes)
    # Round-trip: local edges map back to original node pairs in the set.
    original = set(chosen.tolist())
    assert set(sub.nodes[sub.src]) <= original
    assert set(sub.nodes[sub.dst]) <= original
