"""Sharded graph execution: partitioner invariants, bit-identity, serving.

Pins the contracts of :mod:`repro.shard` and its serving integration:

* partitioner — every directed edge on exactly one shard, global↔local id
  maps are bijections, the shard union reconstructs the original graph;
* store — the CSR-compatible query surface (``neighbors`` /
  ``gather_neighbors`` / ``degree``) answers exactly like the monolithic
  adjacency, for any K and either strategy;
* sampling — BFS and random-walk (and their legacy references) over the
  sharded view are bit-identical to the monolithic graph (same RNG state),
  across ≥20 random graphs × seeds × K ∈ {1, 2, 4};
* serving — ``PromptServer(num_shards=...)`` returns the
  same predictions as the monolithic server (confidences equal up to the
  encoder's batch-shape float wobble) and surfaces per-shard counters.
"""

import numpy as np
import pytest

from repro.core import GraphPrompterConfig, GraphPrompterModel, sample_episode
from repro.core.inference import GraphPrompterPipeline
from repro.datasets import Dataset, EDGE_TASK
from repro.datasets.synthetic import (
    synthetic_citation_graph,
    synthetic_knowledge_graph,
)
from repro.graph import EdgeInput
from repro.graph.delta import GraphUpdate
from repro.graph.sampling import (
    bfs_neighborhood,
    random_walk_neighborhood,
    sample_data_graph,
)
from repro.serving import PromptServer
from repro.serving.router import ShardRouter
from repro.shard import (
    PARTITION_STRATEGIES,
    ShardedGraphStore,
    partition_graph,
    partition_nodes,
)
from reference_paths import bfs_legacy, random_walk_legacy

SHARD_COUNTS = (1, 2, 4)


def random_graphs(count: int, base_seed: int = 0):
    """Mixed KG / citation graphs spanning degree regimes."""
    graphs = []
    for i in range(count):
        if i % 2 == 0:
            graphs.append(synthetic_knowledge_graph(
                60 + 17 * i, 4 + i % 3, 300 + 41 * i, feature_dim=6,
                rng=base_seed + i))
        else:
            graphs.append(synthetic_citation_graph(
                50 + 13 * i, 5, feature_dim=6, avg_degree=6.0,
                rng=base_seed + i))
    return graphs


# ----------------------------------------------------------------------
# Partitioner invariants
# ----------------------------------------------------------------------
class TestPartitionerInvariants:

    def test_every_edge_assigned_exactly_once(self):
        for graph in random_graphs(10):
            for K in SHARD_COUNTS:
                for strategy in PARTITION_STRATEGIES:
                    plan = partition_graph(graph, K, strategy)
                    assigned = np.concatenate(
                        [shard.edge_ids for shard in plan.shards])
                    assert np.array_equal(
                        np.sort(assigned), np.arange(graph.num_edges))

    def test_id_maps_are_bijections(self):
        for graph in random_graphs(6):
            for K in SHARD_COUNTS:
                plan = partition_graph(graph, K, "greedy")
                # Owned node sets partition V.
                owned_all = np.concatenate(
                    [shard.nodes for shard in plan.shards])
                assert np.array_equal(np.sort(owned_all),
                                      np.arange(graph.num_nodes))
                for shard in plan.shards:
                    # local -> global -> local roundtrip on owned nodes.
                    assert np.array_equal(
                        shard.local_nodes[plan.local_id[shard.nodes]],
                        shard.nodes)
                    assert np.array_equal(
                        plan.local_id[shard.nodes],
                        np.arange(shard.num_owned))
                    # Ghosts are foreign and never duplicated.
                    ghosts = shard.local_nodes[shard.num_owned:]
                    assert np.unique(ghosts).size == ghosts.size
                    assert not np.isin(ghosts, shard.nodes).any()
                    assert (plan.owner[ghosts] != shard.shard_id).all()

    def test_shard_union_reconstructs_graph(self):
        for graph in random_graphs(6):
            for strategy in PARTITION_STRATEGIES:
                plan = partition_graph(graph, 3, strategy)
                src_parts, dst_parts, eid_parts = [], [], []
                for shard in plan.shards:
                    lens = np.diff(shard.d_indptr)
                    src_parts.append(np.repeat(shard.nodes, lens))
                    dst_parts.append(shard.d_indices)
                    eid_parts.append(shard.d_edge_ids)
                eids = np.concatenate(eid_parts)
                order = np.argsort(eids)
                assert np.array_equal(eids[order],
                                      np.arange(graph.num_edges))
                assert np.array_equal(
                    np.concatenate(src_parts)[order], graph.src)
                assert np.array_equal(
                    np.concatenate(dst_parts)[order], graph.dst)

    def test_greedy_balances_better_than_hash_on_skew(self):
        graph = synthetic_citation_graph(400, 5, feature_dim=4,
                                         avg_degree=8.0, rng=3)

        def spread(strategy):
            owner = partition_nodes(graph, 4, strategy)
            degrees = np.asarray(graph.degree())
            loads = np.bincount(owner, weights=degrees, minlength=4)
            return loads.max() - loads.min()

        assert spread("greedy") <= spread("hash")

    def test_partition_validation(self):
        graph = synthetic_knowledge_graph(20, 2, 60, feature_dim=4, rng=0)
        with pytest.raises(ValueError):
            partition_nodes(graph, 0)
        with pytest.raises(ValueError):
            partition_nodes(graph, 2, "metis")


# ----------------------------------------------------------------------
# Store query surface
# ----------------------------------------------------------------------
class TestShardedStoreSurface:

    def test_neighbors_and_degree_match_monolithic(self):
        for graph in random_graphs(4, base_seed=20):
            adj = graph.undirected_adjacency
            for K in SHARD_COUNTS:
                store = ShardedGraphStore.from_graph(graph, K, "hash")
                for node in range(graph.num_nodes):
                    assert np.array_equal(store.neighbors(node),
                                          adj.neighbors(node))
                assert np.array_equal(store.degree(), adj.degree())
                assert store.degree(3) == adj.degree(3)

    def test_gather_neighbors_matches_monolithic(self):
        rng = np.random.default_rng(5)
        for graph in random_graphs(4, base_seed=30):
            adj = graph.undirected_adjacency
            store = ShardedGraphStore.from_graph(graph, 4, "greedy")
            for size in (1, 7, 40):
                frontier = rng.integers(0, graph.num_nodes, size=size)
                assert np.array_equal(store.gather_neighbors(frontier),
                                      adj.gather_neighbors(frontier))
            assert store.gather_neighbors(
                np.empty(0, dtype=np.int64)).size == 0

    def test_directed_rows_and_features_match(self):
        graph = synthetic_knowledge_graph(90, 4, 500, feature_dim=8, rng=7)
        store = ShardedGraphStore.from_graph(graph, 3, "greedy")
        view = store.view()
        adj = graph.adjacency
        for node in range(graph.num_nodes):
            dsts, eids = view.adjacency.neighbor_edges(node)
            ref_dsts, ref_eids = adj.neighbor_edges(node)
            assert np.array_equal(dsts, ref_dsts)
            assert np.array_equal(eids, ref_eids)
        nodes = np.array([0, 5, 17, 2, 88])
        assert np.array_equal(view.node_features[nodes],
                              graph.node_features[nodes])
        assert view.num_nodes == graph.num_nodes
        assert view.num_edges == graph.num_edges
        assert view.feature_dim == graph.feature_dim

    def test_halo_counting(self):
        """Pins the counter semantics: a halo fetch is a row actually
        pulled from a remote shard — cache hits are local and free."""
        graph = synthetic_knowledge_graph(80, 3, 400, feature_dim=4, rng=1)
        store = ShardedGraphStore.from_graph(graph, 2, "hash")
        store.cache_enabled = False
        # No home shard set: nothing counts as halo.
        store.gather_neighbors(np.arange(graph.num_nodes))
        assert store.halo_fetches == 0
        store.home_shard = 0
        remote = int((store.owner != 0).sum())
        # Cache disabled: every remote row counts on every call.
        store.gather_neighbors(np.arange(graph.num_nodes))
        assert store.halo_fetches == remote
        store.gather_neighbors(np.arange(graph.num_nodes))
        assert store.halo_fetches == 2 * remote
        store.reset_counters()
        assert store.halo_fetches == 0
        # Cache enabled: the first expansion fetches (and counts) each
        # remote row once; repeats are cache hits — no new fetches.
        store.cache_enabled = True
        store.gather_neighbors(np.arange(graph.num_nodes))
        assert store.halo_fetches == remote
        store.gather_neighbors(np.arange(graph.num_nodes))
        assert store.halo_fetches == remote
        stats = store.cache_stats()
        assert stats["misses"] == graph.num_nodes
        assert stats["hits"] == graph.num_nodes
        assert stats["cached_rows"] == graph.num_nodes

    def test_degree_counts_halo_fetches(self):
        """Regression: remote degree lookups used to be invisible in the
        halo ledger (neither single-node nor full-vector form counted)."""
        graph = synthetic_knowledge_graph(60, 3, 300, feature_dim=4, rng=3)
        store = ShardedGraphStore.from_graph(graph, 2, "hash")
        store.cache_enabled = False
        store.home_shard = 0
        local = int(np.flatnonzero(store.owner == 0)[0])
        remote = int(np.flatnonzero(store.owner != 0)[0])
        store.degree(local)
        assert store.halo_fetches == 0
        store.degree(remote)
        assert store.halo_fetches == 1
        store.reset_counters()
        store.degree()
        assert store.halo_fetches == int((store.owner != 0).sum())
        # A cached row answers degree locally: no fetch, no count.
        store.cache_enabled = True
        store.reset_counters()
        store.neighbors(remote)
        assert store.halo_fetches == 1
        assert store.degree(remote) == graph.degree(remote)
        assert store.halo_fetches == 1

    def test_halo_cache_transparent_and_invalidated(self):
        """Cache-served reads are bit-identical, and any applied update
        flushes the cache (graph-version epoch invalidation)."""
        graph = synthetic_knowledge_graph(70, 3, 350, feature_dim=4, rng=5)
        adj_rows = [graph.undirected_adjacency.neighbors(n).copy()
                    for n in range(graph.num_nodes)]
        store = ShardedGraphStore.from_graph(graph, 3, "greedy")
        frontier = np.arange(graph.num_nodes)
        cold = store.gather_neighbors(frontier).copy()
        warm = store.gather_neighbors(frontier)
        assert np.array_equal(cold, warm)
        for node in range(graph.num_nodes):
            assert np.array_equal(store.neighbors(node), adj_rows[node])
        before = store.cache_stats()
        assert before["cached_rows"] == graph.num_nodes
        applied = graph.apply_updates(GraphUpdate(add_src=[0], add_dst=[1]))
        store.apply_updates(applied)
        stats = store.cache_stats()
        assert stats["cached_rows"] == 0
        assert stats["invalidations"] == before["invalidations"] + 1
        rebuilt = ShardedGraphStore.from_graph(graph.rebuild(), 3, "greedy")
        assert np.array_equal(store.gather_neighbors(frontier),
                              rebuilt.gather_neighbors(frontier))

    def test_prefetch_rows_warms_cache(self):
        """Batched frontier expansion: one prefetch round-trip makes the
        per-session expansions that follow pure cache hits."""
        graph = synthetic_knowledge_graph(80, 3, 400, feature_dim=4, rng=2)
        store = ShardedGraphStore.from_graph(graph, 3, "greedy")
        store.home_shard = 0
        seeds = np.array([1, 17, 33, 17, 64], dtype=np.int64)
        fetched = store.prefetch_rows(seeds)
        assert fetched == np.unique(seeds).size
        after_prefetch = store.halo_fetches
        stats = store.cache_stats()
        assert stats["batched_fetches"] == 1
        assert stats["prefetched_rows"] == np.unique(seeds).size
        # Per-session reads of the prefetched rows are local now.
        for seed in seeds:
            assert np.array_equal(
                store.neighbors(int(seed)),
                graph.undirected_adjacency.neighbors(int(seed)))
        assert store.halo_fetches == after_prefetch
        # Re-prefetching warm rows is a no-op.
        assert store.prefetch_rows(seeds) == 0
        assert store.cache_stats()["batched_fetches"] == 1
        store.home_shard = None

    def test_assign_owners_deterministic_and_balanced(self):
        """Greedy owner assignment: heap path must match the argmin
        semantics (lowest load, ties to lowest shard id) exactly."""
        graph = synthetic_knowledge_graph(50, 3, 250, feature_dim=4, rng=9)
        store = ShardedGraphStore.from_graph(graph, 4, "greedy")
        new_nodes = np.arange(50, 50 + 37, dtype=np.int64)
        owners = store._assign_owners(new_nodes)
        assert np.array_equal(owners, store._assign_owners(new_nodes))
        # Reference: the original O(n*K) argmin greedy loop.
        loads = np.array([sh.num_owned for sh in store.shards],
                         dtype=np.int64)
        expected = np.empty(new_nodes.size, dtype=np.int64)
        for i in range(new_nodes.size):
            k = int(np.argmin(loads))
            expected[i] = k
            loads[k] += 1
        assert np.array_equal(owners, expected)
        # Greedy fills the emptiest shard first, so spread never widens.
        initial = np.array([sh.num_owned for sh in store.shards])
        assert loads.max() - loads.min() <= max(
            int(initial.max() - initial.min()), 1)


# ----------------------------------------------------------------------
# Sampling bit-identity
# ----------------------------------------------------------------------
class TestShardedSamplingBitIdentity:

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_bfs_and_walk_match_monolithic_engines(self, strategy):
        graphs = random_graphs(10, base_seed=40)
        assert len(graphs) * len(SHARD_COUNTS) >= 20
        for gi, graph in enumerate(graphs):
            views = {K: ShardedGraphStore.from_graph(graph, K,
                                                     strategy).view()
                     for K in SHARD_COUNTS}
            for seed in range(3):
                seeds = np.array([(7 * seed + gi) % graph.num_nodes])
                for samplers, hops, cap in (
                        ((bfs_neighborhood, bfs_legacy), 2, 24),
                        ((random_walk_neighborhood, random_walk_legacy),
                         3, 24)):
                    for sampler in samplers:
                        reference = sampler(
                            graph, seeds, hops, cap,
                            np.random.default_rng(seed))
                        for K, view in views.items():
                            out = sampler(
                                view, seeds, hops, cap,
                                np.random.default_rng(seed))
                            assert np.array_equal(out, reference), (
                                f"graph {gi} K={K} {strategy} "
                                f"{sampler.__name__} seed {seed}")

    def test_sampled_subgraph_identical(self):
        graph = synthetic_knowledge_graph(100, 5, 600, feature_dim=8, rng=2)
        view = ShardedGraphStore.from_graph(graph, 4, "greedy").view()
        for seed in range(5):
            datapoint = EdgeInput(seed * 3, seed * 7 + 1, relation=1)
            expected = sample_data_graph(
                graph, datapoint, num_hops=2, max_nodes=16,
                rng=np.random.default_rng(seed))
            actual = sample_data_graph(
                view, datapoint, num_hops=2, max_nodes=16,
                rng=np.random.default_rng(seed))
            for field in ("nodes", "src", "dst", "rel", "node_features",
                          "centers"):
                assert np.array_equal(getattr(expected, field),
                                      getattr(actual, field)), field
            if expected.rel_features is None:
                assert actual.rel_features is None
            else:
                assert np.array_equal(expected.rel_features,
                                      actual.rel_features)


# ----------------------------------------------------------------------
# Scratch reentrancy
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
def _serving_fixture():
    config = GraphPrompterConfig(hidden_dim=12, max_subgraph_nodes=10)
    graph = synthetic_knowledge_graph(150, 5, 900, feature_dim=10, rng=0)
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    episodes = [sample_episode(dataset, num_ways=3, num_queries=4,
                               rng=50 + i) for i in range(3)]
    return model, dataset, episodes


def _run_workload(model, dataset, episodes, **server_kwargs):
    server = PromptServer(model, dataset, max_batch_size=6, rng=0,
                          **server_kwargs)
    for i, episode in enumerate(episodes):
        server.open_session(f"s{i}", episode)
    for q in range(episodes[0].num_queries):
        for i, episode in enumerate(episodes):
            server.submit(f"s{i}", episode.queries[q])
    results = server.drain()
    return results, server.stats


class TestShardRouter:

    def test_encode_points_matches_pipeline(self):
        model, dataset, episodes = _serving_fixture()
        pipeline = GraphPrompterPipeline(model, dataset, rng=0)
        pipeline.generator.deterministic = True
        datapoints = list(episodes[0].candidates) + list(episodes[0].queries)
        expected_emb, expected_imp = pipeline.encode_points(datapoints)
        for K in (2, 4):
            router = ShardRouter(model, dataset.graph, num_shards=K)
            emb, importance = router.encode_points(datapoints)
            # Same subgraphs, same weights; only gemm batch shapes differ,
            # so agreement is to float wobble, not necessarily bitwise.
            np.testing.assert_allclose(emb, expected_emb,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(importance, expected_imp,
                                       rtol=0, atol=1e-12)
            ledgers = router.stats()
            assert sum(c.requests for c in ledgers) == len(datapoints)
            assert all(c.worker_busy_s >= 0.0 for c in ledgers)


class TestShardedPromptServer:

    def test_sharded_results_match_monolithic(self):
        model, dataset, episodes = _serving_fixture()
        reference, ref_stats = _run_workload(model, dataset, episodes)
        assert ref_stats.shards == ()
        for kwargs in (
                dict(num_shards=2),
                dict(num_shards=4),
                dict(num_shards=2, shard_strategy="hash")):
            results, stats = _run_workload(model, dataset, episodes,
                                           **kwargs)
            assert ([(r.session_id, r.prediction) for r in results]
                    == [(r.session_id, r.prediction) for r in reference])
            np.testing.assert_allclose(
                [r.confidence for r in results],
                [r.confidence for r in reference], rtol=0, atol=1e-9)
            assert len(stats.shards) == kwargs["num_shards"]
            total = sum(c.requests for c in stats.shards)
            pool_points = sum(len(e.candidates) for e in episodes)
            query_points = sum(e.num_queries for e in episodes)
            assert total == pool_points + query_points
            assert sum(c.worker_busy_s for c in stats.shards) > 0.0
            assert stats.halo_fetches >= 0

    def test_config_defaults_feed_server(self):
        model, dataset, episodes = _serving_fixture()
        sharded_config = model.config.ablate(num_shards=2)
        sharded_model = GraphPrompterModel(dataset.graph.feature_dim,
                                           dataset.graph.num_relations,
                                           sharded_config)
        sharded_model.load_state_dict(model.state_dict())
        server = PromptServer(sharded_model, dataset, rng=0)
        assert server.router is not None
        assert server.router.num_shards == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GraphPrompterConfig(num_shards=0).validate()
        with pytest.raises(ValueError):
            GraphPrompterConfig(shard_strategy="metis").validate()

    @pytest.mark.parametrize("kwarg, value", [("num_workers", 2),
                                              ("worker_backend", "process")])
    def test_server_rejects_retired_worker_kwargs(self, kwarg, value):
        """Sharded encoding runs in-process on the server's own model;
        the worker-pool knobs fail loudly instead of being ignored."""
        model, dataset, _ = _serving_fixture()
        with pytest.raises(TypeError, match=kwarg):
            PromptServer(model, dataset, num_shards=2, **{kwarg: value})

    @pytest.mark.parametrize("num_shards", [0, -3])
    def test_server_rejects_non_positive_shard_count(self, num_shards):
        model, dataset, _ = _serving_fixture()
        with pytest.raises(ValueError, match="num_shards"):
            PromptServer(model, dataset, num_shards=num_shards)
