"""Property-based differential suite for the live-graph mutation engine.

Random mutation scripts — interleaved ``add_edges`` / ``remove_edges`` /
``add_nodes`` / ``compact`` batches — run over a spread of synthetic
graphs and seeds.  After **every** step the mutated graph's reads must be
bit-identical to a from-scratch rebuild over the live edge list:

* undirected rows (``neighbors`` / ``gather_neighbors`` / ``degree``),
* directed rows + relation payload (``neighbor_edges`` and the batched
  ``gather_neighbor_edges`` → ``rel``),
* both samplers and their legacy references with matched RNG streams,
* subgraph induction (``sample_data_graph`` content equality, and the
  batched inducer against the per-row loop oracle on the same surface),
* the K-shard store (K ∈ {1, 2, 4}) fed the same updates through
  ``ShardedGraphStore.apply_updates``.

Batched induction must also advance the overlay's read counters and
promotions, and the sharded store's halo-fetch count, exactly as the
per-row loop does.

Plus regression tests for the ``visited_scratch`` free-list across
``add_nodes`` / ``compact`` (masks sized to the old graph must be retired,
never handed to a sampler).
"""

import numpy as np
import pytest

from repro.graph import CSRAdjacency, DeltaAdjacency, Graph, GraphUpdate
from repro.graph.datapoints import EdgeInput, NodeInput
from repro.graph.sampling import (
    bfs_neighborhood,
    random_walk_neighborhood,
    sample_data_graph,
)
from repro.graph.subgraph import induced_subgraph
from repro.shard import ShardedGraphStore
from reference_paths import bfs_legacy, induced_subgraph_loop, random_walk_legacy

#: Each sampler followed by its legacy reference; every call takes its own
#: draw from the trial RNG, in this order.
SAMPLERS = (bfs_neighborhood, bfs_legacy,
            random_walk_neighborhood, random_walk_legacy)
SHARD_KS = (1, 2, 4)


# ----------------------------------------------------------------------
# Script machinery
# ----------------------------------------------------------------------
def make_base_graph(kind: str, rng: np.random.Generator) -> Graph:
    """Varied corners: multigraphs, self-loops, isolated nodes, tiny rows."""
    if kind == "dense":
        n, m = int(rng.integers(30, 60)), int(rng.integers(200, 350))
    elif kind == "sparse":
        n, m = int(rng.integers(60, 120)), int(rng.integers(60, 140))
    else:  # "tiny"
        n, m = int(rng.integers(6, 14)), int(rng.integers(4, 20))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    # Force a few self-loops and parallel edges into every graph.
    if m >= 4:
        src[0], dst[0] = 1, 1
        src[1], dst[1] = src[2], dst[2]
    num_rel = int(rng.integers(1, 5))
    return Graph(n, src, dst, rel=rng.integers(0, num_rel, size=m),
                 num_relations=num_rel,
                 node_features=rng.normal(size=(n, 3)),
                 node_labels=rng.integers(0, 3, size=n),
                 name=f"prop-{kind}")


def random_step(graph: Graph, rng: np.random.Generator) -> str:
    """Apply one random mutation batch; returns a label for diagnostics."""
    op = rng.choice(["add", "remove", "add_nodes", "mixed", "compact"])
    _, _, _, live = graph.live_edges()
    if op == "compact":
        graph.compact()
        return op
    if op == "add" or (op == "remove" and live.size == 0):
        k = int(rng.integers(1, 12))
        graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                        rng.integers(0, graph.num_nodes, size=k),
                        rng.integers(0, graph.num_relations, size=k))
        return "add"
    if op == "remove":
        k = int(rng.integers(1, min(8, live.size) + 1))
        graph.remove_edges(rng.choice(live, size=k, replace=False))
        return op
    if op == "add_nodes":
        count = int(rng.integers(1, 4))
        new = graph.add_nodes(rng.normal(size=(count, graph.feature_dim)),
                              rng.integers(0, 3, size=count))
        # Wire the new nodes in so they are reachable.
        graph.add_edges(new, rng.integers(0, graph.num_nodes, size=new.size))
        return op
    # "mixed": one atomic batch through apply_updates.
    k = int(rng.integers(1, 8))
    remove = (rng.choice(live, size=min(3, live.size), replace=False)
              if live.size else ())
    graph.apply_updates(GraphUpdate(
        add_src=rng.integers(0, graph.num_nodes, size=k),
        add_dst=rng.integers(0, graph.num_nodes, size=k),
        add_rel=rng.integers(0, graph.num_relations, size=k),
        remove_edges=remove,
        add_node_features=rng.normal(size=(1, graph.feature_dim)),
        add_node_labels=[0]))
    return op


def assert_directed_gather_equal(graph, ref: Graph, frontier: np.ndarray,
                                 context) -> None:
    """``gather_neighbor_edges`` == the rebuild's, and == the surface's own
    per-row ``neighbor_edges`` (exact edge ids), frontier order."""
    adj = graph.adjacency
    dsts, eids, lens = adj.gather_neighbor_edges(frontier)
    ref_dsts, ref_eids, ref_lens = ref.adjacency.gather_neighbor_edges(
        frontier)
    assert np.array_equal(lens, ref_lens), (context, "gather lens")
    assert np.array_equal(dsts, ref_dsts), (context, "gather dsts")
    assert np.array_equal(graph.rel[eids],
                          ref.rel[ref_eids]), (context, "gather rel")
    rows = [adj.neighbor_edges(int(u)) for u in frontier]
    assert lens.tolist() == [d.size for d, _ in rows], context
    assert np.array_equal(eids, np.concatenate(
        [e for _, e in rows] + [eids[:0]])), (context, "gather eids")


def assert_reads_equal(graph: Graph, ref: Graph, context: str) -> None:
    """Monolithic overlay reads == rebuild reads, all nodes."""
    assert graph.num_nodes == ref.num_nodes
    assert graph.num_live_edges == ref.num_edges
    assert np.array_equal(graph.degree(), ref.degree()), context
    # Before the per-row pass: freshly written rows are still unpromoted,
    # so this frontier mixes clean, promoted and assembled rows.
    gather_rng = np.random.default_rng(1)
    assert_directed_gather_equal(
        graph, ref, gather_rng.integers(0, graph.num_nodes, size=13),
        (context, "cold"))
    for node in range(graph.num_nodes):
        assert np.array_equal(graph.neighbors(node),
                              ref.neighbors(node)), (context, node)
        dsts, eids = graph.adjacency.neighbor_edges(node)
        ref_dsts, ref_eids = ref.adjacency.neighbor_edges(node)
        assert np.array_equal(dsts, ref_dsts), (context, node, "directed")
        assert np.array_equal(graph.rel[eids],
                              ref.rel[ref_eids]), (context, node, "rel")
    rng = np.random.default_rng(0)
    frontier = rng.integers(0, graph.num_nodes, size=13)
    assert np.array_equal(
        graph.undirected_adjacency.gather_neighbors(frontier),
        ref.undirected_adjacency.gather_neighbors(frontier)), context
    assert_directed_gather_equal(
        graph, ref, gather_rng.integers(0, graph.num_nodes, size=13),
        (context, "warm"))


def assert_sampling_equal(graph, ref, rng: np.random.Generator,
                          context: str) -> None:
    """Both samplers and their references, matched draws, on any graph-like."""
    seeds = rng.integers(0, ref.num_nodes, size=2)
    for sampler in SAMPLERS:
        draw = int(rng.integers(2**31))
        got = sampler(graph, seeds, 2, 16, np.random.default_rng(draw))
        want = sampler(ref, seeds, 2, 16, np.random.default_rng(draw))
        assert np.array_equal(got, want), (context, sampler.__name__)


def assert_induction_equal(graph, ref, rng: np.random.Generator,
                           context: str) -> None:
    """Induced data graphs carry identical content (ids may renumber)."""
    u = int(rng.integers(0, ref.num_nodes))
    v = int(rng.integers(0, ref.num_nodes))
    draw = int(rng.integers(2**31))
    for datapoint in (NodeInput(u), EdgeInput(u, v, relation=0)):
        got = sample_data_graph(graph, datapoint, num_hops=2, max_nodes=12,
                                rng=np.random.default_rng(draw))
        want = sample_data_graph(ref, datapoint, num_hops=2, max_nodes=12,
                                 rng=np.random.default_rng(draw))
        for field in ("nodes", "src", "dst", "rel", "node_features",
                      "centers"):
            assert np.array_equal(
                getattr(got, field),
                getattr(want, field)), (context,
                                        type(datapoint).__name__, field)
        # Both sides above run the batched inducer; pin it to the per-row
        # oracle on the same surface too.
        oracle = induced_subgraph_loop(graph, got.nodes, datapoint.nodes,
                                       center_relation=datapoint.relation)
        for field in ("nodes", "src", "dst", "rel", "node_features",
                      "centers"):
            x, y = getattr(got, field), getattr(oracle, field)
            assert x.dtype == y.dtype and x.shape == y.shape, (
                context, "oracle", field)
            assert x.tobytes() == y.tobytes(), (context, "oracle", field)


# ----------------------------------------------------------------------
# The differential property: 10 graph kinds/configs × 3 seeds = 30 trials
# ----------------------------------------------------------------------
TRIALS = [(kind, variant, seed)
          for kind in ("dense", "sparse", "tiny")
          for variant in range(3 if kind == "tiny" else 4)
          for seed in range(3)][:36]


@pytest.mark.parametrize("kind,variant,seed", TRIALS)
def test_mutation_script_matches_rebuild(kind, variant, seed):
    rng = np.random.default_rng([kind == "dense", variant, seed])
    graph = make_base_graph(kind, rng)
    graph.compact_threshold = 0.4 if variant % 2 else None  # auto vs manual
    graph.undirected_adjacency  # some trials promote built CSRs …
    if variant % 2:
        graph.adjacency  # … others build overlays lazily post-mutation
    for step in range(6):
        label = random_step(graph, rng)
        ref = graph.rebuild()
        context = f"{kind}/{variant}/{seed} step {step} ({label})"
        assert_reads_equal(graph, ref, context)
        assert_sampling_equal(graph, ref, rng, context)
        assert_induction_equal(graph, ref, rng, context)


@pytest.mark.parametrize("strategy", ["greedy", "hash"])
@pytest.mark.parametrize("seed", range(3))
def test_sharded_mutation_matches_rebuild(strategy, seed):
    rng = np.random.default_rng([7, seed])
    graph = make_base_graph("dense", rng)
    stores = {k: ShardedGraphStore.from_graph(graph, k, strategy)
              for k in SHARD_KS}
    for step in range(5):
        _, _, _, live = graph.live_edges()
        update = GraphUpdate(
            add_src=rng.integers(0, graph.num_nodes, size=6),
            add_dst=rng.integers(0, graph.num_nodes, size=6),
            add_rel=rng.integers(0, graph.num_relations, size=6),
            remove_edges=rng.choice(live, size=min(4, live.size),
                                    replace=False),
            add_node_features=(rng.normal(size=(1, graph.feature_dim))
                               if step == 2 else None),
            add_node_labels=[1] if step == 2 else None)
        applied = graph.apply_updates(update)
        for k, store in stores.items():
            store.apply_updates(applied)
        if step == 3:
            graph.compact()  # compaction changes no reads: stores unaware
        ref = graph.rebuild()
        for k, store in stores.items():
            context = f"{strategy}/{seed} step {step} K={k}"
            view = store.view()
            assert store.num_nodes == ref.num_nodes
            assert np.array_equal(store.degree(), ref.degree()), context
            for node in range(ref.num_nodes):
                assert np.array_equal(store.neighbors(node),
                                      ref.neighbors(node)), (context, node)
                dsts, eids = store.neighbor_edges(node)
                ref_dsts, ref_eids = ref.adjacency.neighbor_edges(node)
                assert np.array_equal(dsts, ref_dsts), (context, node)
                assert np.array_equal(store.rel[eids],
                                      ref.rel[ref_eids]), (context, node)
            frontier = rng.integers(0, ref.num_nodes, size=11)
            assert np.array_equal(
                store.gather_neighbors(frontier),
                ref.undirected_adjacency.gather_neighbors(frontier)), context
            assert_directed_gather_equal(view, ref, frontier, context)
            assert np.array_equal(store.gather_node_features(frontier),
                                  ref.node_features[frontier]), context
            assert_sampling_equal(view, ref, np.random.default_rng(
                [seed, step, k]), context)
            assert_induction_equal(view, ref, np.random.default_rng(
                [seed, step, k, 1]), context)


def _mutated_twins(seed: int, promote_after: int) -> list[Graph]:
    """Two identical mutated graphs (same script, same overlay state)."""
    twins = []
    for _ in range(2):
        rng = np.random.default_rng([31, seed])
        graph = make_base_graph("dense", rng)
        graph.tier_promote_after = promote_after
        graph.adjacency  # build pre-write: the overlay wraps it in place
        k = max(graph.num_edges // 8, 8)
        graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                        rng.integers(0, graph.num_nodes, size=k),
                        rng.integers(0, graph.num_relations, size=k))
        _, _, _, live = graph.live_edges()
        graph.remove_edges(rng.choice(live, size=6, replace=False))
        twins.append(graph)
    return twins


@pytest.mark.parametrize("promote_after", [1, 2, 3])
@pytest.mark.parametrize("seed", range(2))
def test_induction_advances_overlay_counters_like_the_loop(seed,
                                                          promote_after):
    """Batched induction reads each row once, like the per-row loop: read
    counters, promotions and side-store usage stay in lockstep."""
    fast, slow = _mutated_twins(seed, promote_after)
    rng = np.random.default_rng([32, seed])
    for step in range(6):
        if step == 3:  # a write demotes rows mid-stream
            for graph in (fast, slow):
                graph.add_edges([0, 1], [2, 3])
        node_set = rng.choice(fast.num_nodes, size=14, replace=False)
        centers = node_set[:2]
        got = induced_subgraph(fast, node_set, centers)
        want = induced_subgraph_loop(slow, node_set, centers)
        for field in ("nodes", "src", "dst", "rel", "centers"):
            assert np.array_equal(getattr(got, field),
                                  getattr(want, field)), (step, field)
        assert (fast.adjacency.overlay_stats()
                == slow.adjacency.overlay_stats()), step
        assert np.array_equal(fast.adjacency._reads,
                              slow.adjacency._reads), step
    assert fast.adjacency.overlay_stats()["promotions"] > 0


@pytest.mark.parametrize("num_shards", [2, 4])
def test_sharded_induction_counts_halo_like_the_loop(num_shards):
    """One grouped gather per owner shard still counts one halo fetch per
    remote row, as the per-row fetches did."""
    rng = np.random.default_rng(33)
    graph = make_base_graph("dense", rng)
    store = ShardedGraphStore.from_graph(graph, num_shards, "greedy")
    view = store.view()
    total = 0
    for home in range(num_shards):
        store.home_shard = home
        node_set = rng.choice(graph.num_nodes, size=12, replace=False)
        store.reset_counters()
        got = induced_subgraph(view, node_set, node_set[:1])
        fetched = store.halo_fetches
        store.reset_counters()
        want = induced_subgraph_loop(view, node_set, node_set[:1])
        assert fetched == store.halo_fetches, home
        assert np.array_equal(got.src, want.src)
        assert np.array_equal(got.rel, want.rel)
        total += fetched
    assert total > 0


def test_sharded_update_rebuilds_only_touched_shards():
    rng = np.random.default_rng(11)
    graph = make_base_graph("dense", rng)
    store = ShardedGraphStore.from_graph(graph, 4, "greedy")
    before = list(store.shards)
    # Touch a single node pair owned by (at most) two shards.
    applied = graph.apply_updates(GraphUpdate(add_src=[0], add_dst=[1]))
    rebuilt = set(store.apply_updates(applied).tolist())
    expected = {int(store.owner[0]), int(store.owner[1])}
    assert rebuilt == expected
    for k in range(4):
        same = store.shards[k] is before[k]
        assert same == (k not in rebuilt)
    # Replaying the same receipt is a no-op.
    assert store.apply_updates(applied).size == 0


def test_edge_ids_stable_across_removal_and_compact():
    rng = np.random.default_rng(3)
    graph = make_base_graph("dense", rng)
    keep = 5  # an edge id we hold across mutations
    u, r, v = graph.edge_endpoints(keep)
    _, _, _, live = graph.live_edges()
    doomed = [e for e in live.tolist() if e != keep][:10]
    graph.remove_edges(doomed)
    graph.compact()
    assert graph.edge_endpoints(keep) == (u, r, v)
    dsts, eids = graph.adjacency.neighbor_edges(u)
    assert keep in eids.tolist()
    assert int(graph.rel[keep]) == r
    with pytest.raises(ValueError):
        graph.remove_edges([doomed[0]])  # already removed


# ----------------------------------------------------------------------
# visited_scratch free-list across grow/compact (the reentrancy gap)
# ----------------------------------------------------------------------
def test_scratch_checkout_across_add_nodes_and_compact():
    rng = np.random.default_rng(0)
    graph = make_base_graph("dense", rng)
    adj = graph.undirected_adjacency  # plain CSR; promoted on first write
    graph.add_edges([0], [1])
    adj = graph.undirected_adjacency
    assert isinstance(adj, DeltaAdjacency)
    old_size = graph.num_nodes
    borrowed = adj.visited_scratch()
    assert borrowed.size == old_size

    new = graph.add_nodes(rng.normal(size=(3, graph.feature_dim)),
                          [0, 1, 2])
    graph.add_edges(new, [0, 1, 2])
    assert graph.undirected_adjacency is adj  # grown in place, not rebuilt

    # A second borrower mid-flight gets a mask sized to the *grown* graph.
    fresh = adj.visited_scratch()
    assert fresh.size == graph.num_nodes > old_size
    fresh[new[-1]] = True  # indexing a new node must be in range
    fresh[new[-1]] = False
    adj.release_scratch(fresh)

    # Releasing the stale-sized mask parks it, but checkout retires it
    # instead of handing it back out.
    adj.release_scratch(borrowed)
    again = adj.visited_scratch()
    assert again.size == graph.num_nodes
    adj.release_scratch(again)


def test_sampling_concurrently_across_compact():
    """A sampler holding a scratch across a compact() must stay correct."""
    rng = np.random.default_rng(1)
    graph = make_base_graph("dense", rng)
    graph.add_edges([2], [3])
    adj = graph.undirected_adjacency
    held = adj.visited_scratch()  # simulate an in-flight borrower
    graph.remove_edges([0])
    graph.compact()  # swaps the overlay object behind the property
    new_adj = graph.undirected_adjacency
    assert new_adj is not adj

    # Sampling after the compact is correct and uses the new overlay.
    ref = graph.rebuild()
    result = bfs_neighborhood(graph, np.array([2]), 2, 16)
    assert np.array_equal(result, bfs_neighborhood(ref, np.array([2]), 2, 16))

    # The in-flight borrower releases into the retired overlay — harmless —
    # and new checkouts from the live overlay are all-False and full-size.
    adj.release_scratch(held)
    mask = new_adj.visited_scratch()
    assert mask.size == graph.num_nodes and not mask.any()
    new_adj.release_scratch(mask)


def test_sharded_scratch_retired_after_node_growth():
    rng = np.random.default_rng(2)
    graph = make_base_graph("dense", rng)
    store = ShardedGraphStore.from_graph(graph, 2, "greedy")
    mask = store.visited_scratch()
    store.release_scratch(mask)  # parked at the old size
    applied = graph.apply_updates(GraphUpdate(
        add_node_features=rng.normal(size=(2, graph.feature_dim)),
        add_node_labels=[0, 0],
        add_src=[0], add_dst=[1]))
    store.apply_updates(applied)
    grown = store.visited_scratch()
    assert grown.size == store.num_nodes == graph.num_nodes
    store.release_scratch(grown)


def test_delta_overlay_fraction_and_auto_compact():
    rng = np.random.default_rng(4)
    graph = make_base_graph("dense", rng)
    graph.undirected_adjacency
    graph.compact_threshold = 0.05
    baseline = graph._compactions
    # Enough overlay to cross 5%: auto-compact fires inside the mutator.
    k = max(graph.num_edges // 10, 8)
    graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                    rng.integers(0, graph.num_nodes, size=k))
    assert graph._compactions > baseline
    assert graph.overlay_fraction <= 0.05
    assert_reads_equal(graph, graph.rebuild(), "auto-compact")


def test_gather_fast_path_used_on_clean_frontiers():
    """Dirty-row bookkeeping must not poison untouched regions."""
    rng = np.random.default_rng(5)
    graph = make_base_graph("sparse", rng)
    graph.add_edges([0], [1])  # promote; rows 0/1 dirty
    adj = graph.undirected_adjacency
    clean_nodes = np.array([n for n in range(2, graph.num_nodes)][:9])
    want = (np.concatenate([adj.neighbors(int(n)) for n in clean_nodes])
            if clean_nodes.size else np.empty(0, dtype=np.int64))
    got = adj.gather_neighbors(clean_nodes)
    assert np.array_equal(got, want)
    assert not adj._dirty[clean_nodes].any()


# ----------------------------------------------------------------------
# Tiered compaction (promotion / demotion) and the halo row cache
# ----------------------------------------------------------------------
def test_stale_dirty_row_regression():
    """add edge -> remove the same edge -> the row must regain the base
    fast path (the empty delta entry used to pin it dirty forever)."""
    rng = np.random.default_rng(21)
    graph = make_base_graph("dense", rng)
    adj = graph.undirected_adjacency  # plain CSR, promoted on first write
    u, v = 3, 7
    eid = int(graph.add_edges([u], [v])[0])
    adj = graph.undirected_adjacency
    assert adj._dirty[u] and adj._dirty[v]
    graph.remove_edges([eid])
    # Both endpoint rows are back at their exact base state.
    assert not adj._dirty[u] and not adj._dirty[v]
    assert not graph.adjacency._dirty[u]
    # A frontier over them takes the fused base gather, and degree(None)
    # no longer walks empty delta entries.
    frontier = np.array([u, v], dtype=np.int64)
    assert np.array_equal(adj.gather_neighbors(frontier),
                          adj.base.gather_neighbors(frontier))
    assert all(not lane for lane in adj._delta)
    assert_reads_equal(graph, graph.rebuild(), "stale-dirty-row")


def test_promoted_row_reads_bit_identical():
    """Reads repeated past ``promote_after`` re-materialise the row; the
    promoted copy must read identically on every surface."""
    rng = np.random.default_rng(22)
    graph = make_base_graph("dense", rng)
    graph.adjacency, graph.undirected_adjacency  # build pre-write
    k = max(graph.num_edges // 10, 8)
    graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                    rng.integers(0, graph.num_nodes, size=k),
                    rng.integers(0, graph.num_relations, size=k))
    ref = graph.rebuild()
    # Two read passes promote every dirty row (promote_after defaults 2).
    assert_reads_equal(graph, ref, "pass 1 (counting)")
    assert_reads_equal(graph, ref, "pass 2 (promoting)")
    adj = graph.undirected_adjacency
    stats = adj.overlay_stats()
    assert stats["promotions"] > 0 and stats["promoted_rows"] > 0
    # Third pass reads come from the side store.
    assert_reads_equal(graph, ref, "pass 3 (promoted)")
    assert_sampling_equal(graph, ref, rng, "promoted sampling")
    assert_induction_equal(graph, ref, rng, "promoted induction")
    # A frontier mixing clean and promoted rows takes the fused tiered
    # gather (no per-row fallback) and still matches the rebuild.
    frontier = np.arange(graph.num_nodes, dtype=np.int64)
    assert np.array_equal(adj.gather_neighbors(frontier),
                          ref.undirected_adjacency.gather_neighbors(frontier))


def test_promote_then_remove_demotes():
    """A write to a promoted row drops its side copy; reads stay exact."""
    rng = np.random.default_rng(23)
    graph = make_base_graph("dense", rng)
    adj = graph.undirected_adjacency  # build pre-write, wrapped in place
    u, v = 2, 9
    eids = graph.add_edges([u, u], [v, 5])
    adj = graph.undirected_adjacency
    for _ in range(3):  # promote row u
        adj.neighbors(u)
    assert adj._side_start[u] >= 0
    before = adj.overlay_stats()["demotions"]
    graph.remove_edges([int(eids[0])])
    assert adj._side_start[u] < 0
    assert adj.overlay_stats()["demotions"] > before
    assert_reads_equal(graph, graph.rebuild(), "promote-then-remove")
    # Re-reading re-promotes; still exact.
    for _ in range(3):
        adj.neighbors(u)
    assert adj._side_start[u] >= 0
    assert_reads_equal(graph, graph.rebuild(), "re-promoted")


def test_promote_then_compact():
    """compact() folds everything into a clean base: tier state resets
    and reads keep matching the rebuild."""
    rng = np.random.default_rng(24)
    graph = make_base_graph("dense", rng)
    graph.undirected_adjacency  # build pre-write
    k = max(graph.num_edges // 8, 8)
    graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                    rng.integers(0, graph.num_nodes, size=k))
    ref = graph.rebuild()
    assert_reads_equal(graph, ref, "pre-compact pass 1")
    assert_reads_equal(graph, ref, "pre-compact pass 2")
    assert graph.undirected_adjacency.overlay_stats()["promoted_rows"] > 0
    graph.compact()
    adj = graph.undirected_adjacency
    stats = adj.overlay_stats()
    assert stats["promoted_rows"] == 0 and stats["delta_slots"] == 0
    assert_reads_equal(graph, graph.rebuild(), "post-compact")


def test_tier_disabled_matches_enabled():
    """``tier_enabled=False`` pins the pure delta tier — same reads, no
    promotions — and the knobs survive a compact()."""
    rng = np.random.default_rng(25)
    graph = make_base_graph("dense", rng)
    graph.tier_enabled = False
    graph.tier_promote_after = 5
    for _ in range(4):
        random_step(graph, rng)
        ref = graph.rebuild()
        assert_reads_equal(graph, ref, "tier-disabled")
    for adj in (graph.adjacency, graph.undirected_adjacency):
        if isinstance(adj, DeltaAdjacency):
            assert adj.overlay_stats()["promotions"] == 0
            assert not adj.tier_enabled and adj.promote_after == 5


def test_grown_rows_stay_dirty_and_promotable():
    """Rows past the base node count never regain the base fast path
    (there is no base row to slice) but may still be promoted."""
    rng = np.random.default_rng(26)
    graph = make_base_graph("tiny", rng)
    graph.undirected_adjacency  # build pre-write
    graph.add_edges([0], [1])
    new = graph.add_nodes(rng.normal(size=(2, graph.feature_dim)), [0, 1])
    eids = graph.add_edges(new, [0, 1])
    adj = graph.undirected_adjacency
    grown = int(new[0])
    graph.remove_edges([int(eids[0])])  # grown row back to zero slots …
    assert adj._dirty[grown]            # … but must stay dirty
    assert adj.neighbors(grown).size == 0
    for _ in range(3):
        adj.neighbors(int(new[1]))
    assert adj._side_start[int(new[1])] >= 0
    assert_reads_equal(graph, graph.rebuild(), "grown rows")


@pytest.mark.parametrize("num_shards", [2, 4])
def test_halo_cache_cycle_matches_rebuild(num_shards):
    """Warm-read / mutate / invalidate cycles: cache-served reads stay
    bit-identical to a from-scratch rebuild at every step."""
    rng = np.random.default_rng(27)
    graph = make_base_graph("dense", rng)
    store = ShardedGraphStore.from_graph(graph, num_shards, "greedy")
    for cycle in range(3):
        frontier = np.arange(graph.num_nodes, dtype=np.int64)
        store.gather_neighbors(frontier)   # cold: fills the cache
        warm = store.gather_neighbors(frontier)
        ref = graph.rebuild()
        assert np.array_equal(
            warm, ref.undirected_adjacency.gather_neighbors(frontier))
        stats = store.cache_stats()
        assert stats["hits"] >= graph.num_nodes
        assert stats["invalidations"] == cycle
        assert_sampling_equal(store.view(), ref,
                              np.random.default_rng([cycle, num_shards]),
                              f"cycle {cycle}")
        _, _, _, live = graph.live_edges()
        applied = graph.apply_updates(GraphUpdate(
            add_src=rng.integers(0, graph.num_nodes, size=4),
            add_dst=rng.integers(0, graph.num_nodes, size=4),
            remove_edges=rng.choice(live, size=2, replace=False)))
        store.apply_updates(applied)  # flushes the cache
        assert store.cache_stats()["cached_rows"] == 0


def test_remove_unknown_and_duplicate_edges_raise():
    rng = np.random.default_rng(6)
    graph = make_base_graph("tiny", rng)
    with pytest.raises(ValueError):
        graph.remove_edges([graph.num_edges])  # out of range
    if graph.num_edges:
        with pytest.raises(ValueError):
            graph.remove_edges([0, 0])  # duplicate in one batch


def test_csr_gather_matches_overlay_on_fresh_graph():
    """A never-mutated graph keeps serving plain CSRs (zero overhead)."""
    rng = np.random.default_rng(8)
    graph = make_base_graph("dense", rng)
    assert isinstance(graph.undirected_adjacency, CSRAdjacency)
    assert isinstance(graph.adjacency, CSRAdjacency)
    assert graph.overlay_fraction == 0.0
