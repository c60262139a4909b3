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
  batched inducer against the per-row loop oracle on the same surface).

Batched induction must also settle the overlay's written rows exactly as
the per-row loop does; reads of the overlay's row windows must leave it
unchanged.

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
from reference_paths import bfs_legacy, induced_subgraph_loop, random_walk_legacy

#: Each sampler followed by its legacy reference; every call takes its own
#: draw from the trial RNG, in this order.
SAMPLERS = (bfs_neighborhood, bfs_legacy,
            random_walk_neighborhood, random_walk_legacy)


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
    # Before the per-row pass: after a direct write this batched gather
    # is the read that settles it, over a frontier of clean and rebuilt
    # rows.
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


def _mutated_twins(seed: int, writes: int) -> list[Graph]:
    """Two identical mutated graphs (same script, same overlay state),
    each left with ``writes`` write batches that no read has settled."""
    twins = []
    for _ in range(2):
        rng = np.random.default_rng([31, seed])
        graph = make_base_graph("dense", rng)
        graph.adjacency  # build pre-write: the overlay wraps it in place
        for _ in range(writes):
            k = max(graph.num_edges // 8, 8)
            graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                            rng.integers(0, graph.num_nodes, size=k),
                            rng.integers(0, graph.num_relations, size=k))
            _, _, _, live = graph.live_edges()
            graph.remove_edges(rng.choice(live, size=6, replace=False))
        twins.append(graph)
    return twins


@pytest.mark.parametrize("writes", [1, 2, 3])
@pytest.mark.parametrize("seed", range(2))
def test_induction_advances_overlay_counters_like_the_loop(seed, writes):
    """Batched induction settles the rows written since the last read
    exactly as the per-row loop does: rebuild counts, row windows and the
    store's bytes stay in lockstep."""
    fast, slow = _mutated_twins(seed, writes)
    assert fast.adjacency._pending and slow.adjacency._pending
    rng = np.random.default_rng([32, seed])
    for step in range(6):
        if step == 3:  # writes mid-stream: rebuilt rows are written again
            for graph in (fast, slow):
                for _ in range(writes):
                    graph.add_edges([0, 1], [2, 3])
        node_set = rng.choice(fast.num_nodes, size=14, replace=False)
        centers = node_set[:2]
        got = induced_subgraph(fast, node_set, centers)
        want = induced_subgraph_loop(slow, node_set, centers)
        for field in ("nodes", "src", "dst", "rel", "centers"):
            assert np.array_equal(getattr(got, field),
                                  getattr(want, field)), (step, field)
        # The induction itself settled every pending row.
        assert not fast.adjacency._pending, step
        assert not slow.adjacency._pending, step
        assert store_state(fast.adjacency) == store_state(slow.adjacency), step
    stats = fast.adjacency.overlay_stats()
    assert stats["rebuilds"] > 0 and stats["garbage_slots"] > 0


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
# Row windows (settle, rebuild, repack, compaction)
# ----------------------------------------------------------------------
def store_state(adj: DeltaAdjacency) -> tuple:
    """Everything a read could change: the stats, every row window and
    the store's used bytes."""
    eids = None if adj._eid is None else adj._eid[:adj._used].tobytes()
    return (adj.overlay_stats(), adj._start.tobytes(), adj._len.tobytes(),
            adj._dst[:adj._used].tobytes(), eids)


def test_stale_dirty_row_regression():
    """add edge -> remove the same edge -> the row must read its base
    slice again (the empty delta entry used to pin it dirty forever)."""
    rng = np.random.default_rng(21)
    graph = make_base_graph("dense", rng)
    adj = graph.undirected_adjacency  # plain CSR, promoted on first write
    u, v = 3, 7
    eid = int(graph.add_edges([u], [v])[0])
    adj = graph.undirected_adjacency
    assert adj._dirty[u] and adj._dirty[v]
    graph.remove_edges([eid])
    # Both endpoint rows are back at their exact base state, and no
    # empty delta entry is left behind.
    assert not adj._dirty[u] and not adj._dirty[v]
    assert not graph.adjacency._dirty[u]
    frontier = np.array([u, v], dtype=np.int64)
    assert np.array_equal(adj.gather_neighbors(frontier),
                          adj.base.gather_neighbors(frontier))
    assert all(not lane for lane in adj._delta)
    assert np.array_equal(adj._start[frontier], adj.base.indptr[frontier])
    assert_reads_equal(graph, graph.rebuild(), "stale-dirty-row")


def test_rebuilt_row_reads_bit_identical():
    """The first read after a write rebuilds every written row; the
    rebuilt windows must read identically on every surface."""
    rng = np.random.default_rng(22)
    graph = make_base_graph("dense", rng)
    graph.adjacency, graph.undirected_adjacency  # build pre-write
    k = max(graph.num_edges // 10, 8)
    graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                    rng.integers(0, graph.num_nodes, size=k),
                    rng.integers(0, graph.num_relations, size=k))
    ref = graph.rebuild()
    assert_reads_equal(graph, ref, "pass 1 (rebuilding)")
    adj = graph.undirected_adjacency
    stats = adj.overlay_stats()
    assert stats["rebuilds"] > 0 and stats["dirty_rows"] > 0
    assert stats["side_slots"] > 0
    # Later passes read the same windows.
    assert_reads_equal(graph, ref, "pass 2 (rebuilt)")
    assert_sampling_equal(graph, ref, rng, "rebuilt sampling")
    assert_induction_equal(graph, ref, rng, "rebuilt induction")
    # A frontier mixing clean and rebuilt rows is one gather over base
    # and side windows, and still matches the rebuild.
    frontier = np.arange(graph.num_nodes, dtype=np.int64)
    assert np.array_equal(adj.gather_neighbors(frontier),
                          ref.undirected_adjacency.gather_neighbors(frontier))


def test_rebuild_then_compact():
    """compact() folds everything into a clean base: no row reads a
    rebuilt window any more, and reads keep matching the rebuild."""
    rng = np.random.default_rng(24)
    graph = make_base_graph("dense", rng)
    graph.undirected_adjacency  # build pre-write
    k = max(graph.num_edges // 8, 8)
    graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                    rng.integers(0, graph.num_nodes, size=k))
    ref = graph.rebuild()
    assert_reads_equal(graph, ref, "pre-compact pass 1")
    assert_reads_equal(graph, ref, "pre-compact pass 2")
    assert graph.undirected_adjacency.overlay_stats()["dirty_rows"] > 0
    graph.compact()
    adj = graph.undirected_adjacency
    stats = adj.overlay_stats()
    assert stats["dirty_rows"] == 0 and stats["delta_slots"] == 0
    assert_reads_equal(graph, graph.rebuild(), "post-compact")


def test_grown_rows_stay_dirty_and_rebuilt():
    """Rows past the base node count never read a base slice (there is
    no base row to slice): they read rebuilt windows, empty ones too."""
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
    assert adj.neighbors(int(new[1])).size > 0
    assert adj._start[int(new[1])] >= adj.base.num_edges
    assert_reads_equal(graph, graph.rebuild(), "grown rows")


def test_reads_are_pure():
    """After the first read that follows a write, reads of every surface
    change neither the stats, the row windows nor the store's bytes."""
    rng = np.random.default_rng(41)
    graph = make_base_graph("dense", rng)
    graph.adjacency, graph.undirected_adjacency  # build pre-write
    for step in range(4):
        k = int(rng.integers(4, 12))
        graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                        rng.integers(0, graph.num_nodes, size=k))
        _, _, _, live = graph.live_edges()
        graph.remove_edges(rng.choice(live, size=4, replace=False))
        views = (graph.adjacency, graph.undirected_adjacency)
        views[0].neighbor_edges(0)  # the first read settles the writes
        views[1].neighbors(0)
        before = [store_state(adj) for adj in views]
        ref = graph.rebuild()
        for _ in range(2):
            assert_reads_equal(graph, ref, f"pure {step}")
            assert_sampling_equal(graph, ref, rng, f"pure {step}")
            assert_induction_equal(graph, ref, rng, f"pure {step}")
        assert [store_state(adj) for adj in views] == before, step


def test_row_written_twice_in_one_batch():
    """Two writes to one row before a read rebuild it once, to the
    content after both; so do writes spread over add and remove stages."""
    rng = np.random.default_rng(42)
    graph = make_base_graph("dense", rng)
    graph.adjacency, graph.undirected_adjacency  # build pre-write
    u = 4
    graph.add_edges([u, u, 7], [9, u, u])  # u written three times
    assert_reads_equal(graph, graph.rebuild(), "twice, add")
    # One batch that appends to u and tombstones one of its base slots.
    dsts, eids = graph.adjacency.neighbor_edges(u)
    base_eid = int(eids[0])
    graph.apply_updates(GraphUpdate(add_src=[u, 3], add_dst=[2, u],
                                    remove_edges=[base_eid]))
    assert_reads_equal(graph, graph.rebuild(), "twice, add + remove")


def test_row_written_then_restored_in_one_batch():
    """A row a batch writes and restores reads its base slice again; a
    rebuilt row a batch writes twice keeps reading its content."""
    rng = np.random.default_rng(43)
    graph = make_base_graph("dense", rng)
    graph.adjacency, graph.undirected_adjacency  # build pre-write
    u, v = 5, 11
    kept = graph.add_edges([u], [v])
    adj = graph.undirected_adjacency
    assert_reads_equal(graph, graph.rebuild(), "rebuilt")
    assert adj._start[u] >= adj.base.num_edges
    # Add and remove again without a read: u keeps its rebuilt content.
    eid = graph.add_edges([u], [3])
    graph.remove_edges(eid)
    assert_reads_equal(graph, graph.rebuild(), "written and undone")
    # Removing the first edge restores u's exact base state.
    garbage = adj.overlay_stats()["garbage_slots"]
    graph.remove_edges(kept)
    assert_reads_equal(graph, graph.rebuild(), "restored")
    assert not adj._dirty[u]
    assert adj._start[u] == adj.base.indptr[u]
    assert adj.overlay_stats()["garbage_slots"] > garbage


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_repack_reads_like_the_rebuild(kind):
    """A write stream long enough to repack the store reads like the
    rebuild at every step, before and after each repack."""
    rng = np.random.default_rng([44, kind == "dense"])
    graph = make_base_graph(kind, rng)
    graph.adjacency, graph.undirected_adjacency  # build pre-write
    graph.add_edges([0], [1])
    views = (graph.adjacency, graph.undirected_adjacency)
    step = 0
    while min(adj.overlay_stats()["repacks"] for adj in views) < 2:
        k = int(rng.integers(8, 24))
        graph.add_edges(rng.integers(0, graph.num_nodes, size=k),
                        rng.integers(0, graph.num_nodes, size=k),
                        rng.integers(0, graph.num_relations, size=k))
        _, _, _, live = graph.live_edges()
        graph.remove_edges(rng.choice(live, size=k // 2, replace=False))
        assert_reads_equal(graph, graph.rebuild(), f"{kind} step {step}")
        step += 1
        assert step < 400, "the store never repacked"
    for adj in views:
        stats = adj.overlay_stats()
        assert stats["garbage_slots"] * 2 <= adj._dst.size
        assert stats["side_slots"] > 0
    assert_sampling_equal(graph, graph.rebuild(), rng, f"{kind} repacked")


def test_compact_returns_to_an_aliased_store():
    """A compacted overlay reads its fresh base arrays: nothing copied."""
    rng = np.random.default_rng(45)
    graph = make_base_graph("dense", rng)
    graph.adjacency, graph.undirected_adjacency  # build pre-write
    graph.add_edges([0, 1, 2], [3, 4, 5])
    for adj in (graph.adjacency, graph.undirected_adjacency):
        assert adj._dst is adj.base.indices  # aliased until the first read
    assert_reads_equal(graph, graph.rebuild(), "owned")
    directed, undirected = graph.adjacency, graph.undirected_adjacency
    assert directed._dst is not directed.base.indices
    assert undirected._dst is not undirected.base.indices
    graph.compact()
    directed, undirected = graph.adjacency, graph.undirected_adjacency
    assert directed._dst is directed.base.indices
    assert directed._eid is directed.base.edge_ids
    assert undirected._dst is undirected.base.indices
    for adj in (directed, undirected):
        stats = adj.overlay_stats()
        assert stats["side_slots"] == stats["garbage_slots"] == 0
        assert stats["dirty_rows"] == 0
    assert_reads_equal(graph, graph.rebuild(), "compacted")


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
