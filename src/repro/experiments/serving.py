"""serve-bench — online serving throughput vs. per-query baseline.

Not a paper artifact: this experiment characterises the serving subsystem
(:mod:`repro.serving`) that operationalises the paper's streaming claim
(Alg. 2 / Fig. 5).  A fixed multi-session workload — round-robin
interleaved queries from several concurrent episodes — is replayed through
:class:`PromptServer` at several ``max_batch_size`` settings:

* ``batch = 1`` is per-query serving (every query pays a full GNN launch);
* larger batches coalesce queries *across sessions* into one encoder pass.

Reported per batch size: queries/sec over the whole workload, the speedup
vs. per-query serving, p50/p95 micro-batch service latency, the share of
encode lookups (pool opens and queries) the server's encoding memo
answered without encoding, and whether every prediction and confidence
stayed byte-identical to the per-query run (they must — batching is a
pure throughput optimization, so a mismatch raises).

``serve-bench-mutating`` interleaves live graph updates
(:meth:`PromptServer.update_graph`) with query rounds: edges are added and
removed — and nodes appended — between drains, flowing through the
delta-overlay write path (:mod:`repro.graph.delta`) with cache-epoch
session invalidation.  After the last round the whole post-mutation
workload is replayed on **fresh sessions of both the mutated server and a
cold server rebuilt from scratch** over the final live edge list; any
difference in a prediction or in a confidence's bytes raises (the CI
mutation-smoke gate) — overlay reads and epoch invalidation must be
indistinguishable from a rebuild.  The mutated
server's fresh sessions read every encoding its memo kept through the
updates, so the gate checks the memo's eviction too: a kept entry that
is wrong can leave a prediction unchanged and still move its
confidence.  Each round's row gives the sessions its update marked stale
and the pool candidates its own queries refreshed
(``ServerStats.refreshed_candidates``): the previous round's update
marked them, and a stale session re-encodes only the candidates whose
encodings read something the update changed — or reads them from the
encoding memo when another session re-encoded them first.
"""

from __future__ import annotations

import numpy as np

from ..datasets.base import Dataset
from ..graph import GraphUpdate
from ..serving import PromptServer
from .common import ExperimentContext, TableResult
from .replay import (
    replay,
    replay_workload,
    require_identical,
    sample_episodes,
    served_model,
)

__all__ = ["serve_bench", "serve_bench_mutating", "random_graph_update"]


def serve_bench(context: ExperimentContext,
                batch_sizes=(1, 4, 16),
                source: str = "wiki", target: str = "nell",
                num_ways: int = 5, seed: int = 0) -> TableResult:
    """Cross-session micro-batching throughput on one fixed workload.

    Raises ``RuntimeError`` when any batch size changes a prediction or
    a confidence relative to the first (per-query) row.
    """
    model, dataset = served_model(context, source, target)
    num_sessions = 4 if context.fast else 8
    queries_per_session = 6 if context.fast else 24
    episodes = sample_episodes(dataset, num_sessions, num_ways,
                               queries_per_session, seed * 1000)

    headers = ["Batch", "Queries/s", "Speedup", "p50 ms", "p95 ms",
               "Mean batch", "Memo hits", "Identical"]
    rows = []
    data = {"batch_sizes": list(batch_sizes), "cells": {}}
    reference = None
    baseline_qps = None
    for batch_size in batch_sizes:
        server = PromptServer(model, dataset, max_batch_size=batch_size,
                              rng=seed)
        results, elapsed = replay_workload(server, episodes)

        qps = len(results) / elapsed
        service_ms = 1000.0 * np.asarray([r.service_s for r in results])
        p50, p95 = np.percentile(service_ms, [50, 95])
        predictions = [(r.session_id, r.prediction, r.confidence)
                       for r in results]
        if reference is None:
            reference, baseline_qps = predictions, qps
        require_identical(
            reference, predictions,
            f"serve-bench batch {batch_size} vs batch {batch_sizes[0]}")

        stats = server.stats
        hit_share = stats.memo_hits / (stats.memo_hits + stats.memo_misses)
        data["cells"][batch_size] = {
            "qps": qps, "speedup": qps / baseline_qps,
            "p50_ms": float(p50), "p95_ms": float(p95),
            "mean_batch": stats.mean_batch_size,
            "memo_hit_share": hit_share,
            "identical": True, "results": results,
        }
        rows.append([batch_size, f"{qps:.1f}",
                     f"{qps / baseline_qps:.2f}x",
                     f"{p50:.2f}", f"{p95:.2f}",
                     f"{stats.mean_batch_size:.1f}", f"{hit_share:.1%}",
                     "yes"])
    return TableResult(
        title=(f"serve-bench: {num_sessions} sessions × "
               f"{queries_per_session} queries, {num_ways}-way {target}"),
        headers=headers, rows=rows, data=data)


def random_graph_update(graph, rng: np.random.Generator,
                        num_add: int, num_remove: int,
                        num_new_nodes: int = 0) -> GraphUpdate:
    """A seeded mutation batch over ``graph``'s current live state.

    Added edges draw uniform endpoints (including any nodes added by the
    same update); removals draw uniformly from the live edge ids.  Shared
    by ``serve-bench-mutating`` and perfbench's mutating workload.
    """
    total_nodes = graph.num_nodes + num_new_nodes
    _, _, _, live_ids = graph.live_edges()
    num_remove = min(num_remove, live_ids.size)
    features = None
    if num_new_nodes:
        features = rng.normal(size=(num_new_nodes, graph.feature_dim))
    return GraphUpdate(
        add_src=rng.integers(0, total_nodes, size=num_add),
        add_dst=rng.integers(0, total_nodes, size=num_add),
        add_rel=rng.integers(0, graph.num_relations, size=num_add),
        remove_edges=rng.choice(live_ids, size=num_remove, replace=False),
        add_node_features=features,
    )


def serve_bench_mutating(context: ExperimentContext,
                         source: str = "wiki", target: str = "nell",
                         num_ways: int = 5, seed: int = 0) -> TableResult:
    """Live-mutation serving: interleaved updates + cold-rebuild equality.

    Raises ``RuntimeError`` when the mutated server's post-mutation
    predictions or confidences differ from a server cold-rebuilt over
    the final live edge list — the property the CI mutation-smoke job
    asserts.  Confidences are compared by their bytes
    (``(session_id, prediction, confidence.hex())`` per answer).
    """
    model, base = served_model(context, source, target, mutable_graph=True)
    # Private graph copy: the context's dataset cache is shared across
    # experiments and must never observe this bench's mutations.
    dataset = Dataset(base.graph.rebuild(), base.task,
                      name=f"{base.name}-mutating", rng=seed)
    graph = dataset.graph
    num_sessions = 3 if context.fast else 6
    queries_per_session = 6 if context.fast else 18
    num_rounds = 3
    per_round = queries_per_session // num_rounds
    grow = max(graph.num_live_edges // (20 if context.fast else 40), 8)
    episodes = sample_episodes(dataset, num_sessions, num_ways,
                               queries_per_session, seed * 1000)

    server = PromptServer(model, dataset, max_batch_size=8, rng=seed)
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)

    update_rng = np.random.default_rng(seed + 77)
    headers = ["Round", "Queries/s", "+Edges", "-Edges", "+Nodes",
               "Stale sessions", "Refreshed candidates", "Overlay %"]
    rows = []
    data = {"rounds": []}
    mut_rng = np.random.default_rng(update_rng.integers(2**32))
    for round_id in range(num_rounds):
        queries = range(round_id * per_round, (round_id + 1) * per_round)
        tick = [(session_id, q) for q in queries for session_id in episodes]
        refreshed_before = server.stats.refreshed_candidates
        results, elapsed = replay(server, episodes, [tick])
        qps = len(results) / elapsed
        refreshed = server.stats.refreshed_candidates - refreshed_before

        # Mutate between rounds (the last round leaves the graph as the
        # equality check below will see it).
        update = random_graph_update(
            graph, mut_rng, num_add=grow, num_remove=grow // 2,
            num_new_nodes=2 if round_id == 1 else 0)
        invalidated_before = server.stats.sessions_invalidated
        server.update_graph(update)
        stale = server.stats.sessions_invalidated - invalidated_before
        overlay_pct = 100.0 * graph.overlay_fraction
        rows.append([round_id, f"{qps:.1f}", grow, grow // 2,
                     2 if round_id == 1 else 0, stale, refreshed,
                     f"{overlay_pct:.1f}"])
        data["rounds"].append({
            "round": round_id, "qps": qps, "added": grow,
            "removed": grow // 2, "stale_sessions": stale,
            "refreshed_candidates": refreshed,
            "overlay_fraction": graph.overlay_fraction,
        })

    # ------------------------------------------------------------------
    # Equality gate: fresh sessions on the mutated server vs. a server
    # cold-rebuilt from the final live edge list must answer identically,
    # confidence bytes included.
    # ------------------------------------------------------------------
    cold_dataset = Dataset(graph.rebuild(), base.task,
                           name=f"{base.name}-cold", rng=seed)
    cold = PromptServer(model, cold_dataset, max_batch_size=8, rng=seed)
    checks = {f"check-{i}": episode
              for i, episode in enumerate(episodes.values())}
    predictions = {}
    for tag, srv in (("mutated", server), ("cold", cold)):
        results, elapsed = replay_workload(srv, checks)
        predictions[tag] = [(r.session_id, r.prediction,
                             r.confidence.hex()) for r in results]
        data[f"{tag}_qps"] = len(results) / elapsed
    require_identical(
        predictions["cold"], predictions["mutated"],
        "mutating serving vs the cold rebuild (delta overlay or epoch "
        "invalidation served stale graph state)")
    data["identical"] = True
    data["stale_evictions"] = server.stats.stale_evictions
    data["graph_version"] = server.stats.graph_version
    rows.append(["check", f"{data['mutated_qps']:.1f}", "-", "-", "-",
                 "-", "-", "identical: yes"])
    return TableResult(
        title=(f"serve-bench-mutating: {num_sessions} sessions × "
               f"{queries_per_session} queries, {num_ways}-way {target}, "
               f"{num_rounds} update rounds"),
        headers=headers, rows=rows, data=data)
