"""serve-bench-recovery — crash/recovery differential + replica failover.

Not a paper artifact: this experiment certifies the durability tier
(:mod:`repro.persist`) end to end and **raises** (the CI recovery-smoke
gate) when any contract breaks:

* **Crash differential** — a "doomed" server (snapshot + WAL attached)
  opens sessions, serves two query rounds around one applied
  :class:`~repro.graph.GraphUpdate`, durably logs a second update, and
  dies *between the fsync and the in-memory apply* — the worst-case
  write-ahead crash point — leaving a torn half-record at the WAL tail
  for good measure.  A recovered server
  (:meth:`~repro.serving.PromptServer.restore`: snapshot-load → ordered
  WAL replay → manifest-ordered session re-open) then serves the final
  query round, which must be **bit-identical** (predictions and
  confidences) to an uninterrupted reference run that applied both
  updates normally.
* **Real ``kill -9``** (full mode only) — the doomed timeline runs in a
  subprocess that ``SIGKILL``s itself at the write-ahead point; the
  parent recovers from the directory the corpse left behind.  Fast/CI
  mode simulates the same crash in-process (abandon the server after
  logging, inject the torn tail by hand).
* **Replica failover** — a 2-replica :class:`~repro.serving.ReplicaSet`
  over one shared store serves several tenants, absorbs one fleet-wide
  update (logged once, fanned out), then loses a replica while requests
  are in flight.  Required outcomes: every in-flight request on the dead
  replica settles with a typed :class:`~repro.serving.Unavailable`
  (zero hangs), every tenant re-routes to the survivor — sessions
  re-opened from the shared manifests — and the next round serves all
  tenants successfully.

The updates deliberately touch every session's seed nodes so the
reference run invalidates (and re-anchors) all sessions — making its
final round equivalent to the recovered server's freshly re-opened
sessions, which is exactly the state a real restart is in.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile

import numpy as np

from ..core import GraphPrompterModel
from ..datasets import Dataset, load_dataset
from ..graph import GraphUpdate
from ..nn import load_state, save_state
from ..persist import PersistentStore
from ..persist.wal import _record_crc, update_to_jsonable
from ..serving import (
    Priority,
    PromptServer,
    ReplicaSet,
    ServingGateway,
    Unavailable,
)
from .common import ExperimentContext, TableResult, default_config
from .replay import replay, require_identical, sample_episodes, served_model

__all__ = ["serve_bench_recovery"]

#: Rounds in every timeline: served, update, served, update+crash, served.
NUM_ROUNDS = 3


def _touching_update(graph, episodes: dict, rng: np.random.Generator,
                     num_add: int, num_remove: int,
                     num_new_nodes: int = 0) -> GraphUpdate:
    """A seeded mutation guaranteed to invalidate *every* session.

    One added edge is anchored at each episode's first candidate node, so
    each session's dependent-node set intersects the touched region; the
    rest is uniform noise like
    :func:`~repro.experiments.serving.random_graph_update`.
    """
    seeds = np.array(sorted({int(ep.candidates[0].nodes[0])
                             for ep in episodes.values()}), dtype=np.int64)
    total_nodes = graph.num_nodes + num_new_nodes
    extra = max(num_add - seeds.size, 0)
    add_src = np.concatenate(
        [seeds, rng.integers(0, total_nodes, size=extra)])
    _, _, _, live_ids = graph.live_edges()
    num_remove = min(num_remove, live_ids.size)
    features = None
    if num_new_nodes:
        features = rng.normal(size=(num_new_nodes, graph.feature_dim))
    return GraphUpdate(
        add_src=add_src,
        add_dst=rng.integers(0, total_nodes, size=add_src.size),
        add_rel=rng.integers(0, graph.num_relations, size=add_src.size),
        remove_edges=rng.choice(live_ids, size=num_remove, replace=False),
        add_node_features=features,
    )


def _build_workload(target: str, seed: int, num_ways: int,
                    num_sessions: int, queries_per_session: int):
    """Deterministic (dataset, episodes): identical in every process.

    Each run gets a private graph copy (``rebuild()``) so mutations never
    leak across the doomed / reference / recovered runs — or into the
    experiment context's shared dataset cache.
    """
    base = load_dataset(target)
    dataset = Dataset(base.graph.rebuild(), base.task, name=base.name,
                      rng=seed)
    return dataset, sample_episodes(dataset, num_sessions, num_ways,
                                    queries_per_session, seed * 1000)


def _make_server(model, dataset, seed: int,
                 persist: PersistentStore | None = None) -> PromptServer:
    return PromptServer(model, dataset, max_batch_size=8, rng=seed,
                        persist=persist)


def _serve_round(server: PromptServer, episodes: dict, round_id: int):
    per_round = next(iter(episodes.values())).num_queries // NUM_ROUNDS
    queries = range(round_id * per_round, (round_id + 1) * per_round)
    tick = [(session_id, q) for q in queries for session_id in episodes]
    return replay(server, episodes, [tick])[0]


def _final_round(server: PromptServer, episodes) -> list[tuple]:
    """The post-crash round both sides of the differential compare."""
    return [(r.session_id, r.prediction, float(r.confidence))
            for r in _serve_round(server, episodes, NUM_ROUNDS - 1)]


def _pre_crash_timeline(server: PromptServer, episodes,
                        seed: int) -> GraphUpdate:
    """Everything both timelines share before the crash point.

    Opens sessions, serves rounds 0-1 around one applied update, then
    *constructs* (but does not apply) the second update.  The doomed run
    WAL-logs it and dies; the reference run applies it and keeps going.
    """
    graph = server.dataset.graph
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    rng = np.random.default_rng(seed + 777)
    grow = max(graph.num_live_edges // 30, 6)
    _serve_round(server, episodes, 0)
    server.update_graph(
        _touching_update(graph, episodes, rng, grow, grow // 2))
    _serve_round(server, episodes, 1)
    return _touching_update(graph, episodes, rng, grow, grow // 2,
                            num_new_nodes=2)


def _inject_torn_tail(persist: PersistentStore, graph, episodes,
                      seed: int) -> None:
    """Append the first half of a *valid* record — death mid-``write``.

    Recovery must silently drop this torn tail (the update was never
    acknowledged) while still replaying every intact record before it.
    """
    update = _touching_update(graph, episodes,
                              np.random.default_rng(seed + 999), 4, 2)
    payload = update_to_jsonable(update)
    seq = persist.wal._next_seq
    record = {"seq": seq, "base_version": graph.version,
              "update": payload,
              "crc": _record_crc(seq, graph.version, payload)}
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with open(persist.wal.path, "a", encoding="utf-8") as handle:
        handle.write(line[:max(len(line) // 2, 1)])


def _run_doomed(model, target: str, store_dir: str, seed: int,
                num_ways: int, num_sessions: int,
                queries_per_session: int, sigkill: bool = False) -> None:
    """The pre-crash process: stops at the write-ahead point.

    After this returns, ``store_dir`` holds exactly what a ``kill -9``
    between ``log_update``'s fsync and the in-memory apply leaves behind
    (plus a torn tail from a third, never-acknowledged update).  With
    ``sigkill`` the process ``kill -9``s itself at that point instead.
    """
    dataset, episodes = _build_workload(target, seed, num_ways,
                                        num_sessions, queries_per_session)
    persist = PersistentStore(store_dir)
    server = _make_server(model, dataset, seed, persist=persist)
    update = _pre_crash_timeline(server, episodes, seed)
    persist.log_update(update, base_version=dataset.graph.version)
    # -- crash point: the update is durable but was never applied. --
    if sigkill:
        os.kill(os.getpid(), signal.SIGKILL)
    _inject_torn_tail(persist, dataset.graph, episodes, seed)


def _crash_child(store_dir: str, model_path: str, target: str, seed: int,
                 num_ways: int, num_sessions: int,
                 queries_per_session: int) -> None:
    """Subprocess entry point: run the doomed timeline, then ``kill -9``
    ourselves at the write-ahead point — no torn-tail simulation needed,
    the crash is real."""
    graph = load_dataset(target).graph
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               default_config(mutable_graph=True))
    load_state(model, model_path)
    _run_doomed(model, target, store_dir, seed, num_ways, num_sessions,
                queries_per_session, sigkill=True)


def _spawn_crash_child(store_dir: str, model_path: str, target: str,
                       seed: int, num_ways: int, num_sessions: int,
                       queries_per_session: int) -> None:
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "from repro.experiments.recovery import _crash_child; "
        f"_crash_child({store_dir!r}, {model_path!r}, {target!r}, {seed}, "
        f"{num_ways}, {num_sessions}, {queries_per_session})")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != -signal.SIGKILL:
        raise RuntimeError(
            f"crash child exited with {proc.returncode} instead of dying "
            f"by SIGKILL; stderr tail: {proc.stderr[-2000:]}")


async def _failover_phase(model, target: str, store_dir: str, seed: int,
                          num_ways: int, queries_per_session: int) -> dict:
    """2-replica fleet: shared store, one update, kill one mid-flight."""
    store = PersistentStore(store_dir)

    def factory(replica_id: int) -> ServingGateway:
        dataset, _ = _build_workload(target, seed, num_ways, 1,
                                     queries_per_session)
        server = _make_server(model, dataset, seed, persist=store)
        return ServingGateway(server, auto_drain=False)

    rs = ReplicaSet(factory, num_replicas=2, store=store)
    _, sessions = _build_workload(target, seed, num_ways, 4,
                                  queries_per_session)
    episodes = list(sessions.values())
    tenants = [f"tenant-{i}" for i in range(len(episodes))]
    for i, tenant in enumerate(tenants):
        rs.open_session(tenant, f"{tenant}-s", episodes[i],
                        priority=Priority.INTERACTIVE)
    home = {tenant: rs.route(tenant) for tenant in tenants}

    async def serve_all(query_index: int) -> dict:
        outcomes: dict[str, object] = {}
        by_gateway: dict[int, list] = {}
        for i, tenant in enumerate(tenants):
            index = rs.route(tenant)
            future = rs.replicas[index].submit_nowait(
                f"{tenant}-s", episodes[i].queries[query_index])
            by_gateway.setdefault(index, []).append((tenant, future))
        for index in by_gateway:
            await asyncio.wait_for(rs.replicas[index].flush(), timeout=120)
        for pairs in by_gateway.values():
            for tenant, future in pairs:
                outcomes[tenant] = (future.result()
                                    if isinstance(future, asyncio.Future)
                                    else future)
        return outcomes

    first = await serve_all(0)
    await rs.update_graph(_touching_update(
        rs.replicas[0].server.dataset.graph, sessions,
        np.random.default_rng(seed + 777), 6, 3))

    # In-flight requests on the victim at the moment it dies.
    victim = rs.route(tenants[0])
    inflight = []
    for i, tenant in enumerate(tenants):
        if rs.route(tenant) == victim:
            inflight.append(rs.replicas[victim].submit_nowait(
                f"{tenant}-s", episodes[i].queries[1]))
    settled = rs.kill(victim)
    hung = sum(1 for f in inflight
               if isinstance(f, asyncio.Future) and not f.done())
    unavailable = sum(1 for f in inflight
                      if isinstance(f, asyncio.Future) and f.done()
                      and isinstance(f.result(), Unavailable))

    second = await serve_all(2)
    moved = sum(1 for tenant in tenants
                if home[tenant] == victim and rs.route(tenant) != victim)
    await rs.close()

    served_ok = sum(1 for o in second.values()
                    if getattr(o, "ok", False))
    return {
        "tenants": len(tenants),
        "first_round_ok": sum(1 for o in first.values()
                              if getattr(o, "ok", False)),
        "inflight": len(inflight),
        "settled": settled,
        "hung": hung,
        "unavailable": unavailable,
        "failed_over": moved,
        "served_ok_after": served_ok,
    }


def serve_bench_recovery(context: ExperimentContext,
                         source: str = "wiki", target: str = "nell",
                         num_ways: int = 5, seed: int = 0) -> TableResult:
    """Crash/recovery differential + replica failover (raises on breach)."""
    model, base = served_model(context, source, target, mutable_graph=True)
    num_sessions = 3 if context.fast else 4
    queries_per_session = 6 if context.fast else 12

    headers = ["Config", "Crash", "Replayed", "Sessions", "Version",
               "Identical"]
    rows: list[list] = []
    data: dict = {"cells": {}}

    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        store_dir = os.path.join(tmp, "store-monolithic")
        # Full mode exercises a real kill -9; CI fast mode crashes
        # in-process at the same write-ahead point, plus a torn WAL tail
        # the subprocess path gets free.
        crash = "in-process" if context.fast else "sigkill"
        if crash == "sigkill":
            model_path = os.path.join(tmp, "model.npz")
            save_state(model, model_path)
            _spawn_crash_child(store_dir, model_path, target, seed,
                               num_ways, num_sessions, queries_per_session)
        else:
            _run_doomed(model, target, store_dir, seed, num_ways,
                        num_sessions, queries_per_session)

        # Uninterrupted reference: same timeline, second update actually
        # applied, then the final round.
        ref_dataset, ref_episodes = _build_workload(
            target, seed, num_ways, num_sessions, queries_per_session)
        reference_server = _make_server(model, ref_dataset, seed)
        update = _pre_crash_timeline(reference_server, ref_episodes, seed)
        reference_server.update_graph(update)
        reference = _final_round(reference_server, ref_episodes)

        # Warm-start from the crash site and serve the same round.
        recovered_server = PromptServer.restore(
            model, PersistentStore(store_dir), base.task,
            name=base.name, rng=seed, max_batch_size=8)
        replayed = recovered_server.last_recovery_replayed
        restored_sessions = len(recovered_server.sessions)
        version = recovered_server.dataset.graph.version
        recovered = _final_round(recovered_server, ref_episodes)

        if restored_sessions != num_sessions:
            raise RuntimeError(
                f"recovery re-opened {restored_sessions} sessions, "
                f"expected {num_sessions} — session manifests lost")
        require_identical(
            reference, recovered,
            "recovered serving vs the uninterrupted run (snapshot, WAL "
            "replay or session re-open is not bit-faithful)")
        data["cells"]["monolithic"] = {
            "crash": crash, "replayed": replayed,
            "sessions": restored_sessions, "graph_version": version,
            "identical": True,
        }
        rows.append(["monolithic", crash, replayed, restored_sessions,
                     version, "yes"])

        failover = asyncio.run(_failover_phase(
            model, target, os.path.join(tmp, "store-failover"), seed,
            num_ways, queries_per_session))
    data["failover"] = failover
    rows.append(["failover", "kill", "-", failover["failed_over"], "-",
                 (f"settled={failover['settled']} hung={failover['hung']} "
                  f"ok={failover['served_ok_after']}/"
                  f"{failover['tenants']}")])
    if failover["hung"]:
        raise RuntimeError(
            f"{failover['hung']} in-flight requests hung across the "
            f"replica kill — every request must settle")
    if failover["unavailable"] != failover["inflight"]:
        raise RuntimeError(
            "in-flight requests on the killed replica did not all settle "
            "with typed Unavailable results")
    if failover["served_ok_after"] != failover["tenants"]:
        raise RuntimeError(
            "not every tenant was served after failover — manifest "
            "re-open on the surviving replica is broken")
    return TableResult(
        title=(f"serve-bench-recovery: {num_sessions} sessions × "
               f"{queries_per_session} queries, {num_ways}-way {target}, "
               f"crash at the write-ahead point"),
        headers=headers, rows=rows, data=data)
