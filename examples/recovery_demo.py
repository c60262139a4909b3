"""Durability demo: snapshot + WAL recovery, and replica failover.

Walks the crash-recovery story end to end:

1. a server with a `PersistentStore` attached serves live traffic and
   absorbs a graph update (WAL-logged before the in-memory apply);
2. the process "crashes" at the worst moment — an update is durably
   logged but never applied, and a half-written record is torn at the
   WAL tail;
3. `PromptServer.restore` warm-starts from the directory the corpse
   left behind (snapshot → ordered replay → manifest-ordered session
   re-open) and serves the next round **bit-identically** to an
   uninterrupted reference run;
4. a 2-replica `ReplicaSet` loses a replica mid-flight: every in-flight
   request settles with a typed `Unavailable`, tenants fail over to the
   survivor, and serving continues.

Run:  python examples/recovery_demo.py      (~1 min; --fast for CI scale)
"""

import argparse
import asyncio
import tempfile

import numpy as np

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    PretrainConfig,
    Pretrainer,
    sample_episode,
)
from repro.datasets import Dataset, load_dataset
from repro.graph import GraphUpdate
from repro.persist import PersistentStore
from repro.serving import PromptServer, ReplicaSet, ServingGateway

NUM_SESSIONS = 3
QUERIES = 6


def fresh_dataset():
    base = load_dataset("nell")
    return Dataset(base.graph.rebuild(), base.task, name=base.name, rng=0)


def make_update(graph, episodes, seed):
    """A seeded update that touches every session's first candidate."""
    rng = np.random.default_rng(seed)
    anchors = np.array(sorted({int(ep.candidates[0].nodes[0])
                               for ep in episodes}), dtype=np.int64)
    _, _, _, live = graph.live_edges()
    return GraphUpdate(
        add_src=np.concatenate(
            [anchors, rng.integers(0, graph.num_nodes, size=6)]),
        add_dst=rng.integers(0, graph.num_nodes, size=anchors.size + 6),
        add_rel=rng.integers(0, graph.num_relations,
                             size=anchors.size + 6),
        remove_edges=rng.choice(live, size=4, replace=False))


def serve_round(server, episodes, queries):
    for q in queries:
        for i, episode in enumerate(episodes):
            server.submit(f"session-{i}", episode.queries[q])
    return [(r.session_id, r.prediction) for r in server.drain()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="CI scale: fewer pre-training steps")
    steps = 30 if parser.parse_args().fast else 120
    config = GraphPrompterConfig(hidden_dim=24, max_subgraph_nodes=16,
                                 mutable_graph=True)
    dataset = fresh_dataset()
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations, config)
    Pretrainer(model, dataset, PretrainConfig(steps=steps, num_ways=5),
               rng=0).train()
    episodes = [sample_episode(dataset, num_ways=5, num_queries=QUERIES,
                               rng=100 + i) for i in range(NUM_SESSIONS)]

    with tempfile.TemporaryDirectory(prefix="recovery-demo-") as tmp:
        # 1. Durable serving: snapshot on first attach, WAL per update.
        store = PersistentStore(tmp + "/store")
        server = PromptServer(model, dataset, max_batch_size=8, rng=0,
                              persist=store)
        for i, episode in enumerate(episodes):
            server.open_session(f"session-{i}", episode)
        serve_round(server, episodes, range(2))
        server.update_graph(make_update(dataset.graph, episodes, 7))
        serve_round(server, episodes, range(2, 4))
        print(f"served 2 rounds around 1 update; graph version "
              f"{dataset.graph.version}, WAL has {len(store.wal)} records")

        # 2. Crash at the write-ahead point: the next update is durably
        #    logged (fsynced) but the process dies before applying it.
        doomed = make_update(dataset.graph, episodes, 8)
        store.log_update(doomed, base_version=dataset.graph.version)
        print("crashed: 1 update durable but unapplied, sessions lost")

        # 3. Warm-start and prove bit-identity against a reference run
        #    that never crashed (same timeline, update applied normally).
        reference_ds = fresh_dataset()
        reference = PromptServer(model, reference_ds, max_batch_size=8,
                                 rng=0)
        for i, episode in enumerate(episodes):
            reference.open_session(f"session-{i}", episode)
        serve_round(reference, episodes, range(2))
        reference.update_graph(make_update(reference_ds.graph, episodes, 7))
        serve_round(reference, episodes, range(2, 4))
        reference.update_graph(make_update(reference_ds.graph, episodes, 8))
        expected = serve_round(reference, episodes, range(4, 6))

        recovered = PromptServer.restore(
            model, PersistentStore(tmp + "/store"), dataset.task,
            rng=0, max_batch_size=8)
        print(f"recovered: replayed {recovered.last_recovery_replayed} WAL "
              f"records, re-opened {len(recovered.sessions)} sessions, "
              f"graph version {recovered.dataset.graph.version}")
        got = serve_round(recovered, episodes, range(4, 6))
        print(f"post-crash round bit-identical to uninterrupted run: "
              f"{got == expected}")

        # 4. Replica failover: two gateways over one shared store.
        async def failover():
            shared = PersistentStore(tmp + "/fleet")

            def replica(replica_id):
                srv = PromptServer(model, fresh_dataset(),
                                   max_batch_size=8, rng=0, persist=shared)
                return ServingGateway(srv, auto_drain=False)

            rs = ReplicaSet(replica, num_replicas=2, store=shared)
            tenants = [f"tenant-{i}" for i in range(NUM_SESSIONS)]
            for i, tenant in enumerate(tenants):
                rs.open_session(tenant, f"{tenant}-s", episodes[i])
            victim = rs.route(tenants[0])
            inflight = [rs.replicas[victim].submit_nowait(
                f"{tenant}-s", episodes[i].queries[0])
                for i, tenant in enumerate(tenants)
                if rs.route(tenant) == victim]
            settled = rs.kill(victim)
            print(f"killed replica {victim}: {settled} in-flight "
                  f"requests settled with typed Unavailable "
                  f"({sum(not f.result().ok for f in inflight)} not-ok)")
            survivor = 1 - victim
            futures = [rs.replicas[rs.route(tenant)].submit_nowait(
                f"{tenant}-s", episodes[i].queries[1])
                for i, tenant in enumerate(tenants)]
            await rs.replicas[survivor].flush()
            print(f"failover: {sum(f.result().ok for f in futures)}/"
                  f"{len(tenants)} tenants served by replica {survivor}")
            await rs.close()

        asyncio.run(failover())


if __name__ == "__main__":
    main()
