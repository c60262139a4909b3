"""Observability demo: live metrics + sampled traces during a burst.

One :class:`repro.obs.MetricsRegistry` instruments the whole stack —
gateway queue waits, server batch histograms, kernel stage profiles —
and this demo watches it move:

1. a mixed-priority burst runs through :class:`ServingGateway` with
   1-in-2 request tracing switched on;
2. **mid-burst** the request counts are printed from the tenant ledgers
   (``gateway.stats``, which own them) next to the live stage
   histograms (no scrape endpoint needed);
3. after the burst, the full Prometheus exposition is rendered via
   :func:`repro.obs.scrape` and one sampled trace's per-stage latency
   breakdown (admission → queue → encode → predict → total) is shown;
4. a durability mini-cycle (WAL-logged graph updates → snapshot →
   warm-start recovery → a replica kill with tenant failover) runs in
   the same registry so the persist-tier counters
   (``repro_wal_appends_total``, ``repro_snapshot_writes_total``,
   ``repro_recovery_*``, ``repro_replicaset_*``) are live too.

Tracing is sampled with a counter, not an RNG, so the predictions here
are bit-identical to running the same burst untraced.

Run:  python examples/observability_demo.py      (~1 min; --fast for CI)
"""

import argparse
import asyncio
import os
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
from repro.obs import MetricsRegistry, scrape
from repro.persist import PersistentStore
from repro.serving import (
    Priority,
    PromptServer,
    ReplicaSet,
    ServingGateway,
)

QUERIES = 6
TENANTS = [
    ("dashboard", Priority.INTERACTIVE),
    ("reports", Priority.BATCH),
    ("crawler", Priority.BACKGROUND),
]


def print_snapshot(gateway, registry, round_id):
    """A compact mid-burst view: ledger counts, live stage histograms."""
    tenants = gateway.stats.tenants
    stage = registry.histogram("repro_stage_seconds")
    print(f"   [after round {round_id}] "
          f"submitted={sum(t.submitted for t in tenants)} "
          f"completed={sum(t.completed for t in tenants)} "
          f"encode_mean={1e3 * stage.mean(stage='encode'):.2f}ms "
          f"sample_mean={1e3 * stage.mean(stage='sample'):.2f}ms")


async def main_async(model, dataset, episodes):
    registry = MetricsRegistry()
    server = PromptServer(model, dataset, max_batch_size=8, rng=0,
                          registry=registry)
    gateway = ServingGateway(server, max_batch_size=8, auto_drain=False,
                             trace_every=2, registry=registry)
    for (tenant, priority), episode in zip(TENANTS, episodes):
        gateway.open_session(tenant, f"{tenant}-s", episode,
                             priority=priority)

    print(f"\n1. burst: {QUERIES} rounds x {len(TENANTS)} tenants, "
          f"tracing 1-in-2 …")
    futures = []
    for q in range(QUERIES):
        for (tenant, _), episode in zip(TENANTS, episodes):
            futures.append(gateway.submit_nowait(f"{tenant}-s",
                                                 episode.queries[q]))
        await gateway.flush()
        if q % 2 == 1:
            print_snapshot(gateway, registry, q + 1)  # 2. mid-burst
    answered = sum(f.result().ok for f in futures)
    print(f"   {answered}/{len(futures)} answered ok")

    print("\n3. Prometheus exposition (first 14 lines of the scrape):")
    for line in scrape(gateway, registry).splitlines()[:14]:
        print(f"   {line}")

    tracer = gateway.tracer
    print(f"\n4. traces: {tracer.sampled}/{tracer.seen} requests sampled")
    trace = tracer.completed()[-1]
    print(f"   {trace.trace_id} ({trace.meta['tenant']}, "
          f"{trace.meta['priority']}, outcome={trace.meta['outcome']}):")
    for stage, seconds in trace.stage_seconds().items():
        print(f"     {stage:<16} {1e6 * seconds:>9.1f} us")
    await gateway.close()
    await durability_cycle(registry, model, dataset)


async def durability_cycle(registry, model, dataset):
    """WAL → snapshot → recovery → replica failover, counters printed.

    Same registry as the burst, so the persist-tier series sit next to
    the gateway ones — exactly how a production scrape would see them.
    """
    print("\n5. durability: WAL → snapshot → recovery → replica kill …")
    with tempfile.TemporaryDirectory(prefix="repro-demo-") as tmp:
        base = Dataset(dataset.graph.rebuild(), dataset.task, rng=0,
                       name="kg-demo")
        store = PersistentStore(tmp, registry=registry)
        server = PromptServer(model, base, max_batch_size=4, rng=0,
                              persist=store, registry=registry)
        episode = sample_episode(base, num_ways=5, num_queries=2, rng=42)
        server.open_session("durable", episode, tenant_id="dashboard")
        rng = np.random.default_rng(11)
        server.update_graph(GraphUpdate(
            add_src=rng.integers(0, base.graph.num_nodes, size=4),
            add_dst=rng.integers(0, base.graph.num_nodes, size=4),
            add_rel=rng.integers(0, base.graph.num_relations, size=4)))
        server.save_snapshot()
        server.update_graph(GraphUpdate(
            add_src=rng.integers(0, base.graph.num_nodes, size=2),
            add_dst=rng.integers(0, base.graph.num_nodes, size=2),
            add_rel=rng.integers(0, base.graph.num_relations, size=2)))
        recovered = PromptServer.restore(
            model, PersistentStore(tmp, registry=registry), base.task,
            name="kg-demo", rng=0, max_batch_size=4, registry=registry)
        replayed = recovered.last_recovery_replayed

        fleet_store = PersistentStore(os.path.join(tmp, "fleet"),
                                      registry=registry)

        def factory(replica_id):
            replica_data = Dataset(dataset.graph.rebuild(), dataset.task,
                                   rng=0, name="kg-demo-fleet")
            replica = PromptServer(model, replica_data, max_batch_size=4,
                                   rng=0, persist=fleet_store,
                                   registry=registry)
            return ServingGateway(replica, auto_drain=False,
                                  registry=registry)

        fleet = ReplicaSet(factory, num_replicas=2, store=fleet_store,
                           registry=registry)
        episodes = {}
        for index, (tenant, priority) in enumerate(TENANTS):
            episodes[tenant] = sample_episode(base, num_ways=5,
                                              num_queries=2,
                                              rng=50 + index)
            fleet.open_session(tenant, f"{tenant}-d", episodes[tenant],
                               priority=priority)
        fleet.kill(fleet.route(TENANTS[0][0]))
        served = 0
        for tenant, _ in TENANTS:
            gateway = fleet.replicas[fleet.route(tenant)]
            future = gateway.submit_nowait(f"{tenant}-d",
                                           episodes[tenant].queries[1])
            await gateway.flush()
            served += bool(isinstance(future, asyncio.Future)
                           and future.result().ok)
        await fleet.close()

    def total(name):
        return registry.counter(name).sum()

    recovery = registry.histogram("repro_recovery_seconds")
    print(f"   wal_appends={total('repro_wal_appends_total'):.0f} "
          f"snapshot_writes={total('repro_snapshot_writes_total'):.0f} "
          f"recovery_replayed={replayed} "
          f"recovery_mean_ms={1e3 * recovery.mean():.1f}")
    print(f"   replica_kills={total('repro_replicaset_kills_total'):.0f} "
          f"failovers={total('repro_replicaset_failovers_total'):.0f} "
          f"served_after_failover={served}/{len(TENANTS)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="CI scale: fewer pre-training steps")
    steps = 30 if parser.parse_args().fast else 200
    config = GraphPrompterConfig(hidden_dim=24, max_subgraph_nodes=16,
                                 mutable_graph=True)
    wiki = load_dataset("wiki")
    nell = load_dataset("nell")

    print("pre-training on", wiki.name, "…")
    model = GraphPrompterModel(wiki.graph.feature_dim,
                               wiki.graph.num_relations, config)
    Pretrainer(model, wiki, PretrainConfig(steps=steps, num_ways=8),
               rng=0).train()
    target = GraphPrompterModel(nell.graph.feature_dim,
                                nell.graph.num_relations, config)
    target.load_state_dict(model.state_dict())

    dataset = Dataset(nell.graph, nell.task, rng=0)
    episodes = [sample_episode(dataset, num_ways=5, num_queries=QUERIES,
                               rng=10 + i)
                for i in range(len(TENANTS))]
    asyncio.run(main_async(target, dataset, episodes))


if __name__ == "__main__":
    main()
