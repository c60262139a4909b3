"""``repro metrics`` — live exposition demo of the observability layer.

Runs a small seeded multi-tenant burst through the full serving stack —
gateway admission → deadline batching → micro-batch encode → per-query
predict — with tracing enabled, then prints the Prometheus text
exposition covering every layer (tenant ledgers, session cache sums,
kernel stage histograms) plus the per-stage latency breakdown of one
sampled trace.

After the burst, a durability mini-cycle runs against the same registry
— WAL-logged update → snapshot → warm-start recovery → a 2-replica
fleet losing one replica — so the exposition also carries the persist
tier's counters (``repro_wal_appends_total``,
``repro_snapshot_writes_total``, ``repro_recovery_*``) and the
:class:`~repro.serving.ReplicaSet` failover/kill counters, with a
recovery-time SLO verdict evaluated from the same snapshots.

The model is deliberately untrained: this command exercises the metrics
plumbing, not prediction quality, so it stays seconds-fast.  Use
``--snapshot`` to write the exposition text to a file (CI's nightly
metrics artifact) and ``--json`` for the raw registry snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os

__all__ = ["metrics_main", "build_metrics_parser"]


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="observability demo: burst + Prometheus exposition",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="smallest workload (CI smoke scale)")
    parser.add_argument(
        "--trace-every", type=int, default=4,
        help="deterministic trace sampling rate, 1-in-N "
             "(default: %(default)s; 0 disables tracing)")
    parser.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="also write the exposition text to PATH")
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="also write the raw registry snapshot as JSON to PATH")
    return parser


def metrics_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro metrics``."""
    args = build_metrics_parser().parse_args(argv)

    import tempfile

    import numpy as np

    from ..core import (
        GraphPrompterConfig,
        GraphPrompterModel,
        sample_episode,
    )
    from ..datasets import EDGE_TASK, Dataset
    from ..datasets.synthetic import synthetic_knowledge_graph
    from ..graph import GraphUpdate
    from ..persist import PersistentStore
    from ..serving import (
        Priority,
        PromptServer,
        ReplicaSet,
        ServingGateway,
    )
    from .bridge import collect, scrape
    from .metrics import MetricsRegistry
    from .slo import RecoveryTimeSLO, SLOSpec, evaluate

    nodes, edges, queries = (200, 1200, 3) if args.fast else (400, 3000, 6)
    graph = synthetic_knowledge_graph(nodes, 6, edges, rng=0,
                                      name="kg-metrics")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=16, max_subgraph_nodes=12,
                                 num_gnn_layers=2, mutable_graph=True)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    registry = MetricsRegistry()
    plan = [
        ("acme", Priority.INTERACTIVE,
         sample_episode(dataset, num_ways=3, num_queries=queries, rng=100)),
        ("globex", Priority.BATCH,
         sample_episode(dataset, num_ways=3, num_queries=queries, rng=101)),
        ("initech", Priority.BACKGROUND,
         sample_episode(dataset, num_ways=3, num_queries=queries, rng=102)),
    ]

    async def durability(store_dir: str) -> dict:
        """WAL → snapshot → recovery → replica kill, all in ``registry``.

        Exercises every PR-7 durability counter so the exposition below
        actually carries them (they register at zero otherwise).
        """
        base = Dataset(graph.rebuild(), EDGE_TASK, rng=0, name="kg-dur")
        store = PersistentStore(store_dir, registry=registry)
        server = PromptServer(model, base, max_batch_size=4, rng=0,
                              persist=store, registry=registry)
        episode = sample_episode(base, num_ways=3, num_queries=2, rng=103)
        server.open_session("durable-0", episode, tenant_id="acme")
        server.submit("durable-0", episode.queries[0])
        server.drain()
        rng = np.random.default_rng(7)
        server.update_graph(GraphUpdate(
            add_src=rng.integers(0, base.graph.num_nodes, size=4),
            add_dst=rng.integers(0, base.graph.num_nodes, size=4),
            add_rel=rng.integers(0, base.graph.num_relations, size=4)))
        server.save_snapshot()
        server.update_graph(GraphUpdate(
            add_src=rng.integers(0, base.graph.num_nodes, size=2),
            add_dst=rng.integers(0, base.graph.num_nodes, size=2),
            add_rel=rng.integers(0, base.graph.num_relations, size=2)))

        # Warm-start from the store: snapshot load + one-record WAL
        # replay + manifest session re-open → recovery counters.
        recovered = PromptServer.restore(
            model, PersistentStore(store_dir, registry=registry),
            base.task, name="kg-dur", rng=0, max_batch_size=4,
            registry=registry)
        replayed = recovered.last_recovery_replayed

        # A 2-replica fleet losing one replica mid-flight → kill +
        # failover counters (tenants re-route to the survivor).
        fleet_store = PersistentStore(os.path.join(store_dir, "fleet"),
                                      registry=registry)

        def factory(replica_id: int) -> ServingGateway:
            replica_data = Dataset(graph.rebuild(), EDGE_TASK, rng=0,
                                   name="kg-fleet")
            replica = PromptServer(model, replica_data, max_batch_size=4,
                                   rng=0, persist=fleet_store,
                                   registry=registry)
            return ServingGateway(replica, auto_drain=False,
                                  registry=registry)

        fleet = ReplicaSet(factory, num_replicas=2, store=fleet_store,
                           registry=registry)
        tenants = ["acme", "globex", "initech"]
        fleet_episodes = {}
        for index, tenant in enumerate(tenants):
            fleet_episodes[tenant] = sample_episode(
                Dataset(graph.rebuild(), EDGE_TASK, rng=0), num_ways=3,
                num_queries=2, rng=110 + index)
            fleet.open_session(tenant, f"{tenant}-s",
                               fleet_episodes[tenant],
                               priority=Priority.INTERACTIVE)
        victim = fleet.route(tenants[0])
        fleet.kill(victim)
        moved = 0
        for tenant in tenants:
            index = fleet.route(tenant)
            future = fleet.replicas[index].submit_nowait(
                f"{tenant}-s", fleet_episodes[tenant].queries[1])
            await fleet.replicas[index].flush()
            if (not isinstance(future, asyncio.Future)
                    or not future.result().ok):
                raise RuntimeError(
                    f"tenant {tenant} was not served after failover")
            moved += 1
        await fleet.close()
        return {"replayed": replayed, "served_after_failover": moved}

    async def burst(store_dir: str) -> tuple:
        server = PromptServer(model, dataset, max_batch_size=8, rng=0,
                              registry=registry)
        gateway = ServingGateway(server, auto_drain=False,
                                 trace_every=args.trace_every,
                                 registry=registry)
        for index, (tenant, priority, episode) in enumerate(plan):
            gateway.open_session(tenant, f"session-{index}", episode,
                                 priority=priority)
        futures = []
        for q in range(queries):
            for index, (_, _, episode) in enumerate(plan):
                futures.append(gateway.submit_nowait(f"session-{index}",
                                                     episode.queries[q]))
            await gateway.flush()
        pre_durability = collect(gateway, registry).snapshot()
        durable = await durability(store_dir)
        # Scraped after the durability cycle: the exposition carries the
        # persist/recovery and replica-fleet counters too.
        text = scrape(gateway)
        traces = gateway.tracer.completed()
        await gateway.close()
        return text, traces, len(futures), durable, pre_durability

    with tempfile.TemporaryDirectory(prefix="repro-metrics-") as tmp:
        text, traces, submitted, durable, pre_durability = asyncio.run(
            burst(tmp))
    print(text, end="")
    print(f"# {submitted} requests served, {len(traces)} traced "
          f"(1-in-{args.trace_every})")
    if traces:
        trace = traces[-1]
        print(f"# trace {trace.trace_id} "
              f"({trace.meta.get('tenant', '?')}, "
              f"{trace.meta.get('priority', '?')}):")
        for name, seconds in trace.stage_seconds().items():
            print(f"#   {name:<16} {seconds * 1e6:9.1f} us")
    # Durability tier summary: the same counters the exposition above
    # carries, plus a recovery-time SLO verdict computed from registry
    # snapshots bracketing the durability cycle.
    recovery_hist = registry.histogram("repro_recovery_seconds")
    print(f"# durability: wal_appends="
          f"{registry.counter('repro_wal_appends_total').sum():.0f} "
          f"snapshot_writes="
          f"{registry.counter('repro_snapshot_writes_total').sum():.0f} "
          f"recovery_replayed={durable['replayed']} "
          f"recovery_mean_ms={recovery_hist.mean() * 1e3:.1f}")
    print(f"# fleet: replica_kills="
          f"{registry.counter('repro_replicaset_kills_total').sum():.0f} "
          f"failovers="
          f"{registry.counter('repro_replicaset_failovers_total').sum():.0f} "
          f"served_after_failover={durable['served_after_failover']}")
    verdict = evaluate(
        SLOSpec(name="durability", objectives=(
            RecoveryTimeSLO(name="recovery-time", threshold_s=30.0),)),
        [pre_durability, registry.snapshot()])
    check = verdict.results[0].check
    print(f"# slo: {check.objective} {'pass' if check.ok else 'FAIL'} "
          f"({check.description}; measured={check.measured:.3f}s, "
          f"{check.detail})")
    if args.snapshot:
        with open(args.snapshot, "w") as handle:
            handle.write(text)
        print(f"# [wrote {args.snapshot}]")
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(registry.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# [wrote {args.json_path}]")
    return 0
