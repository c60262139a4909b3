"""Tests for the durability tier: atomic writes, WAL, snapshots,
manifests, checksummed weights, crash recovery, and replica failover."""

import asyncio
import json
import os
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    PretrainConfig,
    Pretrainer,
    sample_episode,
)
from repro.datasets import Dataset, EDGE_TASK, NODE_TASK
from repro.datasets.synthetic import (
    synthetic_citation_graph,
    synthetic_knowledge_graph,
)
from repro.graph import GraphUpdate
from repro.nn import load_state, save_state
from repro.obs import MetricsRegistry
from repro.obs.metrics import scoped_registry
from repro.persist import (
    SNAPSHOT_SCHEMA,
    CorruptArtifactError,
    PersistentStore,
    SessionManifest,
    SessionManifestStore,
    WriteAheadLog,
    atomic_write,
    checksum_arrays,
    load_snapshot,
    write_snapshot,
)
from repro.persist.wal import update_from_jsonable, update_to_jsonable
from repro.serving import (
    Priority,
    PromptServer,
    ReplicaSet,
    ServingGateway,
    Unavailable,
)
from repro.serving.replicaset import _splitmix64

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def small_graph(rng=0, name="kg-persist"):
    return synthetic_knowledge_graph(200, 6, 1200, rng=rng, name=name)


def seeded_update(graph, rng, num_add=8, num_remove=4, num_new_nodes=0):
    rng = np.random.default_rng(rng)
    total = graph.num_nodes + num_new_nodes
    _, _, _, live = graph.live_edges()
    features = (rng.normal(size=(num_new_nodes, graph.feature_dim))
                if num_new_nodes else None)
    return GraphUpdate(
        add_src=rng.integers(0, total, size=num_add),
        add_dst=rng.integers(0, total, size=num_add),
        add_rel=rng.integers(0, graph.num_relations, size=num_add),
        remove_edges=rng.choice(live, size=num_remove, replace=False),
        add_node_features=features)


# ----------------------------------------------------------------------
# atomic_write
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_and_cleans_up(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with atomic_write(path) as handle:
            handle.write("hello")
        with open(path) as handle:
            assert handle.read() == "hello"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_preserves_previous_contents(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with atomic_write(path) as handle:
            handle.write("v1")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("partial v2")
                raise RuntimeError("crash mid-write")
        with open(path) as handle:
            assert handle.read() == "v1"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_binary_mode(self, tmp_path):
        path = str(tmp_path / "out.bin")
        with atomic_write(path, mode="wb") as handle:
            handle.write(b"\x00\x01\x02")
        with open(path, "rb") as handle:
            assert handle.read() == b"\x00\x01\x02"


# ----------------------------------------------------------------------
# Checksummed module weights (nn.save_state / load_state)
# ----------------------------------------------------------------------
class TestCheckpointChecksums:
    @pytest.fixture()
    def model_and_path(self, tmp_path):
        config = GraphPrompterConfig(hidden_dim=8, num_gnn_layers=1)
        model = GraphPrompterModel(12, 4, config)
        path = str(tmp_path / "model.npz")
        save_state(model, path)
        return config, model, path

    def test_round_trip(self, model_and_path):
        config, model, path = model_and_path
        other = GraphPrompterModel(12, 4, config)
        load_state(other, path)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(other.state_dict()[key], value)

    def test_truncated_file_raises_typed_error(self, model_and_path):
        _, _, path = model_and_path
        config = GraphPrompterConfig(hidden_dim=8, num_gnn_layers=1)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        with pytest.raises(CorruptArtifactError):
            load_state(GraphPrompterModel(12, 4, config), path)

    def test_bit_flip_raises_typed_error(self, model_and_path):
        _, _, path = model_and_path
        config = GraphPrompterConfig(hidden_dim=8, num_gnn_layers=1)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        # Flip a byte deep in the payload (past the zip header).
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(CorruptArtifactError):
            load_state(GraphPrompterModel(12, 4, config), path)

    def test_legacy_file_without_checksum_loads(self, model_and_path):
        config, model, path = model_and_path
        legacy = path + ".legacy.npz"
        np.savez(legacy, **{k: np.asarray(v)
                            for k, v in model.state_dict().items()})
        other = GraphPrompterModel(12, 4, config)
        load_state(other, legacy)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(other.state_dict()[key], value)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_records_round_trip(self, tmp_path):
        graph = small_graph()
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        updates = [seeded_update(graph, 1),
                   seeded_update(graph, 2, num_new_nodes=2)]
        for i, update in enumerate(updates):
            assert wal.append(update, base_version=i) == i
        records = list(wal.records())
        assert [r.seq for r in records] == [0, 1]
        for record, update in zip(records, updates):
            np.testing.assert_array_equal(record.update.add_src,
                                          update.add_src)
            np.testing.assert_array_equal(record.update.remove_edges,
                                          update.remove_edges)
        feats = records[1].update.add_node_features
        np.testing.assert_array_equal(feats, updates[1].add_node_features)
        assert feats.dtype == np.float64  # exact float64 round-trip

    def test_update_jsonable_round_trip_exact(self):
        graph = small_graph()
        update = seeded_update(graph, 3, num_new_nodes=1)
        back = update_from_jsonable(update_to_jsonable(update))
        np.testing.assert_array_equal(back.add_src, update.add_src)
        np.testing.assert_array_equal(back.add_node_features,
                                      update.add_node_features)

    def test_torn_tail_is_dropped(self, tmp_path):
        graph = small_graph()
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        wal.append(seeded_update(graph, 1), base_version=0)
        wal.append(seeded_update(graph, 2), base_version=1)
        with open(wal.path) as handle:
            line = handle.readlines()[-1]
        with open(wal.path, "a") as handle:
            handle.write(line[:len(line) // 2])  # death mid-append
        assert [r.seq for r in wal.records()] == [0, 1]
        # A fresh handle picks the next sequence past the intact tail.
        fresh = WriteAheadLog(wal.path)
        assert fresh.append(seeded_update(graph, 3), base_version=2) == 2

    def test_corruption_before_intact_records_raises(self, tmp_path):
        graph = small_graph()
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        wal.append(seeded_update(graph, 1), base_version=0)
        wal.append(seeded_update(graph, 2), base_version=1)
        with open(wal.path) as handle:
            lines = handle.readlines()
        lines[0] = "{not json at all\n"  # damage *before* an intact record
        with open(wal.path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(CorruptArtifactError):
            list(wal.records())

    def test_crc_mismatch_raises(self, tmp_path):
        graph = small_graph()
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        wal.append(seeded_update(graph, 1), base_version=0)
        wal.append(seeded_update(graph, 2), base_version=1)
        with open(wal.path) as handle:
            lines = handle.readlines()
        first = json.loads(lines[0])
        first["crc"] = (first["crc"] + 1) & 0xFFFFFFFF
        lines[0] = json.dumps(first, sort_keys=True,
                              separators=(",", ":")) + "\n"
        with open(wal.path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(CorruptArtifactError):
            list(wal.records())


    def test_compact_keeps_records_from_the_version_on(self, tmp_path):
        graph = small_graph()
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        updates = [seeded_update(graph, seed) for seed in (1, 2, 3)]
        for version, update in enumerate(updates):
            wal.append(update, base_version=version)
        assert wal.compact(min_base_version=1) == 2
        # A fresh handle reads the kept records with their checksums
        # intact, and numbers its next append past them.
        fresh = WriteAheadLog(wal.path)
        records = fresh.records()
        assert [(r.seq, r.base_version) for r in records] == [(1, 1), (2, 2)]
        for record, update in zip(records, updates[1:]):
            np.testing.assert_array_equal(record.update.add_dst,
                                          update.add_dst)
            np.testing.assert_array_equal(record.update.remove_edges,
                                          update.remove_edges)
        assert fresh.append(updates[0], base_version=3) == 3


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def legacy_snapshot_arrays(graph, wal_seq, owner) -> dict:
    """The archive layout of builds that persisted a shard owner map,
    ``owner`` array included (checksum not yet added)."""
    arrays = {
        "schema": np.array([SNAPSHOT_SCHEMA], dtype=np.int64),
        "meta": np.array([graph.num_nodes, graph.num_relations,
                          graph.version, wal_seq], dtype=np.int64),
        "name": np.frombuffer(graph.name.encode(), dtype=np.uint8).copy(),
        "src": graph.src, "dst": graph.dst, "rel": graph.rel,
        "edge_alive": (graph.edge_alive if graph.edge_alive is not None
                       else np.ones(0, dtype=bool)),
        "node_features": graph.node_features,
        "owner": owner,
    }
    if graph.node_labels is not None:
        arrays["node_labels"] = graph.node_labels
    if graph.relation_features is not None:
        arrays["relation_features"] = graph.relation_features
    return arrays


def save_snapshot_arrays(path, arrays, checksum) -> None:
    np.savez(path, __checksum__=np.array([checksum], dtype=np.uint64),
             **arrays)


def snapshot_arrays(path) -> dict:
    """A snapshot file's arrays, its checksum entry left out."""
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files
                if key != "__checksum__"}


class TestSnapshot:
    def test_round_trip_after_mutation(self, tmp_path):
        graph = small_graph()
        graph.apply_updates(seeded_update(graph, 1, num_new_nodes=2))
        path = str(tmp_path / "snap.npz")
        write_snapshot(path, graph, wal_seq=3)
        restored, wal_seq = load_snapshot(path)
        assert wal_seq == 3
        assert restored.version == graph.version
        np.testing.assert_array_equal(restored.node_features,
                                      graph.node_features)
        for a, b in zip(restored.live_edges(), graph.live_edges()):
            np.testing.assert_array_equal(a, b)

    def test_snapshot_with_legacy_owner_map_loads(self, tmp_path):
        """Snapshots from builds that persisted a shard owner map still
        load: the checksum covers the extra ``owner`` array, so the file
        verifies, and the loader ignores the array."""
        graph = small_graph()
        graph.apply_updates(seeded_update(graph, 1, num_new_nodes=2))
        owner = np.arange(graph.num_nodes, dtype=np.int64) % 2
        arrays = legacy_snapshot_arrays(graph, 3, owner)
        path = str(tmp_path / "legacy.npz")
        save_snapshot_arrays(path, arrays, checksum_arrays(arrays))
        restored, wal_seq = load_snapshot(path)
        assert wal_seq == 3
        assert restored.version == graph.version
        np.testing.assert_array_equal(restored.node_features,
                                      graph.node_features)
        for a, b in zip(restored.live_edges(), graph.live_edges()):
            np.testing.assert_array_equal(a, b)

        # The owner map stays under the checksum: one changed after the
        # file was written fails verification.
        tampered = str(tmp_path / "tampered.npz")
        save_snapshot_arrays(
            tampered, legacy_snapshot_arrays(graph, 3, owner[::-1].copy()),
            checksum_arrays(arrays))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_snapshot(tampered)

    def test_snapshot_without_checksum_is_refused(self, tmp_path):
        path = str(tmp_path / "snap.npz")
        write_snapshot(path, small_graph())
        arrays = snapshot_arrays(path)
        np.savez(path, **arrays)
        with pytest.raises(CorruptArtifactError, match="no checksum"):
            load_snapshot(path)

    def test_snapshot_from_another_schema_is_refused(self, tmp_path):
        """A verified file is still refused when this build does not read
        its schema."""
        path = str(tmp_path / "snap.npz")
        write_snapshot(path, small_graph())
        arrays = snapshot_arrays(path)
        arrays["schema"] = np.array([SNAPSHOT_SCHEMA + 1], dtype=np.int64)
        save_snapshot_arrays(path, arrays, checksum_arrays(arrays))
        with pytest.raises(CorruptArtifactError, match="schema"):
            load_snapshot(path)

    def test_corruption_raises_typed_error(self, tmp_path):
        graph = small_graph()
        path = str(tmp_path / "snap.npz")
        write_snapshot(path, graph)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(CorruptArtifactError):
            load_snapshot(path)

    def test_truncation_raises_typed_error(self, tmp_path):
        graph = small_graph()
        path = str(tmp_path / "snap.npz")
        write_snapshot(path, graph)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 3])
        with pytest.raises(CorruptArtifactError):
            load_snapshot(path)

    def test_missing_snapshot_raises(self, tmp_path):
        store = PersistentStore(str(tmp_path / "store"))
        with pytest.raises(CorruptArtifactError):
            store.load_graph()


# ----------------------------------------------------------------------
# Session manifests
# ----------------------------------------------------------------------
class TestSessionManifests:
    def test_round_trip_preserves_order_and_fields(self, tmp_path):
        graph = small_graph()
        dataset = Dataset(graph, EDGE_TASK, rng=0)
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=1)
        store = SessionManifestStore(str(tmp_path / "sessions"))
        from repro.persist import episode_to_jsonable
        for index, sid in enumerate(["b", "a"]):
            store.write(SessionManifest(
                session_id=sid, open_index=index, shots=3,
                graph_version=0, episode=episode_to_jsonable(episode),
                tenant_id=f"tenant-{sid}",
                priority=int(Priority.BATCH)))
        loaded = store.load_all()
        assert [m.session_id for m in loaded] == ["b", "a"]  # open order
        assert loaded[0].tenant_id == "tenant-b"
        assert loaded[0].priority == int(Priority.BATCH)
        assert store.next_open_index() == 2
        store.remove("b")
        assert [m.session_id for m in store.load_all()] == ["a"]

    def test_corrupt_manifest_raises(self, tmp_path):
        store = SessionManifestStore(str(tmp_path / "sessions"))
        path = os.path.join(str(tmp_path / "sessions"),
                            "session-ff.json")
        with open(path, "w") as handle:
            handle.write('{"session_id": "ff", trunc')
        with pytest.raises(CorruptArtifactError):
            store.load_all()


# ----------------------------------------------------------------------
# PersistentStore: replay semantics
# ----------------------------------------------------------------------
class TestPersistentStoreReplay:
    def test_duplicate_delivery_is_a_noop(self, tmp_path):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            graph = small_graph()
            store = PersistentStore(str(tmp_path / "store"))
            store.initialize(graph)
            update = seeded_update(graph, 1)
            # The same update delivered twice (e.g. a retried producer).
            store.log_update(update, base_version=graph.version)
            store.log_update(update, base_version=graph.version)
            recovered, replayed = store.recover()
        assert replayed == 1  # the duplicate is skipped, not re-applied
        reference = small_graph()
        reference.apply_updates(seeded_update(reference, 1))
        assert recovered.version == reference.version
        for a, b in zip(recovered.live_edges(), reference.live_edges()):
            np.testing.assert_array_equal(a, b)

    def test_replay_is_idempotent_over_recovered_graph(self, tmp_path):
        graph = small_graph()
        store = PersistentStore(str(tmp_path / "store"))
        store.initialize(graph)
        store.log_update(seeded_update(graph, 1), base_version=0)
        recovered, replayed = store.recover()
        assert replayed == 1
        # Replaying the whole log again over the same graph applies none.
        assert store.replay_records(recovered) == 0

    def test_record_ahead_of_graph_raises(self, tmp_path):
        graph = small_graph()
        store = PersistentStore(str(tmp_path / "store"))
        store.initialize(graph)
        store.log_update(seeded_update(graph, 1), base_version=7)
        with pytest.raises(CorruptArtifactError):
            store.recover()

    def test_legacy_snapshot_recovers_with_replay(self, tmp_path):
        """A store whose snapshot an older build wrote, owner map and all,
        still recovers: the snapshot loads and the log replays over it."""
        graph = small_graph()
        store = PersistentStore(str(tmp_path / "store"))
        arrays = legacy_snapshot_arrays(
            graph, 0, np.zeros(graph.num_nodes, dtype=np.int64))
        save_snapshot_arrays(store.snapshot_path, arrays,
                             checksum_arrays(arrays))
        update = seeded_update(graph, 1, num_new_nodes=2)
        store.log_update(update, base_version=graph.version)
        recovered, replayed = store.recover()
        assert replayed == 1
        graph.apply_updates(update)
        assert recovered.version == graph.version
        np.testing.assert_array_equal(recovered.node_features,
                                      graph.node_features)
        for a, b in zip(recovered.live_edges(), graph.live_edges()):
            np.testing.assert_array_equal(a, b)

    def test_snapshot_compacts_wal(self, tmp_path):
        graph = small_graph()
        store = PersistentStore(str(tmp_path / "store"))
        store.initialize(graph)
        update = seeded_update(graph, 1)
        store.log_update(update, base_version=graph.version)
        graph.apply_updates(update)
        assert len(store.wal) == 1
        store.save_snapshot(graph)
        assert len(store.wal) == 0  # absorbed records dropped
        recovered, replayed = store.recover()
        assert replayed == 0 and recovered.version == graph.version


# ----------------------------------------------------------------------
# Real kill -9 at the write-ahead point (graph + WAL level)
# ----------------------------------------------------------------------
CRASH_CHILD = """
import os, signal, numpy as np
from repro.datasets.synthetic import synthetic_knowledge_graph
from repro.graph import GraphUpdate
from repro.persist import PersistentStore

graph = synthetic_knowledge_graph(120, 5, 600, rng=0, name="kg-crash")
store = PersistentStore({store_dir!r})
store.initialize(graph)

def update(seed):
    rng = np.random.default_rng(seed)
    _, _, _, live = graph.live_edges()
    return GraphUpdate(
        add_src=rng.integers(0, graph.num_nodes, size=6),
        add_dst=rng.integers(0, graph.num_nodes, size=6),
        add_rel=rng.integers(0, graph.num_relations, size=6),
        remove_edges=rng.choice(live, size=3, replace=False))

u1 = update(1)
store.log_update(u1, base_version=graph.version)
graph.apply_updates(u1)
u2 = update(2)
store.log_update(u2, base_version=graph.version)
os.kill(os.getpid(), signal.SIGKILL)  # crash before applying u2
"""


class TestKillNineRecovery:
    def test_recover_after_sigkill_matches_uninterrupted(self, tmp_path):
        store_dir = str(tmp_path / "store")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get(
            "PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c",
             CRASH_CHILD.format(store_dir=store_dir)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr[-2000:]

        recovered, replayed = PersistentStore(store_dir).recover()
        assert replayed == 2  # u1 and the durable-but-unapplied u2

        reference = synthetic_knowledge_graph(120, 5, 600, rng=0,
                                              name="kg-crash")
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            _, _, _, live = reference.live_edges()
            reference.apply_updates(GraphUpdate(
                add_src=rng.integers(0, reference.num_nodes, size=6),
                add_dst=rng.integers(0, reference.num_nodes, size=6),
                add_rel=rng.integers(0, reference.num_relations, size=6),
                remove_edges=rng.choice(live, size=3, replace=False)))
        assert recovered.version == reference.version
        np.testing.assert_array_equal(recovered.node_features,
                                      reference.node_features)
        for a, b in zip(recovered.live_edges(), reference.live_edges()):
            np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# Server-level crash recovery (bit-identical serving)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    """A briefly pre-trained model + dataset for recovery tests."""
    graph = synthetic_knowledge_graph(300, 8, 2400, rng=0, name="kg-dur")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=12, max_subgraph_nodes=10,
                                 num_gnn_layers=2, mutable_graph=True)
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations, config)
    Pretrainer(model, dataset, PretrainConfig(steps=60, num_ways=4),
               rng=0).train()
    return config, model


def fresh_workload(config, seed=0, num_sessions=2, num_queries=6):
    graph = synthetic_knowledge_graph(300, 8, 2400, rng=0, name="kg-dur")
    dataset = Dataset(graph, EDGE_TASK, rng=seed)
    episodes = [sample_episode(dataset, num_ways=3,
                               num_queries=num_queries, rng=seed * 50 + i)
                for i in range(num_sessions)]
    return dataset, episodes


def touching_update(graph, episodes, seed):
    """An update whose added edges hit every episode's first candidate."""
    rng = np.random.default_rng(seed)
    seeds = np.array(sorted({int(ep.candidates[0].nodes[0])
                             for ep in episodes}), dtype=np.int64)
    _, _, _, live = graph.live_edges()
    return GraphUpdate(
        add_src=np.concatenate(
            [seeds, rng.integers(0, graph.num_nodes, size=4)]),
        add_dst=rng.integers(0, graph.num_nodes, size=seeds.size + 4),
        add_rel=rng.integers(0, graph.num_relations, size=seeds.size + 4),
        remove_edges=rng.choice(live, size=3, replace=False))


class TestServerRecovery:
    def test_restore_is_bit_identical(self, served, tmp_path):
        config, model = served
        kwargs = dict(max_batch_size=4, rng=11)

        def timeline(server, episodes):
            """Rounds 0-1 around one applied update; returns the update
            that is durable but (on the doomed side) never applied."""
            for i, episode in enumerate(episodes):
                server.open_session(f"s{i}", episode)
            graph = server.dataset.graph
            for q in (0, 1):
                for i, episode in enumerate(episodes):
                    server.submit(f"s{i}", episode.queries[q])
            server.drain()
            server.update_graph(touching_update(graph, episodes, 5))
            for i, episode in enumerate(episodes):
                server.submit(f"s{i}", episode.queries[2])
            server.drain()
            return touching_update(graph, episodes, 6)

        def final_round(server, episodes):
            for q in (3, 4):
                for i, episode in enumerate(episodes):
                    server.submit(f"s{i}", episode.queries[q])
            return [(r.session_id, r.prediction, r.confidence)
                    for r in server.drain()]

        # Doomed run: log the second update, crash before applying.
        dataset, episodes = fresh_workload(config)
        store = PersistentStore(str(tmp_path / "store"))
        doomed = PromptServer(model, dataset, persist=store, **kwargs)
        unapplied = timeline(doomed, episodes)
        store.log_update(unapplied,
                         base_version=doomed.dataset.graph.version)

        # Uninterrupted reference: same timeline, update applied.
        ref_dataset, ref_episodes = fresh_workload(config)
        reference = PromptServer(model, ref_dataset, **kwargs)
        reference.update_graph(timeline(reference, ref_episodes))
        expected = final_round(reference, ref_episodes)

        recovered = PromptServer.restore(
            model, PersistentStore(str(tmp_path / "store")), EDGE_TASK,
            **kwargs)
        assert recovered.last_recovery_replayed == 2
        assert len(recovered.sessions) == len(episodes)
        got = final_round(recovered, ref_episodes)
        assert got == expected

    def test_restore_from_corrupt_snapshot_raises(self, served, tmp_path):
        config, model = served
        dataset, episodes = fresh_workload(config)
        store = PersistentStore(str(tmp_path / "store"))
        server = PromptServer(model, dataset, persist=store, rng=1)
        server.open_session("s0", episodes[0])
        with open(store.snapshot_path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0xFF
        with open(store.snapshot_path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(CorruptArtifactError):
            PromptServer.restore(model, PersistentStore(store.directory),
                                 EDGE_TASK, rng=1)


    def test_refused_update_is_not_logged(self, served, tmp_path):
        """A batch the graph refuses leaves the graph, the WAL, the memo
        and the session as they were, and the store still restores."""
        config, model = served
        dataset, episodes = fresh_workload(config, num_sessions=1)
        store = PersistentStore(str(tmp_path / "store"))
        server = PromptServer(model, dataset, persist=store, rng=1)
        server.open_session("s0", episodes[0])
        graph = server.dataset.graph
        seed = int(episodes[0].candidates[0].nodes[0])
        before = (graph.version, graph.num_edges, len(store.wal),
                  len(server.memo))
        with pytest.raises(ValueError, match="duplicate"):
            server.update_graph(GraphUpdate(
                add_src=[seed], add_dst=[seed], remove_edges=[0, 0]))
        assert (graph.version, graph.num_edges, len(store.wal),
                len(server.memo)) == before
        assert not server.sessions.get("s0").stale
        restored = PromptServer.restore(
            model, PersistentStore(store.directory), EDGE_TASK, rng=1)
        assert restored.last_recovery_replayed == 0
        assert restored.dataset.graph.version == graph.version

    def test_save_snapshot_requires_a_store(self, served):
        config, model = served
        dataset, _ = fresh_workload(config)
        server = PromptServer(model, dataset, rng=1)
        with pytest.raises(RuntimeError, match="PersistentStore"):
            server.save_snapshot()

    def test_save_snapshot_checkpoints_and_compacts(self, served, tmp_path):
        """A server checkpoint holds every applied update, so the log
        behind it is dropped and a recovery replays nothing."""
        config, model = served
        dataset, episodes = fresh_workload(config)
        store = PersistentStore(str(tmp_path / "store"))
        server = PromptServer(model, dataset, persist=store, rng=1)
        graph = server.dataset.graph
        for seed in (5, 6):
            server.update_graph(touching_update(graph, episodes, seed))
        assert len(store.wal) == 2
        assert server.save_snapshot() == graph.version
        assert len(store.wal) == 0
        recovered, replayed = PersistentStore(store.directory).recover()
        assert replayed == 0 and recovered.version == graph.version
        for a, b in zip(recovered.live_edges(), graph.live_edges()):
            np.testing.assert_array_equal(a, b)

    def test_node_task_server_restores(self, tmp_path):
        """A node-classification server's snapshot keeps the node labels,
        its log keeps an update's new labels and its manifests keep node
        datapoints: the restored server answers as the live one does."""
        graph = synthetic_citation_graph(200, 3, feature_dim=6, rng=0)
        dataset = Dataset(graph, NODE_TASK, rng=0)
        config = GraphPrompterConfig(hidden_dim=8, max_subgraph_nodes=8,
                                     mutable_graph=True)
        model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                                   config)
        model.eval()
        episodes = [sample_episode(dataset, num_ways=3, num_queries=4,
                                   rng=i) for i in range(2)]
        store = PersistentStore(str(tmp_path / "store"))
        live = PromptServer(model, dataset, persist=store, max_batch_size=4,
                            rng=3)
        for i, episode in enumerate(episodes):
            live.open_session(f"s{i}", episode)
        update = seeded_update(graph, 2, num_new_nodes=1)
        live.update_graph(GraphUpdate(
            add_src=update.add_src, add_dst=update.add_dst,
            add_rel=update.add_rel, remove_edges=update.remove_edges,
            add_node_features=update.add_node_features,
            add_node_labels=[2]))
        assert graph.node_labels[-1] == 2

        restored = PromptServer.restore(
            model, PersistentStore(store.directory), NODE_TASK,
            max_batch_size=4, rng=3)
        assert restored.last_recovery_replayed == 1
        np.testing.assert_array_equal(restored.dataset.graph.node_labels,
                                      graph.node_labels)
        answers = {}
        for name, server in (("live", live), ("restored", restored)):
            for q in range(4):
                for i, episode in enumerate(episodes):
                    server.submit(f"s{i}", episode.queries[q])
            answers[name] = [(r.session_id, r.prediction, r.confidence)
                             for r in server.drain()]
        assert answers["restored"] == answers["live"]


class TestSessionManifestLifecycle:
    """A persisted server keeps one manifest per open session: a session
    that is closed, evicted or expired takes its manifest with it, so a
    restore never re-opens a session the live server had dropped."""

    @pytest.mark.parametrize("leave", ["close", "evict", "expire"])
    def test_departed_session_leaves_no_manifest(self, served, tmp_path,
                                                 leave):
        config, model = served
        dataset, episodes = fresh_workload(config, num_sessions=3)
        now = [0.0]
        store = PersistentStore(str(tmp_path / "store"))
        server = PromptServer(
            model, dataset, persist=store, rng=1,
            session_capacity=2 if leave == "evict" else 8,
            session_ttl_s=10.0 if leave == "expire" else None,
            clock=lambda: now[0])
        server.open_session("s0", episodes[0])
        now[0] = 5.0
        server.open_session("s1", episodes[1])
        if leave == "close":
            server.close_session("s0")
        elif leave == "evict":
            server.open_session("s2", episodes[2])  # s0 is least recent
        else:
            now[0] = 12.0  # s0 idle past its TTL, s1 not
            assert server.step() == []
        kept = ["s1", "s2"] if leave == "evict" else ["s1"]
        assert sorted(s.session_id for s in server.sessions.states()) == kept
        assert [m.session_id for m in store.sessions.load_all()] == kept
        restored = PromptServer.restore(
            model, PersistentStore(store.directory), EDGE_TASK, rng=1)
        assert sorted(s.session_id
                      for s in restored.sessions.states()) == kept


# ----------------------------------------------------------------------
# ReplicaSet routing and failover
# ----------------------------------------------------------------------
class TestReplicaSetHomeReplica:
    def test_splitmix64_first_output(self):
        """The first SplitMix64 output for seed 0."""
        assert int(_splitmix64(np.array([0], dtype=np.uint64))[0]) == (
            0xE220A8397B1DCDAF)

    @pytest.mark.parametrize("num_replicas, homes", [
        (2, {"tenant-0": 0, "tenant-1": 0, "tenant-2": 0, "alpha": 0,
             "beta": 1}),
        (3, {"tenant-0": 2, "tenant-1": 2, "tenant-2": 1, "alpha": 0,
             "beta": 0}),
        (4, {"tenant-0": 2, "tenant-1": 2, "tenant-2": 2, "alpha": 0,
             "beta": 3}),
    ])
    def test_home_replica_is_pinned(self, num_replicas, homes):
        """Tenant placement is a pure hash of the tenant id: these homes
        must not move, or a restarted fleet routes tenants elsewhere."""
        def factory(replica_id):
            return SimpleNamespace(server=SimpleNamespace(persist=None),
                                   closed=False)

        rs = ReplicaSet(factory, num_replicas=num_replicas)
        assert {tenant: rs.home_replica(tenant)
                for tenant in homes} == homes

    def test_needs_at_least_one_replica(self):
        def factory(replica_id):
            raise AssertionError("no replica may be built")

        with pytest.raises(ValueError, match="at least 1"):
            ReplicaSet(factory, num_replicas=0)


class TestReplicaSetFailover:
    def test_kill_settles_inflight_and_survivor_serves(self, served,
                                                       tmp_path):
        config, model = served
        store = PersistentStore(str(tmp_path / "store"))
        _, episodes = fresh_workload(config, num_sessions=3)
        tenants = [f"tenant-{i}" for i in range(3)]

        def factory(replica_id):
            dataset, _ = fresh_workload(config)
            server = PromptServer(model, dataset, max_batch_size=4,
                                  rng=11, persist=store)
            return ServingGateway(server, auto_drain=False)

        async def main():
            rs = ReplicaSet(factory, num_replicas=2, store=store)
            for i, tenant in enumerate(tenants):
                rs.open_session(tenant, f"{tenant}-s", episodes[i])
            victim = rs.route(tenants[0])
            inflight = [
                rs.replicas[victim].submit_nowait(
                    f"{tenant}-s", episodes[i].queries[0])
                for i, tenant in enumerate(tenants)
                if rs.route(tenant) == victim]
            settled = rs.kill(victim)
            assert settled == len(inflight)
            for future in inflight:
                assert future.done()
                assert isinstance(future.result(), Unavailable)
            assert rs.healthy_replicas() == [1 - victim]
            # Every tenant re-routes and is served by the survivor
            # (auto_drain is off, so flush the survivor explicitly).
            survivor = 1 - victim
            futures = []
            for i, tenant in enumerate(tenants):
                assert rs.route(tenant) == survivor
                futures.append(rs.replicas[survivor].submit_nowait(
                    f"{tenant}-s", episodes[i].queries[1]))
            await asyncio.wait_for(rs.replicas[survivor].flush(),
                                   timeout=60)
            assert all(f.done() and f.result().ok for f in futures)
            assert all(rs.route(t) == 1 - victim for t in tenants)
            await rs.close()

        asyncio.run(main())

    def test_submit_follows_the_tenant_through_failover(self, served,
                                                        tmp_path):
        """``submit`` routes by the session's tenant: to its home replica,
        then, once that replica is killed, to the survivor, which re-opens
        the session from the shared manifests and answers as the home
        replica did.  Leaving ``async with`` closes every replica."""
        config, model = served
        store = PersistentStore(str(tmp_path / "store"))
        _, episodes = fresh_workload(config, num_sessions=1)
        query = episodes[0].queries[0]

        def factory(replica_id):
            dataset, _ = fresh_workload(config)
            server = PromptServer(model, dataset, max_batch_size=4,
                                  rng=11, persist=store)
            return ServingGateway(server, max_wait_s=0.0)

        async def main():
            async with ReplicaSet(factory, num_replicas=2,
                                  store=store) as rs:
                rs.open_session("alpha", "alpha-s", episodes[0])
                home = rs.route("alpha")
                first = await asyncio.wait_for(
                    rs.submit("alpha-s", query), timeout=60)
                rs.kill(home)
                second = await asyncio.wait_for(
                    rs.submit("alpha-s", query), timeout=60)
                assert first.ok and second.ok
                assert second.prediction == first.prediction
                assert "alpha-s" in rs.replicas[1 - home].server.sessions
                with pytest.raises(KeyError):
                    await rs.submit("never-opened", query)
            assert rs.healthy_replicas() == []

        asyncio.run(main())

    @pytest.mark.parametrize("persisted", [True, False],
                             ids=["shared-store", "in-memory"])
    def test_fleet_with_no_healthy_replica_refuses_work(self, served,
                                                       tmp_path, persisted):
        config, model = served
        store = (PersistentStore(str(tmp_path / "store")) if persisted
                 else None)

        def factory(replica_id):
            dataset, _ = fresh_workload(config)
            server = PromptServer(model, dataset, max_batch_size=4,
                                  rng=11, persist=store)
            return ServingGateway(server, auto_drain=False)

        async def main():
            rs = ReplicaSet(factory, num_replicas=2, store=store)
            graph = rs.replicas[0].server.dataset.graph
            version = graph.version
            for replica_id in range(2):
                rs.kill(replica_id)
            with pytest.raises(RuntimeError, match="no healthy replica"):
                rs.route("alpha")
            with pytest.raises(RuntimeError, match="no healthy replica"):
                await rs.update_graph(GraphUpdate(add_src=[0], add_dst=[1]))
            assert graph.version == version
            if store is not None:
                assert len(store.wal) == 0

        asyncio.run(main())

    def test_update_logged_once_and_fanned_out(self, served, tmp_path):
        config, model = served
        store = PersistentStore(str(tmp_path / "store"))
        _, episodes = fresh_workload(config, num_sessions=1)

        def factory(replica_id):
            dataset, _ = fresh_workload(config)
            server = PromptServer(model, dataset, max_batch_size=4,
                                  rng=11, persist=store)
            return ServingGateway(server, auto_drain=False)

        async def main():
            rs = ReplicaSet(factory, num_replicas=2, store=store)
            graph = rs.replicas[0].server.dataset.graph
            await rs.update_graph(touching_update(graph, episodes, 5))
            versions = {g.server.dataset.graph.version
                        for g in rs.replicas}
            assert versions == {graph.version}  # fleet version-aligned
            assert len(store.wal) == 1  # logged exactly once
            await rs.close()

        asyncio.run(main())

    def test_refused_update_is_not_logged(self, served, tmp_path):
        config, model = served
        store = PersistentStore(str(tmp_path / "store"))

        def factory(replica_id):
            dataset, _ = fresh_workload(config)
            server = PromptServer(model, dataset, max_batch_size=4,
                                  rng=11, persist=store)
            return ServingGateway(server, auto_drain=False)

        async def main():
            rs = ReplicaSet(factory, num_replicas=2, store=store)
            versions = [g.server.dataset.graph.version for g in rs.replicas]
            with pytest.raises(ValueError, match="duplicate"):
                await rs.update_graph(GraphUpdate(
                    add_src=[0], add_dst=[1], remove_edges=[0, 0]))
            assert len(store.wal) == 0
            assert [g.server.dataset.graph.version
                    for g in rs.replicas] == versions
            await rs.close()

        asyncio.run(main())
