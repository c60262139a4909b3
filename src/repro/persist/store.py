"""PersistentStore: one directory holding a server's durable state.

Layout (all writes atomic, all reads checksum-verified)::

    <dir>/snapshot.npz   — latest graph snapshot
    <dir>/wal.jsonl      — GraphUpdate log since (and across) snapshots
    <dir>/sessions/      — one manifest per open session

The contract the serving layer builds on: ``log_update`` is called (and
fsyncs) *before* the update is applied in memory, ``save_snapshot`` is
called only when the in-memory graph is quiescent, and ``recover`` returns
``snapshot + ordered replay`` — a graph whose reads are bit-identical to
the crashed process's live state.  Several replicas may share one store
read-only; exactly one writer (the primary, or the
:class:`~repro.serving.replicaset.ReplicaSet` front) logs updates.

Observability: appends, snapshot writes, and recovery (records replayed,
wall time) are counted in the ambient metrics registry.
"""

from __future__ import annotations

import os
import time

from ..graph.delta import GraphUpdate
from ..graph.graph import Graph
from ..obs.metrics import get_registry
from .atomic import CorruptArtifactError
from .manifest import SessionManifestStore
from .snapshot import load_snapshot, write_snapshot
from .wal import WriteAheadLog

__all__ = ["PersistentStore"]


class PersistentStore:
    """Snapshot + WAL + session manifests under one directory."""

    def __init__(self, directory: str, registry=None):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.snapshot_path = os.path.join(directory, "snapshot.npz")
        self.wal = WriteAheadLog(os.path.join(directory, "wal.jsonl"))
        self.sessions = SessionManifestStore(
            os.path.join(directory, "sessions"))
        self.obs = registry if registry is not None else get_registry()
        self._m_appends = self.obs.counter(
            "repro_wal_appends_total",
            "GraphUpdate records durably appended to the WAL.")
        self._m_snapshots = self.obs.counter(
            "repro_snapshot_writes_total",
            "Graph snapshots written (atomic, checksummed).")
        self._m_replayed = self.obs.counter(
            "repro_recovery_replayed_total",
            "WAL records applied during recovery replays.")
        self._m_recovery_s = self.obs.histogram(
            "repro_recovery_seconds",
            "Wall time of snapshot-load + WAL-replay recoveries.")

    # ------------------------------------------------------------------
    def has_snapshot(self) -> bool:
        return os.path.exists(self.snapshot_path)

    def initialize(self, graph: Graph) -> None:
        """Write the baseline snapshot once (no-op when one exists)."""
        if not self.has_snapshot():
            self.save_snapshot(graph)

    def log_update(self, update: GraphUpdate, base_version: int) -> int:
        """Durably append one update record; call *before* applying."""
        seq = self.wal.append(update, base_version)
        self._m_appends.inc()
        return seq

    def save_snapshot(self, graph: Graph) -> int:
        """Checkpoint the (quiescent) graph; compacts the WAL behind it.

        Every update the graph has absorbed is in the snapshot, so log
        records below the snapshot's version are dead weight and are
        dropped atomically.  Returns the snapshot's graph version.
        """
        version = write_snapshot(self.snapshot_path, graph,
                                 wal_seq=self.wal._next_seq)
        self.wal.compact(min_base_version=graph.version)
        self._m_snapshots.inc()
        return version

    # ------------------------------------------------------------------
    def load_graph(self) -> Graph:
        """Snapshot only, no replay — the base a server restore builds on
        before it routes the replay through its own update path."""
        if not self.has_snapshot():
            raise CorruptArtifactError(
                f"persistent store {self.directory} has no snapshot — "
                f"initialize() it from a seed graph first")
        graph, _ = load_snapshot(self.snapshot_path)
        return graph

    def replay_records(self, graph: Graph, apply=None) -> int:
        """Replay the WAL onto ``graph`` in order; returns records applied.

        ``apply`` optionally intercepts each replayed update —
        ``apply(graph, update)`` — so a caller can route the replay
        through its own update path and see every mutation in order
        (:meth:`~repro.serving.PromptServer.restore` replays through
        ``update_graph``, which also invalidates what each update
        changed); default is ``graph.apply_updates``.  Replay is
        idempotent: records the graph has already absorbed
        (``base_version`` below the graph's version) are skipped, so
        duplicate delivery — or replaying over a snapshot that already
        contains a prefix of the log — is a no-op for those records.
        """
        replayed = 0
        for record in self.wal.records():
            if record.base_version < graph.version:
                continue
            if record.base_version > graph.version:
                raise CorruptArtifactError(
                    f"WAL record seq={record.seq} expects graph version "
                    f"{record.base_version}; graph is at {graph.version}")
            if apply is None:
                graph.apply_updates(record.update)
            else:
                apply(graph, record.update)
            replayed += 1
        self._m_replayed.inc(replayed)
        return replayed

    def recover(self, apply=None) -> tuple[Graph, int]:
        """Snapshot-load + WAL-replay; returns (graph, replayed)."""
        start = time.perf_counter()
        graph = self.load_graph()
        replayed = self.replay_records(graph, apply=apply)
        self.record_recovery_seconds(time.perf_counter() - start)
        return graph, replayed

    def record_recovery_seconds(self, seconds: float) -> None:
        """Observe one recovery's wall time (used by server-level restores
        that orchestrate load + replay themselves)."""
        self._m_recovery_s.observe(seconds)
