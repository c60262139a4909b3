"""Durable serving substrate: snapshots, write-ahead log, recovery.

This package is the persistence tier under :mod:`repro.serving` — the
subsystem that turns a process death from "lose the mutated graph and
every live session" into "warm-start and provably serve the same answers":

* :func:`atomic_write` / :class:`CorruptArtifactError`
  (:mod:`repro.persist.atomic`) — temp+fsync+replace writes and the typed
  integrity failure shared by every artifact loader in the repo;
* :class:`WriteAheadLog` (:mod:`repro.persist.wal`) — append-only,
  CRC-framed, fsync-before-apply :class:`~repro.graph.GraphUpdate` log
  with idempotent, torn-tail-tolerant replay;
* :func:`write_snapshot` / :func:`load_snapshot`
  (:mod:`repro.persist.snapshot`) — checksummed full-edge-id-space graph
  snapshots written atomically;
* :class:`SessionManifest` / :class:`SessionManifestStore`
  (:mod:`repro.persist.manifest`) — the durable per-session record
  (tenant, priority, episode, open order) a restart re-opens from;
* :class:`PersistentStore` (:mod:`repro.persist.store`) — the directory
  facade tying them together: ``log_update`` → ``save_snapshot`` →
  ``recover`` = snapshot + ordered replay, bit-identical to the crashed
  process's live reads.
"""

from .atomic import (
    CorruptArtifactError,
    atomic_write,
    checksum_arrays,
    fsync_directory,
)
from .manifest import (
    SessionManifest,
    SessionManifestStore,
    episode_from_jsonable,
    episode_to_jsonable,
)
from .snapshot import SNAPSHOT_SCHEMA, load_snapshot, write_snapshot
from .store import PersistentStore
from .wal import (
    WalRecord,
    WriteAheadLog,
    update_from_jsonable,
    update_to_jsonable,
)

__all__ = [
    "CorruptArtifactError",
    "PersistentStore",
    "SNAPSHOT_SCHEMA",
    "SessionManifest",
    "SessionManifestStore",
    "WalRecord",
    "WriteAheadLog",
    "atomic_write",
    "checksum_arrays",
    "episode_from_jsonable",
    "episode_to_jsonable",
    "fsync_directory",
    "load_snapshot",
    "update_from_jsonable",
    "update_to_jsonable",
    "write_snapshot",
]
