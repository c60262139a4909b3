"""Versioned, checksummed graph snapshots (atomic ``.npz`` on disk).

A snapshot is the full edge-id-space state of one
:class:`~repro.graph.graph.Graph` — ``src``/``dst``/``rel`` *including
tombstoned slots* plus the ``edge_alive`` mask — together with node
features/labels, relation features and the graph's epoch ``version``.
Persisting the whole id space (not just live edges) is load-bearing:
datapoints and datasets reference edges by stable id, so a snapshot that
renumbered ids would dangle every edge-classification episode that
survives the restart.

Restore rebuilds the graph and re-marks it mutated (when its version is
nonzero), so the lazily built adjacency comes up as a
:class:`~repro.graph.delta.DeltaAdjacency` over the live edge list — by
the canonical-order contract that reads bit-identically to the overlay
state the crashed process was serving from.

Integrity: every array (plus the scalar metadata) is folded into one CRC32
(:func:`~repro.persist.checksum_arrays`) stored inside the archive; the
loader recomputes and compares, raising
:class:`~repro.persist.CorruptArtifactError` on mismatch — and wraps the
zip/format errors a truncated file produces in the same typed error.  The
write goes through :func:`~repro.persist.atomic_write`, so a crash during
snapshotting leaves the previous snapshot intact.
"""

from __future__ import annotations

import io
import zipfile

import numpy as np

from ..graph.graph import Graph
from .atomic import CorruptArtifactError, atomic_write, checksum_arrays

__all__ = ["SNAPSHOT_SCHEMA", "write_snapshot", "load_snapshot"]

#: Bumped when the array layout changes; loaders reject unknown schemas.
SNAPSHOT_SCHEMA = 1

_CHECKSUM_KEY = "__checksum__"


def _snapshot_arrays(graph: Graph, wal_seq: int) -> dict:
    alive = graph.edge_alive
    arrays = {
        "schema": np.array([SNAPSHOT_SCHEMA], dtype=np.int64),
        "meta": np.array([graph.num_nodes, graph.num_relations,
                          graph.version, int(wal_seq)], dtype=np.int64),
        "name": np.frombuffer(graph.name.encode(), dtype=np.uint8).copy(),
        "src": graph.src,
        "dst": graph.dst,
        "rel": graph.rel,
        "edge_alive": (np.ones(0, dtype=bool) if alive is None
                       else alive),
        "node_features": graph.node_features,
    }
    if graph.node_labels is not None:
        arrays["node_labels"] = graph.node_labels
    if graph.relation_features is not None:
        arrays["relation_features"] = graph.relation_features
    return arrays


def write_snapshot(path: str, graph: Graph, wal_seq: int = 0) -> int:
    """Write a checksummed snapshot of ``graph`` atomically to ``path``.

    ``wal_seq`` records the WAL high-water mark whose effects the snapshot
    contains (the next log sequence number at snapshot time).  Returns the
    snapshot's graph version.
    """
    arrays = _snapshot_arrays(graph, wal_seq)
    arrays[_CHECKSUM_KEY] = np.array([checksum_arrays(arrays)],
                                     dtype=np.uint64)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    with atomic_write(path, "wb") as handle:
        handle.write(buffer.getvalue())
    return graph.version


def load_snapshot(path: str) -> tuple[Graph, int]:
    """Load and verify a snapshot; returns ``(graph, wal_seq)``.

    Raises :class:`CorruptArtifactError` when the file is truncated,
    unreadable as an archive, from an unknown schema, or fails its
    checksum.  The returned graph reads bit-identically to the state the
    snapshot captured (mutated graphs come back as delta overlays over
    the same live edge list, version preserved).

    The checksum covers every array in the archive, read or not: a
    snapshot from an older build may also hold an ``owner`` array (a
    retired shard owner map), which verifies and is then ignored.
    """
    try:
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as error:
        raise CorruptArtifactError(
            f"snapshot {path} is unreadable (truncated or damaged): "
            f"{type(error).__name__}: {error}") from error
    stored = arrays.pop(_CHECKSUM_KEY, None)
    if stored is None:
        raise CorruptArtifactError(
            f"snapshot {path} carries no checksum entry")
    if int(stored[0]) != checksum_arrays(arrays):
        raise CorruptArtifactError(
            f"snapshot {path} failed its checksum — the file was "
            f"corrupted after it was written")
    schema = int(arrays["schema"][0])
    if schema != SNAPSHOT_SCHEMA:
        raise CorruptArtifactError(
            f"snapshot {path} uses schema {schema}; this build reads "
            f"schema {SNAPSHOT_SCHEMA}")
    num_nodes, num_relations, version, wal_seq = (
        int(value) for value in arrays["meta"])
    graph = Graph(
        num_nodes,
        arrays["src"], arrays["dst"], rel=arrays["rel"],
        node_features=arrays["node_features"],
        node_labels=arrays.get("node_labels"),
        num_relations=num_relations,
        relation_features=arrays.get("relation_features"),
        name=bytes(arrays["name"]).decode() if arrays["name"].size
        else "graph")
    alive = arrays["edge_alive"]
    if alive.size:
        graph.edge_alive = alive.astype(bool)
    graph.version = version
    # A snapshot of a mutated graph must come back *as* a mutated graph:
    # the lazy adjacency build then reads live_edges() into delta
    # overlays, whose rows are bit-identical to the crashed process's.
    if version > 0:
        graph._mutated = True
    return graph, wal_seq
