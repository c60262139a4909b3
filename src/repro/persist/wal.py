"""Append-only write-ahead log of :class:`~repro.graph.delta.GraphUpdate`.

Durability protocol (classic WAL): the serving layer appends a mutation
record — and fsyncs it — **before** applying the mutation in memory, so
any state a client could have observed is reconstructible as *snapshot +
ordered replay*.  One JSONL record per update::

    {"seq": 7, "base_version": 12, "update": {...}, "crc": 3735928559}

* ``seq`` — monotonically increasing append index (gap-checked on read);
* ``base_version`` — the graph epoch the update was applied on top of.
  Replay applies a record only when its ``base_version`` matches the
  graph's current version, which is what makes replay **idempotent**: a
  record delivered (or replayed) twice finds the graph already past its
  base version and is skipped as a no-op, and replaying a WAL over a
  snapshot that already contains its prefix skips exactly that prefix.
* ``crc`` — CRC32 of the record's canonical JSON, so a torn or bit-flipped
  record is detected rather than half-parsed.

Torn-tail tolerance: a crash mid-append (kill -9 between ``write`` and
``fsync``) can leave a truncated or garbage final line.  The reader treats
the first undecodable/CRC-failing record as the end of the log — by the
write-before-apply protocol that update was never applied, so dropping it
is the *correct* recovery, not data loss.  Anything damaged before a valid
record, by contrast, raises :class:`~repro.persist.CorruptArtifactError`
(mid-log corruption cannot be silently skipped without replaying on the
wrong base).

JSON floats round-trip float64 exactly (shortest-repr), so logged feature
payloads replay bit-identically — the property the differential crash
experiment (`repro serve-bench-recovery`) asserts end to end.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from ..graph.delta import GraphUpdate
from .atomic import CorruptArtifactError, atomic_write, fsync_directory

__all__ = ["WalRecord", "WriteAheadLog", "update_to_jsonable",
           "update_from_jsonable"]


def update_to_jsonable(update: GraphUpdate) -> dict:
    """A :class:`GraphUpdate` as plain JSON-serializable data."""
    def ints(values) -> list:
        return np.asarray(values, dtype=np.int64).reshape(-1).tolist()

    payload: dict = {
        "add_src": ints(update.add_src),
        "add_dst": ints(update.add_dst),
        "add_rel": None if update.add_rel is None else ints(update.add_rel),
        "remove_edges": ints(update.remove_edges),
        "add_node_features": None,
        "add_node_labels": None,
    }
    if update.add_node_features is not None:
        features = np.asarray(update.add_node_features, dtype=np.float64)
        payload["add_node_features"] = features.tolist()
    if update.add_node_labels is not None:
        payload["add_node_labels"] = ints(update.add_node_labels)
    return payload


def update_from_jsonable(payload: dict) -> GraphUpdate:
    """Inverse of :func:`update_to_jsonable` (bit-exact for float64)."""
    features = payload.get("add_node_features")
    labels = payload.get("add_node_labels")
    rel = payload.get("add_rel")
    return GraphUpdate(
        add_src=np.asarray(payload["add_src"], dtype=np.int64),
        add_dst=np.asarray(payload["add_dst"], dtype=np.int64),
        add_rel=None if rel is None else np.asarray(rel, dtype=np.int64),
        remove_edges=np.asarray(payload["remove_edges"], dtype=np.int64),
        add_node_features=None if features is None
        else np.asarray(features, dtype=np.float64),
        add_node_labels=None if labels is None
        else np.asarray(labels, dtype=np.int64),
    )


def _record_crc(seq: int, base_version: int, update_payload: dict) -> int:
    body = json.dumps(
        {"seq": seq, "base_version": base_version,
         "update": update_payload},
        sort_keys=True, separators=(",", ":"))
    return zlib.crc32(body.encode())


class WalRecord:
    """One decoded WAL entry."""

    __slots__ = ("seq", "base_version", "update")

    def __init__(self, seq: int, base_version: int, update: GraphUpdate):
        self.seq = seq
        self.base_version = base_version
        self.update = update


class WriteAheadLog:
    """Append-only, fsynced, CRC-framed JSONL update log."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._next_seq = self._scan_next_seq()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, update: GraphUpdate, base_version: int) -> int:
        """Durably log one update; returns its sequence number.

        The record is written and fsynced before this returns — callers
        apply the update in memory only afterwards (write-ahead).
        """
        seq = self._next_seq
        payload = update_to_jsonable(update)
        record = {
            "seq": seq,
            "base_version": int(base_version),
            "update": payload,
            "crc": _record_crc(seq, int(base_version), payload),
        }
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with open(self.path, "a") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._next_seq = seq + 1
        return seq

    def compact(self, min_base_version: int) -> int:
        """Atomically drop records older than ``min_base_version``.

        Called after a snapshot: records whose effects the snapshot
        already contains (``base_version < min_base_version``) are dead
        weight.  Returns the number of records kept.  The rewrite goes
        through :func:`~repro.persist.atomic_write`, so a crash mid-compact
        leaves the previous (complete) log in place.
        """
        kept = [record for record in self.records()
                if record.base_version >= min_base_version]
        with atomic_write(self.path) as handle:
            for record in kept:
                payload = update_to_jsonable(record.update)
                handle.write(json.dumps(
                    {"seq": record.seq,
                     "base_version": record.base_version,
                     "update": payload,
                     "crc": _record_crc(record.seq, record.base_version,
                                        payload)},
                    sort_keys=True, separators=(",", ":")) + "\n")
        fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        return len(kept)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def records(self) -> list[WalRecord]:
        """Decode every intact record, in append order.

        A damaged *final* record (torn tail from a crash mid-append) is
        dropped silently; damage anywhere before an intact record raises
        :class:`CorruptArtifactError`.
        """
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            lines = handle.read().split(b"\n")
        records: list[WalRecord] = []
        bad_at: int | None = None
        for index, raw in enumerate(lines):
            if not raw.strip():
                continue
            record = self._decode(raw)
            if record is None:
                if bad_at is None:
                    bad_at = index
                continue
            if bad_at is not None:
                raise CorruptArtifactError(
                    f"WAL {self.path}: damaged record at line "
                    f"{bad_at + 1} followed by intact records — mid-log "
                    f"corruption cannot be replayed past safely")
            records.append(record)
        return records

    # ------------------------------------------------------------------
    def _decode(self, raw: bytes) -> WalRecord | None:
        try:
            record = json.loads(raw)
            seq = int(record["seq"])
            base_version = int(record["base_version"])
            payload = record["update"]
            crc = int(record["crc"])
        except (ValueError, KeyError, TypeError):
            return None
        if _record_crc(seq, base_version, payload) != crc:
            return None
        return WalRecord(seq, base_version,
                         update_from_jsonable(payload))

    def _scan_next_seq(self) -> int:
        if not os.path.exists(self.path):
            return 0
        records = self.records()
        return records[-1].seq + 1 if records else 0

    def __len__(self) -> int:
        return len(self.records())
