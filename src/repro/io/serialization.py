"""Persistence of update streams, workloads, and experiment results.

Reproducibility plumbing: benchmark runs and examples can save the exact
update stream they used (JSON lines) and the per-update metrics they measured
(CSV/JSON), so a result can be re-checked later or on another machine without
re-generating the workload.

Only plain-text formats are used; vertex labels must be JSON-serializable
(ints and strings cover every built-in workload).  JSON has no tuples, so a
tuple label is written as an array, and every reader of labels here (and the
WAL's) hands an array back as a tuple through :func:`decode_label`.
"""

from __future__ import annotations

import csv
import json
import os
import zlib
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.exceptions import ConfigurationError, InvalidUpdateError, SnapshotCorruptionError
from repro.graph.updates import EdgeUpdate, LayeredEdgeUpdate, UpdateKind, UpdateStream
from repro.instrumentation.metrics import UpdateMetrics, UpdateRecord

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Update streams
# ---------------------------------------------------------------------------
def edge_update_to_dict(update: EdgeUpdate) -> dict:
    """A JSON-friendly representation of a general-graph update."""
    return {"u": update.u, "v": update.v, "kind": update.kind.value}


def decode_label(value):
    """Undo JSON's tuple -> array encoding for one vertex label.

    Unambiguous because vertex labels must be hashable: a decoded list can
    only ever have started life as a tuple.
    """
    if type(value) is list:
        return tuple(decode_label(item) for item in value)
    return value


def edge_update_from_dict(payload: dict) -> EdgeUpdate:
    """Inverse of :func:`edge_update_to_dict`.

    A label that is still unhashable once decoded (a JSON object) raises
    :class:`ConfigurationError`, like any other malformed payload.
    """
    try:
        kind = UpdateKind(payload["kind"])
        u, v = decode_label(payload["u"]), decode_label(payload["v"])
        hash((u, v))
        return EdgeUpdate(u, v, kind)
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"malformed edge-update payload: {payload!r}") from error


def layered_update_to_dict(update: LayeredEdgeUpdate) -> dict:
    """A JSON-friendly representation of a layered update."""
    return {
        "relation": update.relation,
        "left": update.left,
        "right": update.right,
        "kind": update.kind.value,
    }


def layered_update_from_dict(payload: dict) -> LayeredEdgeUpdate:
    """Inverse of :func:`layered_update_to_dict`; labels decode as in
    :func:`edge_update_from_dict`."""
    try:
        kind = UpdateKind(payload["kind"])
        left, right = decode_label(payload["left"]), decode_label(payload["right"])
        hash((left, right))
        return LayeredEdgeUpdate(payload["relation"], left, right, kind)
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"malformed layered-update payload: {payload!r}") from error


def save_stream(stream: UpdateStream, path: PathLike) -> None:
    """Write a general update stream as JSON lines (one update per line)."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for update in stream:
            handle.write(json.dumps(edge_update_to_dict(update)) + "\n")


def iter_stream(path: PathLike) -> Iterator[EdgeUpdate]:
    """Decode a stream written by :func:`save_stream`, one line at a time.

    The file is never held in memory as a whole.  A line that is not valid
    JSON, or whose payload is not a valid edge update (a self-loop
    included), raises a :class:`ConfigurationError` naming ``path:line``.
    """
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                update = edge_update_from_dict(json.loads(line))
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{source}:{line_number}: not valid JSON: {line[:80]!r}"
                ) from error
            except (ConfigurationError, InvalidUpdateError) as error:
                raise ConfigurationError(f"{source}:{line_number}: {error}") from error
            yield update


def load_stream(path: PathLike) -> UpdateStream:
    """Read an update stream written by :func:`save_stream`."""
    return UpdateStream(iter_stream(path))


def save_layered_updates(updates: Iterable[LayeredEdgeUpdate], path: PathLike) -> None:
    """Write layered updates as JSON lines."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for update in updates:
            handle.write(json.dumps(layered_update_to_dict(update)) + "\n")


def load_layered_updates(path: PathLike) -> List[LayeredEdgeUpdate]:
    """Read layered updates written by :func:`save_layered_updates`."""
    source = Path(path)
    updates: List[LayeredEdgeUpdate] = []
    with source.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                updates.append(layered_update_from_dict(json.loads(line)))
    return updates


# ---------------------------------------------------------------------------
# Engine snapshots
# ---------------------------------------------------------------------------
#: On-disk snapshot format version; bumped on incompatible layout changes.
ENGINE_SNAPSHOT_VERSION = 1

_SNAPSHOT_KEYS = ("config", "count", "updates_processed", "vertices", "edges")


def _snapshot_checksum(payload: dict) -> int:
    """CRC32 over the canonical JSON of ``payload`` (``checksum`` excluded)."""
    body = {key: value for key, value in payload.items() if key != "checksum"}
    return zlib.crc32(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


def atomic_write_text(path: PathLike, text: str) -> None:
    """Crash-safe replace: write a sibling tmp file, fsync it, then rename.

    ``os.replace`` is atomic on POSIX, so readers only ever observe the old
    complete file or the new complete file — never a torn one.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def save_engine_snapshot(snapshot: dict, path: PathLike) -> None:
    """Persist a :class:`~repro.api.engine.EngineSnapshot` payload as JSON.

    ``snapshot`` is the ``to_dict()`` form.  Vertex labels may be ints,
    strings, or arbitrarily nested tuples of those (the layer-tagged labels a
    :class:`~repro.api.sources.TupleFeedSource` produces): tuples are encoded
    as JSON arrays and decoded back to tuples by
    :func:`load_engine_snapshot`.  Other label types fail ``json.dumps`` here,
    at save time.

    The write is atomic (tmp file + fsync + rename) and the payload carries a
    CRC32 content checksum that :func:`load_engine_snapshot` verifies, so a
    crash mid-save can never leave a half-written snapshot that later loads.
    """
    missing = sorted(set(_SNAPSHOT_KEYS) - set(snapshot))
    if missing:
        raise ConfigurationError(
            f"engine snapshot is missing key{'s' if len(missing) > 1 else ''}: "
            f"{', '.join(missing)}"
        )
    payload = dict(snapshot, version=ENGINE_SNAPSHOT_VERSION)
    payload["checksum"] = _snapshot_checksum(payload)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def load_engine_snapshot(path: PathLike) -> dict:
    """Read a snapshot written by :func:`save_engine_snapshot`.

    Edge pairs and tuple vertex labels come back as tuples (JSON arrays
    decode to lists, which are not hashable vertex material).  Every
    malformation — truncated or invalid JSON, a checksum mismatch, missing
    keys, structurally bad vertices/edges — raises
    :class:`~repro.exceptions.SnapshotCorruptionError` (a
    :class:`ConfigurationError` subclass) naming the file, never a raw
    ``json.JSONDecodeError`` or ``KeyError``.
    """
    source = Path(path)
    try:
        payload = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SnapshotCorruptionError(f"{source}: not valid JSON") from error
    if not isinstance(payload, dict):
        raise SnapshotCorruptionError(
            f"{source}: expected a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("version")
    if version != ENGINE_SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"{source}: unsupported engine-snapshot version {version!r} "
            f"(expected {ENGINE_SNAPSHOT_VERSION})"
        )
    checksum = payload.pop("checksum", None)
    if checksum is not None and checksum != _snapshot_checksum(payload):
        raise SnapshotCorruptionError(
            f"{source}: content checksum mismatch (stored {checksum}, "
            f"computed {_snapshot_checksum(payload)}); the snapshot is corrupt"
        )
    payload.pop("version", None)
    missing = sorted(set(_SNAPSHOT_KEYS) - set(payload))
    if missing:
        raise SnapshotCorruptionError(
            f"{source}: snapshot is missing key{'s' if len(missing) > 1 else ''}: "
            f"{', '.join(missing)}"
        )
    try:
        payload["vertices"] = [decode_label(vertex) for vertex in payload["vertices"]]
        payload["edges"] = [
            (decode_label(edge[0]), decode_label(edge[1])) for edge in payload["edges"]
        ]
    except (TypeError, IndexError, KeyError) as error:
        raise SnapshotCorruptionError(
            f"{source}: malformed vertices/edges payload: {error}"
        ) from error
    return payload


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
_METRICS_COLUMNS = ("index", "operations", "seconds", "edge_count", "is_insert")


def save_metrics_csv(metrics: UpdateMetrics, path: PathLike) -> None:
    """Write per-update metrics as CSV (one row per update)."""
    target = Path(path)
    with target.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_METRICS_COLUMNS)
        for record in metrics.records:
            writer.writerow(
                [record.index, record.operations, record.seconds, record.edge_count, int(record.is_insert)]
            )


def load_metrics_csv(path: PathLike) -> UpdateMetrics:
    """Read metrics written by :func:`save_metrics_csv`."""
    source = Path(path)
    metrics = UpdateMetrics()
    with source.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or set(_METRICS_COLUMNS) - set(reader.fieldnames):
            raise ConfigurationError(
                f"{source}: expected columns {_METRICS_COLUMNS}, got {reader.fieldnames}"
            )
        for row in reader:
            metrics.record(
                UpdateRecord(
                    index=int(row["index"]),
                    operations=int(row["operations"]),
                    seconds=float(row["seconds"]),
                    edge_count=int(row["edge_count"]),
                    is_insert=bool(int(row["is_insert"])),
                )
            )
    return metrics


def save_summary_json(summary_rows: Iterable[dict], path: PathLike) -> None:
    """Write a list of summary dictionaries (e.g. from the harness) as JSON."""
    target = Path(path)
    target.write_text(json.dumps(list(summary_rows), indent=2, sort_keys=True), encoding="utf-8")


def load_summary_json(path: PathLike) -> List[dict]:
    """Read summaries written by :func:`save_summary_json`."""
    source = Path(path)
    payload = json.loads(source.read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ConfigurationError(f"{source}: expected a JSON list, got {type(payload).__name__}")
    return payload
