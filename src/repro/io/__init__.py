"""Persistence helpers for update streams, layered updates, and engine
snapshots."""

from repro.io.serialization import (
    edge_update_from_dict,
    edge_update_to_dict,
    layered_update_from_dict,
    layered_update_to_dict,
    load_engine_snapshot,
    load_layered_updates,
    load_stream,
    save_engine_snapshot,
    save_layered_updates,
    save_stream,
)

__all__ = [
    "edge_update_to_dict",
    "edge_update_from_dict",
    "layered_update_to_dict",
    "layered_update_from_dict",
    "save_stream",
    "load_stream",
    "save_layered_updates",
    "load_layered_updates",
    "save_engine_snapshot",
    "load_engine_snapshot",
]
