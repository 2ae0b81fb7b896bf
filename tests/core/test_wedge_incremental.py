"""Incremental wedge batch hook versus the full rebuild.

The contract: forcing the hook to merge ``ΔW = ΔA·A_new + A_old·ΔA``
(``incremental=True``), forcing full rebuilds (``incremental=False``), and
letting the cost model choose (``incremental=None``) must all produce the
*identical* count trajectory at every batch boundary, for any consistent
stream — and every boundary state must survive a from-scratch recount and
match the wedge matrix a per-update replay maintains.
"""

from __future__ import annotations

import pytest

from repro.core.wedge_counter import WedgeCounter
from repro.graph.updates import EdgeUpdate

from tests.conftest import random_dynamic_stream

STREAM_LENGTH = 320
BATCH_SIZES = (1, 7, 64, 256)
MODES = {"full": False, "incremental": True, "auto": None}


def boundary_indices(total: int, batch_size: int) -> list[int]:
    return [min(start + batch_size, total) - 1 for start in range(0, total, batch_size)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_incremental_matches_full_rebuild_trajectories(seed):
    stream = random_dynamic_stream(
        num_vertices=18, num_updates=STREAM_LENGTH, seed=seed, delete_fraction=0.35
    )
    reference = WedgeCounter()
    trajectory = [reference.apply(update) for update in stream]
    for batch_size in BATCH_SIZES:
        expected = [trajectory[i] for i in boundary_indices(len(stream), batch_size)]
        for mode_name, incremental in MODES.items():
            counter = WedgeCounter(incremental=incremental)
            boundary_counts = [
                counter.apply_batch(window) for window in stream.batched(batch_size)
            ]
            assert boundary_counts == expected, (
                f"wedge {mode_name} diverged at batch size {batch_size} (seed {seed})"
            )
            assert counter.is_consistent()
            assert counter.graph.to_edge_set() == reference.graph.to_edge_set()
            # The maintained all-pairs wedge structure itself must match the
            # per-update reference, not just the count.
            assert counter.wedge_matrix == reference.wedge_matrix


@pytest.mark.parametrize("incremental", [True, None])
def test_incremental_handles_pure_deletion_batches(incremental):
    """Deletion-only windows exercise negative ΔA and entry cancellation."""
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    counter = WedgeCounter(incremental=incremental)
    counter.apply_batch([EdgeUpdate.insert(u, v) for u, v in edges])
    full = WedgeCounter()
    for u, v in edges:
        full.insert_edge(u, v)
    assert counter.count == full.count
    removed = edges[::3]
    counter.apply_batch([EdgeUpdate.delete(u, v) for u, v in removed])
    for u, v in removed:
        full.delete_edge(u, v)
    assert counter.count == full.count
    assert counter.is_consistent()
    assert counter.wedge_matrix == full.wedge_matrix


def test_incremental_batch_with_new_vertices():
    """Vertices first interned mid-batch must flow through the ΔA export."""
    counter = WedgeCounter(incremental=True)
    counter.apply_batch([EdgeUpdate.insert(i, i + 1) for i in range(40)])
    counter.apply_batch(
        [EdgeUpdate.insert(100 + i, i) for i in range(40)]
        + [EdgeUpdate.insert(100 + i, i + 1) for i in range(40)]
    )
    assert counter.is_consistent()


def test_forced_modes_are_exposed_via_the_spec():
    from repro.api import EngineConfig, FourCycleEngine

    engine = FourCycleEngine(
        EngineConfig(counter="wedge", options={"incremental": True}, batch_size=64)
    )
    assert engine.counter.incremental is True
    engine = FourCycleEngine(EngineConfig(counter="wedge"))
    assert engine.counter.incremental is None

