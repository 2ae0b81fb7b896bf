"""Quickstart: maintain the number of 4-cycles of a fully dynamic graph.

Run with::

    python examples/quickstart.py

Everything goes through the :class:`repro.FourCycleEngine` facade: a typed
:class:`repro.EngineConfig` names the counter and the batch size, the engine
owns the counter and the update pipeline, and checkpoints make the state
portable.  The example builds a small graph edge by edge with the paper's main
algorithm, replays a random insert/delete stream through every registered
counter to show they maintain exactly the same count, and round-trips a
checkpoint.
"""

from __future__ import annotations

from repro import EngineConfig, FourCycleEngine, GeneratorSource, available_specs
from repro.analysis import text_table
from repro.instrumentation import compare_counters, run_config, summary_table


def single_engine_walkthrough() -> None:
    print("== Maintaining 4-cycles with the main algorithm ==")
    engine = FourCycleEngine(EngineConfig(counter="assadi-shah"))
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    for u, v in edges:
        count = engine.insert(u, v)
        print(f"insert ({u}, {v}) -> 4-cycles = {count}")
    count = engine.delete("d", "a")
    print(f"delete (d, a)  -> 4-cycles = {count}")
    print(f"final graph: n = {engine.num_vertices}, m = {engine.num_edges}")
    print(f"consistency check against a from-scratch recount: {engine.is_consistent()}")
    print()


def all_counters_agree() -> None:
    print("== Every registered counter maintains the same count ==")
    source = GeneratorSource(
        "erdos-renyi", num_vertices=30, num_updates=400, delete_fraction=0.3, seed=7
    )
    names = [spec.name for spec in available_specs()]
    results = compare_counters(names, source.to_stream())
    print(text_table(summary_table(results)))
    print()
    final_counts = {result.final_count for result in results.values()}
    assert len(final_counts) == 1, "counters disagree!"
    print(
        f"all {len(results)} counters agree: {final_counts.pop()} 4-cycles "
        f"after {len(source)} updates"
    )


def checkpoint_round_trip() -> None:
    print()
    print("== Checkpoint / restore ==")
    engine = FourCycleEngine(EngineConfig(counter="hhh22", batch_size=64))
    source = GeneratorSource("power-law", num_vertices=40, num_updates=600, seed=2)
    engine.run(source)
    snapshot = engine.checkpoint()  # pass a path to persist it as JSON
    restored = FourCycleEngine.restore(snapshot)
    print(f"checkpointed at m = {engine.num_edges}, count = {engine.count}")
    print(f"restored engine:    m = {restored.num_edges}, count = {restored.count}")
    assert restored.count == engine.count
    restored.insert("new-a", "new-b")
    engine.insert("new-a", "new-b")
    assert restored.count == engine.count, "trajectories diverged after restore!"
    print("restored engine tracks the original under further updates")


def per_counter_costs() -> None:
    print()
    print("== Per-update operation counts (hub-heavy stream) ==")
    source = GeneratorSource("hubs", num_vertices=40, num_updates=300, num_hubs=3, seed=1)
    for spec in available_specs():
        summary = run_config(EngineConfig(counter=spec.name), source.to_stream()).summary()
        print(
            f"{spec.name:<12} mean ops/update = {summary.mean_operations:8.1f}   "
            f"worst case = {summary.max_operations:6d}"
        )


if __name__ == "__main__":
    single_engine_walkthrough()
    all_counters_agree()
    checkpoint_round_trip()
    per_counter_costs()
