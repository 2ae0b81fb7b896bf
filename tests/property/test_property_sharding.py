"""Property tests (hypothesis): shard-parallel counters are bit-identical.

The shard layer's contract is that ``workers`` is pure performance: for any
consistent update stream, any batch window, any worker count, and any
execution vehicle, a counter built with ``workers > 1`` reports exactly the
counts (and, for the wedge counter, exactly the maintained wedge matrix) of
the serial ``workers=1`` counter.  The sharded counters run the CSR batch
kernel (through the test-side :class:`~tests.conftest.PinnedDispatcher`;
the tiny hypothesis graphs would otherwise dispatch dense and never reach
the shard executor), and their executors are re-armed with
``min_shard_work=1`` so even these graphs genuinely split into multiple
shards — the default floor would collapse them back to the serial kernel
and the test would pin nothing.  Dense-versus-CSR agreement itself is
pinned in ``test_property_kernel_choice.py``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.throughput import force_batch_path
from repro.api import counter_spec

from tests.conftest import PinnedVehicleExecutor, pin_kernel
from tests.property.test_property_counters import consistent_streams

#: The counters whose batch hooks route products through the shard executor.
SHARDED_COUNTERS = ("wedge", "hhh22", "assadi-shah")
FAST_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sharded_counter(name: str, workers: int, vehicle: str = "serial"):
    """A CSR-pinned counter whose executor shards aggressively even on tiny
    graphs, on one execution vehicle."""
    counter = pin_kernel(counter_spec(name).create(workers=workers), "csr")
    executor = PinnedVehicleExecutor(vehicle, workers=workers, min_shard_work=1)
    counter.shard_executor = executor
    oracle = getattr(counter, "_oracle", None)
    if oracle is not None and hasattr(oracle, "shard_executor"):
        oracle.shard_executor = executor
    return force_batch_path(counter, "rebuild")


def _replay_in_batches(counter, stream, window: int):
    counts = []
    updates = list(stream)
    for start in range(0, len(updates), window):
        counter.apply_batch(updates[start : start + window])
        counts.append(counter.count)
    return counts


@given(
    name=st.sampled_from(SHARDED_COUNTERS),
    workers=st.sampled_from([2, 4]),
    window=st.integers(min_value=1, max_value=16),
    stream=consistent_streams(max_vertices=8, max_updates=40),
)
@FAST_SETTINGS
def test_sharded_counters_match_serial_at_every_batch_boundary(name, workers, window, stream):
    serial = force_batch_path(pin_kernel(counter_spec(name).create(workers=1), "csr"), "rebuild")
    sharded = _sharded_counter(name, workers)
    assert _replay_in_batches(sharded, stream, window) == _replay_in_batches(
        serial, stream, window
    )


@given(
    workers=st.sampled_from([2, 4]),
    stream=consistent_streams(max_vertices=8, max_updates=40),
)
@FAST_SETTINGS
def test_sharded_wedge_matrix_is_bit_identical(workers, stream):
    serial = force_batch_path(pin_kernel(counter_spec("wedge").create(workers=1), "csr"), "rebuild")
    sharded = _sharded_counter("wedge", workers)
    serial.apply_batch(list(stream))
    sharded.apply_batch(list(stream))
    assert sharded.count == serial.count
    reference = serial.wedge_matrix
    actual = sharded.wedge_matrix
    assert set(actual.row_labels()) == set(reference.row_labels())
    for label in reference.row_labels():
        assert dict(actual.row(label)) == dict(reference.row(label))


@given(stream=consistent_streams(max_vertices=8, max_updates=40))
@FAST_SETTINGS
def test_thread_policy_matches_serial_policy(stream):
    # One pooled vehicle exercised end-to-end through a counter; process
    # pools are covered at the matmul layer (tests/matmul/test_sharding.py)
    # where each case pays the fork cost once instead of per hypothesis
    # example.
    updates = list(stream)
    inline = _sharded_counter("hhh22", workers=2, vehicle="serial")
    pooled = _sharded_counter("hhh22", workers=2, vehicle="thread")
    inline.apply_batch(updates)
    pooled.apply_batch(updates)
    assert pooled.count == inline.count
    pooled.shard_executor.close()
