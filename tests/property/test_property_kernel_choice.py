"""Property tests (hypothesis): the batch kernel choice is pure performance.

Every counter whose batch hook dispatches a whole-graph product — wedge,
hhh22, phase-fmm and assadi-shah — must report the same count at every batch
boundary whichever kernel its dispatcher picks.  The program never pins one:
the dispatcher decides per product from cost estimates, and on the tiny
hypothesis graphs it picks dense almost always.  So each stream is replayed
twice with the test-side :class:`~tests.conftest.PinnedDispatcher`, once per
kernel, with the rebuild forced on every window by
:func:`~repro.analysis.throughput.force_batch_path`.  Both runs must agree with each other
and with label-keyed wedge enumeration over a plain adjacency model at every
boundary; for the wedge counter the maintained wedge matrices must also be
equal.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.throughput import force_batch_path
from repro.api import counter_spec
from repro.graph.static_counts import count_four_cycles_wedges

from tests.conftest import AdjacencyModel, pin_kernel
from tests.property.test_property_counters import consistent_streams

#: The counters whose batch hooks dispatch between the dense and CSR kernels.
DISPATCHING_COUNTERS = ("wedge", "hhh22", "phase-fmm", "assadi-shah")
FAST_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _pinned_counter(name: str, kernel: str):
    return force_batch_path(pin_kernel(counter_spec(name).create(), kernel), "rebuild")


@given(
    name=st.sampled_from(DISPATCHING_COUNTERS),
    window=st.integers(min_value=1, max_value=16),
    stream=consistent_streams(max_vertices=8, max_updates=48),
)
@FAST_SETTINGS
def test_dense_and_csr_batch_kernels_agree_at_every_boundary(name, window, stream):
    dense = _pinned_counter(name, "dense")
    csr = _pinned_counter(name, "csr")
    model = AdjacencyModel()
    updates = list(stream)
    for start in range(0, len(updates), window):
        batch = updates[start : start + window]
        for update in batch:
            model.apply(update)
        expected = count_four_cycles_wedges(model)
        assert dense.apply_batch(batch) == expected
        assert csr.apply_batch(batch) == expected
        if name == "wedge":
            assert dense.wedge_matrix == csr.wedge_matrix
