"""repro — fully dynamic 4-cycle counting with fast matrix multiplication.

A production-quality reproduction of

    Sepehr Assadi and Vihan Shah,
    "An Improved Fully Dynamic Algorithm for Counting 4-Cycles in General
    Graphs Using Fast Matrix Multiplication", PODS 2025 (arXiv:2504.10748).

The package provides:

* :mod:`repro.core` — exact fully dynamic 4-cycle counters: the paper's main
  algorithm (phases + degree classes + FMM), the Section 3 warm-up algorithm,
  the [HHH22] ``O(m^{2/3})`` baseline, the Appendix A ``O(n)`` wedge counter,
  and a brute-force reference; plus the layered 4-cycle counter of Theorem 2.
* :mod:`repro.graph` — dynamic simple graphs, 4-layered graphs, the general↔
  layered reduction of Section 8, and static counting oracles.
* :mod:`repro.matmul` — label-keyed count matrices, the exact SpGEMM product,
  the dense-vs-CSR product dispatcher, and the phase work scheduler.
* :mod:`repro.theory` — the paper's constraint systems, parameter solving
  (Theorem 1/2 constants), and exponent tables.
* :mod:`repro.db` — binary relations, cyclic joins, and the incrementally
  maintained join-count view (the paper's IVM framing).
* :mod:`repro.workloads` — synthetic graph and join update-stream generators.
* :mod:`repro.instrumentation` — operation-count cost model, per-update
  metrics, and the experiment harness.

Quickstart::

    from repro import AssadiShahCounter

    counter = AssadiShahCounter()
    counter.insert_edge("a", "b")
    counter.insert_edge("b", "c")
    counter.insert_edge("c", "d")
    counter.insert_edge("d", "a")
    assert counter.count == 1
"""

from repro.api import (
    CounterSpec,
    EngineConfig,
    EngineEvent,
    EngineSnapshot,
    FourCycleEngine,
    GeneratorSource,
    ReplaySource,
    TupleFeedSource,
    UpdateSource,
    available_specs,
    counter_spec,
    register_spec,
)
from repro.core import (
    AssadiShahCounter,
    BruteForceCounter,
    DynamicFourCycleCounter,
    HHH22Counter,
    LayeredFourCycleCounter,
    PhaseFMMCounter,
    WedgeCounter,
)
from repro.db import CyclicJoinCountView, TupleUpdate
from repro.graph import (
    DynamicGraph,
    EdgeUpdate,
    VertexInterner,
    LayeredGraph,
    UpdateBatch,
    UpdateKind,
    UpdateStream,
    normalize_batch,
)
from repro.theory import (
    published_parameters,
    solve_main_parameters,
    solve_warmup_parameters,
    verify_published_parameters,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "EngineConfig",
    "FourCycleEngine",
    "EngineEvent",
    "EngineSnapshot",
    "CounterSpec",
    "counter_spec",
    "available_specs",
    "register_spec",
    "UpdateSource",
    "GeneratorSource",
    "ReplaySource",
    "TupleFeedSource",
    "DynamicFourCycleCounter",
    "BruteForceCounter",
    "WedgeCounter",
    "HHH22Counter",
    "PhaseFMMCounter",
    "AssadiShahCounter",
    "LayeredFourCycleCounter",
    "DynamicGraph",
    "VertexInterner",
    "LayeredGraph",
    "EdgeUpdate",
    "UpdateKind",
    "UpdateStream",
    "UpdateBatch",
    "normalize_batch",
    "CyclicJoinCountView",
    "TupleUpdate",
    "solve_main_parameters",
    "solve_warmup_parameters",
    "published_parameters",
    "verify_published_parameters",
]
