"""The hot-path manifest consumed by rule REP103.

The ROADMAP item "kill the label dictionary in the hot path" needs a
mechanical definition of *hot path* to make measurable progress against.
This manifest is that definition: the per-update entry points and batch
kernels below are the functions whose per-call interpreter work dominates
E10/E11 throughput, so creating or iterating label-keyed dicts inside them
is flagged (REP103) and may only exist as a baselined, shrinking debt.

Two mechanisms register a function as hot:

* by *name* — any function named in :data:`HOT_FUNCTION_NAMES` is hot in
  every file (all ``_rebuild`` bulk batch paths, wherever a new counter
  adds one);
* by *manifest entry* — ``(path suffix, dotted qualname)`` pairs in
  :data:`HOT_PATHS` pin specific per-update methods.

Removing an entry here is only legitimate when the function no longer
exists or no longer sits on the update path; making the rule pass by
deleting its manifest is exactly the silent regression the rule exists to
catch, so treat edits to this file as reviewable API changes.
"""

from __future__ import annotations

from typing import Tuple

#: Function names that are hot wherever they appear.
HOT_FUNCTION_NAMES: Tuple[str, ...] = ("_rebuild",)

#: ``(path suffix, qualname)`` pairs for the per-update hot paths.  The path
#: suffix is matched against the end of the linted file's display path.
HOT_PATHS: Tuple[Tuple[str, str], ...] = (
    # The template method every counter's single-update path runs through.
    ("repro/core/base.py", "DynamicFourCycleCounter.apply"),
    # Per-update structure maintenance in each counter.
    ("repro/core/base.py", "DynamicFourCycleCounter._apply_structure_delta"),
    ("repro/core/wedge_counter.py", "WedgeCounter._apply_structure_delta"),
    ("repro/core/wedge_counter.py", "WedgeCounter._three_paths"),
    ("repro/core/hhh22.py", "HHH22Counter._apply_structure_delta"),
    ("repro/core/hhh22.py", "HHH22Counter._update_wedges"),
    ("repro/core/hhh22.py", "HHH22Counter._update_paths_middle_edge"),
    ("repro/core/hhh22.py", "HHH22Counter._update_paths_end_edge"),
    ("repro/core/hhh22.py", "HHH22Counter._three_paths"),
    ("repro/core/oracles.py", "OracleBackedCounter._apply_structure_delta"),
    # The paper's per-update path (Sections 5 and 8): Claim 5.3 maintenance
    # of W, the class check after each edge, and the class-split query.
    ("repro/core/assadi_shah.py", "AssadiShahThreePathOracle.update_edge"),
    ("repro/core/assadi_shah.py", "AssadiShahThreePathOracle.end_edge"),
    ("repro/core/assadi_shah.py", "AssadiShahThreePathOracle.count_three_paths"),
    ("repro/core/assadi_shah.py", "AssadiShahThreePathOracle._count_by_middle_classes"),
    # The phase scheduler's per-update share of the old-phase products.
    ("repro/matmul/scheduler.py", "PhaseScheduler.work"),
    ("repro/matmul/scheduler.py", "IncrementalMatrixProduct.advance"),
    # The IVM view's tuple-update path (the db-scenario twin of apply()).
    ("repro/db/ivm.py", "CyclicJoinCountView.apply"),
)
