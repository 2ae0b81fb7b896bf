"""General-graph counter built on the phase + FMM oracle.

:class:`PhaseFMMCounter` is :class:`~repro.core.oracles.OracleBackedCounter`
specialised to :class:`~repro.core.oracles.PhaseThreePathOracle`: the exact
phase decomposition with old-phase products computed by row-block SpGEMM
spread across the phase (the code's stand-in for the paper's fast matrix
multiplication, whose exponent is modelled in :mod:`repro.theory.omega`).
It exposes the phase parameters so benchmarks (E6, E9) can sweep them.

The oracle reads the counter's graph
(:meth:`~repro.core.oracles.ThreePathOracle.mirror`): each graph update
records its six tuple deltas and advances the phase by six relation updates,
and a phase ends only once the graph reflects an update.
Under ``apply_batch`` the counter inherits the oracle's batch deferral: phase
rollovers that fall inside a batch are postponed to the batch boundary (the
answers stay exact against the stretched phase's deltas), so a batch never
pays a mid-window product promotion.  Its query scans every new ``B`` tuple,
and a replayed window adds two per update, so the cost-chosen batch path
(:meth:`~repro.core.base.DynamicFourCycleCounter._replay_is_cheaper`)
rebuilds a large window on a sparse graph, where the products are cheap.
"""

from __future__ import annotations

from typing import Optional

from repro.core.oracles import OracleBackedCounter, PhaseThreePathOracle


class PhaseFMMCounter(OracleBackedCounter):
    """4-cycle counter using phases and scheduled old-phase products (exact)."""

    name = "phase-fmm"

    def __init__(
        self,
        phase_length: Optional[int] = None,
        delta: Optional[float] = None,
        min_phase_length: int = 16,
        workers: int = 1,
    ) -> None:
        oracle = PhaseThreePathOracle(
            phase_length=phase_length,
            delta=delta,
            min_phase_length=min_phase_length,
        )
        super().__init__(oracle=oracle, workers=workers)

    @property
    def phase_oracle(self) -> PhaseThreePathOracle:
        """The underlying phase oracle (typed accessor)."""
        oracle = self.oracle
        assert isinstance(oracle, PhaseThreePathOracle)
        return oracle

    @property
    def phases_completed(self) -> int:
        return self.phase_oracle.phases_completed

    @property
    def phase_length(self) -> int:
        return self.phase_oracle.phase_length
