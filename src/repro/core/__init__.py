"""Dynamic 4-cycle counters: the paper's contribution and its baselines."""

from repro.core.assadi_shah import (
    AssadiShahCounter,
    AssadiShahThreePathOracle,
    expected_phase_length,
    expected_update_exponent,
)
from repro.core.base import DynamicFourCycleCounter
from repro.core.brute_force import BruteForceCounter
from repro.core.hhh22 import HHH22Counter
from repro.core.layered import CHAINS, LayeredFourCycleCounter, query_direction
from repro.core.oracles import (
    NaiveThreePathOracle,
    OracleBackedCounter,
    PhaseThreePathOracle,
    ThreePathOracle,
)
from repro.core.phase_fmm import PhaseFMMCounter
from repro.core.warmup import WarmupThreePathOracle
from repro.core.wedge_counter import WedgeCounter

__all__ = [
    "DynamicFourCycleCounter",
    "BruteForceCounter",
    "WedgeCounter",
    "HHH22Counter",
    "PhaseFMMCounter",
    "AssadiShahCounter",
    "AssadiShahThreePathOracle",
    "expected_update_exponent",
    "expected_phase_length",
    "ThreePathOracle",
    "NaiveThreePathOracle",
    "PhaseThreePathOracle",
    "OracleBackedCounter",
    "WarmupThreePathOracle",
    "LayeredFourCycleCounter",
    "CHAINS",
    "query_direction",
]
