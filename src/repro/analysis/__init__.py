"""Experiment implementations (E1-E15), result reporting, and artifacts.

:mod:`repro.analysis.paper` holds the paper's experiments E1–E9,
:mod:`repro.analysis.throughput` the throughput experiments E10–E14 and
their one row type, and :mod:`repro.analysis.service_load` the service load
experiment E15.
"""

from repro.analysis.artifacts import (
    artifact_directory,
    write_bench_artifact,
)
from repro.analysis.paper import (
    ConstantsRow,
    ConstraintRow,
    CrossValidationRow,
    IvmRow,
    OmegaAblationResult,
    PhaseAblationRow,
    ScalingPoint,
    ScalingResult,
    WarmupConstantsRow,
    WorstCaseRow,
    experiment_e1_theorem_constants,
    experiment_e2_warmup_constants,
    experiment_e3_constraint_verification,
    experiment_e4_cross_validation,
    experiment_e5_update_scaling,
    experiment_e6_worst_case,
    experiment_e7_ivm_join,
    experiment_e8_omega_ablation,
    experiment_e9_phase_ablation,
)
from repro.analysis.reporting import rows_to_dicts, text_table
from repro.analysis.service_load import ServiceLoadRow, experiment_e15_service_load
from repro.analysis.throughput import (
    E12_PRODUCT_VARIANTS,
    ThroughputRow,
    dense_product,
    dict_product,
    experiment_e10_batch_throughput,
    experiment_e11_kernel_throughput,
    experiment_e12_spgemm_backends,
    experiment_e14_shard_scaling,
)

__all__ = [
    "ConstantsRow",
    "WarmupConstantsRow",
    "ConstraintRow",
    "CrossValidationRow",
    "ScalingPoint",
    "ScalingResult",
    "WorstCaseRow",
    "IvmRow",
    "OmegaAblationResult",
    "PhaseAblationRow",
    "ThroughputRow",
    "ServiceLoadRow",
    "E12_PRODUCT_VARIANTS",
    "dict_product",
    "dense_product",
    "experiment_e1_theorem_constants",
    "experiment_e2_warmup_constants",
    "experiment_e3_constraint_verification",
    "experiment_e4_cross_validation",
    "experiment_e5_update_scaling",
    "experiment_e6_worst_case",
    "experiment_e7_ivm_join",
    "experiment_e8_omega_ablation",
    "experiment_e9_phase_ablation",
    "experiment_e10_batch_throughput",
    "experiment_e11_kernel_throughput",
    "experiment_e12_spgemm_backends",
    "experiment_e14_shard_scaling",
    "experiment_e15_service_load",
    "artifact_directory",
    "write_bench_artifact",
    "text_table",
    "rows_to_dicts",
]
