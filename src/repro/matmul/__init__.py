"""Label-keyed count matrices and their exact product, the concrete product
cost model, and the phase work scheduler."""

from repro.matmul.engine import CountMatrix, CountMatrixCSR, SymmetricCountMatrix, multiply
from repro.matmul.scheduler import ChainProductJob, IncrementalMatrixProduct, PhaseScheduler
from repro.matmul.sharding import ShardExecutor, ShardPlan

__all__ = [
    "CountMatrix",
    "CountMatrixCSR",
    "SymmetricCountMatrix",
    "multiply",
    "ChainProductJob",
    "IncrementalMatrixProduct",
    "PhaseScheduler",
    "ShardExecutor",
    "ShardPlan",
]
