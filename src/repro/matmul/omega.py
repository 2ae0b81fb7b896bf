"""Concrete, constant-aware product cost model.

The *asymptotic* exponent models (``omega``, rectangular ``omega(a, b, c)``,
:class:`~repro.theory.omega.OmegaModel` and the canonical instances) live in
:mod:`repro.theory.omega`.  This module holds what the running code needs
instead: per-product estimates to dispatch between the dense BLAS kernel and
the vectorized CSR SpGEMM kernel, and per-shard estimates to choose a process
pool over a thread pool.  The unit is one dense BLAS multiply-add; the other
constants are calibrated ratios measured on the E12 benchmark workloads
(numpy gather/sort-reduce per expanded SpGEMM entry, interpreter dict probing
per merged dict entry).
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "DENSE_FLOP_COST",
    "CSR_OP_COST",
    "DICT_OP_COST",
    "VECTORIZED_PRODUCT_OVERHEAD",
    "PROCESS_SHARD_OVERHEAD",
    "product_cost_estimates",
]

#: Cost of one dense BLAS multiply-add (the unit of this model).
DENSE_FLOP_COST = 1.0

#: Cost of one expanded SpGEMM entry (gather + repeat + sort-reduce share).
CSR_OP_COST = 48.0

#: Cost of merging one entry into a label-keyed dict (hash, probe, boxed
#: arithmetic); the counters' batch-path prices charge it per label-keyed
#: operation.
DICT_OP_COST = 600.0

#: Fixed per-product overhead of a vectorized kernel launch, in cost units.
VECTORIZED_PRODUCT_OVERHEAD = 20000.0

#: Per-shard overhead of dispatching one SpGEMM shard to a *process* pool —
#: pickling the column-compressed view out, the result back, and the pool's
#: own task machinery — in the same cost units.  A shard whose expansion work
#: (at :data:`CSR_OP_COST` per entry) is below this is cheaper on a thread
#: pool, where numpy's GIL-releasing passes still overlap but nothing pays
#: serialization; see :class:`repro.matmul.sharding.ShardExecutor`.
PROCESS_SHARD_OVERHEAD = 2e7


def product_cost_estimates(
    rows: int, middles: int, columns: int, expansion_work: int
) -> Dict[str, float]:
    """Estimated costs of one product on each kernel, in dense-flop units.

    ``expansion_work`` is the exact SpGEMM expansion size (see
    :func:`repro.matmul.engine.spgemm_work`); ``rows``/``middles``/``columns``
    are the trimmed dense dimensions.  Used by
    :class:`repro.matmul.scheduler.ProductDispatcher`.
    """
    return {
        "dense": float(rows) * float(middles) * float(columns) * DENSE_FLOP_COST
        + VECTORIZED_PRODUCT_OVERHEAD,
        "csr": float(expansion_work) * CSR_OP_COST + VECTORIZED_PRODUCT_OVERHEAD,
    }
