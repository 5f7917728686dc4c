"""Multiprocessing shard-solve backend for partitioned best-region search.

Public surface:

* :func:`~repro.parallel.backend.solve_partitioned` — the exact
  partitioned solver across a process pool (one in-process exact call
  without one).
* :func:`~repro.parallel.spec.function_spec` and the spec classes — the
  picklable function descriptors workers bootstrap from.
* The worker-side message types, exposed for tests and instrumentation.
"""

from repro.parallel.backend import (
    START_METHOD_ENV,
    default_start_method,
    solve_partitioned,
)
from repro.parallel.spec import (
    CoverageFunctionSpec,
    FunctionSpec,
    PickledFunctionSpec,
    SumFunctionSpec,
    function_spec,
)
from repro.parallel.worker import (
    ShardOutcome,
    ShardTask,
    WorkerPayload,
)

__all__ = [
    "START_METHOD_ENV",
    "default_start_method",
    "solve_partitioned",
    "function_spec",
    "FunctionSpec",
    "SumFunctionSpec",
    "CoverageFunctionSpec",
    "PickledFunctionSpec",
    "WorkerPayload",
    "ShardTask",
    "ShardOutcome",
]
