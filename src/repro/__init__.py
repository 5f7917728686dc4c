"""repro — Best Region Search for Data Exploration (SIGMOD 2016 reproduction).

Given spatial objects, a submodular monotone score function, and a query
rectangle size, find the region placement maximizing the score of the
enclosed objects.  Quick start::

    from repro import CoverageFunction, Point, best_region

    points = [Point(0.0, 0.0), Point(0.5, 0.2), Point(5.0, 5.0)]
    tags = [{"cafe"}, {"museum"}, {"cafe"}]
    result = best_region(points, CoverageFunction(tags), a=2.0, b=2.0)
    print(result.point, result.score)

Subpackages: :mod:`repro.core` (algorithms), :mod:`repro.functions`
(submodular scores), :mod:`repro.geometry`, :mod:`repro.index`,
:mod:`repro.cover`, :mod:`repro.influence`, :mod:`repro.network`,
:mod:`repro.datasets`, :mod:`repro.io`, :mod:`repro.bench`,
:mod:`repro.runtime` (budgets, fault injection, error taxonomy),
:mod:`repro.obs` (metrics, tracing, profiling), :mod:`repro.serve`
(query serving with result caching, dedup and admission control),
:mod:`repro.parallel` (multiprocessing shard-solve backend),
:mod:`repro.columnar` (NumPy columnar data plane with vectorized
solver kernels).
"""

from repro.columnar import (
    ColumnarDataset,
    columnar_best_region,
    columnar_oe_maxrs,
    columnar_slicebrs,
)
from repro.core import (
    BRSResult,
    CoverBRS,
    ExplorationSession,
    NaiveBRS,
    SliceBRS,
    best_region,
    coarse_grid_scan,
    oe_maxrs,
    partitioned_best_region,
    sampled_maxrs,
    slicebrs_maxrs,
    topk_regions,
)
from repro.functions import (
    CoverageFunction,
    SetFunction,
    SumFunction,
    check_submodular_monotone,
)
from repro.geometry import Point, Rect
from repro.parallel import solve_partitioned
from repro.obs import (
    JsonlTraceWriter,
    MetricsRegistry,
    Tracer,
    metrics_scope,
    profile_scope,
    to_prometheus_text,
    trace_scope,
    write_metrics,
)
from repro.serve import (
    AsyncBRSServer,
    AsyncServeEngine,
    DatasetStore,
    QueryRequest,
    QueryResponse,
    ResultCache,
    ServeClient,
)
from repro.runtime import (
    BRSError,
    Budget,
    BudgetExceededError,
    EvaluationError,
    FaultPlan,
    FaultyFunction,
    InternalInvariantError,
    InvalidQueryError,
    RetryingFunction,
    budget_scope,
)

__version__ = "1.2.0"

__all__ = [
    "AsyncBRSServer",
    "AsyncServeEngine",
    "BRSError",
    "BRSResult",
    "Budget",
    "BudgetExceededError",
    "ColumnarDataset",
    "CoverBRS",
    "CoverageFunction",
    "DatasetStore",
    "EvaluationError",
    "FaultPlan",
    "FaultyFunction",
    "InternalInvariantError",
    "InvalidQueryError",
    "JsonlTraceWriter",
    "MetricsRegistry",
    "NaiveBRS",
    "Point",
    "QueryRequest",
    "QueryResponse",
    "Rect",
    "ResultCache",
    "RetryingFunction",
    "ServeClient",
    "SetFunction",
    "SliceBRS",
    "SumFunction",
    "Tracer",
    "ExplorationSession",
    "best_region",
    "budget_scope",
    "coarse_grid_scan",
    "columnar_best_region",
    "columnar_oe_maxrs",
    "columnar_slicebrs",
    "metrics_scope",
    "partitioned_best_region",
    "check_submodular_monotone",
    "oe_maxrs",
    "profile_scope",
    "sampled_maxrs",
    "slicebrs_maxrs",
    "solve_partitioned",
    "to_prometheus_text",
    "topk_regions",
    "trace_scope",
    "write_metrics",
    "__version__",
]
