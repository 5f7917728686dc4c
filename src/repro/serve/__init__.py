"""Query-serving subsystem: result caching, dedup, admission control.

The paper frames BRS as the inner loop of *data exploration* — many
users re-asking similar best-region queries against a few datasets.  This
package turns the solver stack into a long-lived service shaped for that
workload:

* :mod:`repro.serve.model` — the canonical query: normalization and
  quantization, cache keys, and the cacheable response core.
* :mod:`repro.serve.cache` — a versioned, size-bounded LRU result cache
  with hit/miss/eviction metrics and dataset-version invalidation.
* :mod:`repro.serve.store` — the datasets a server answers for, each with
  a version that query keys embed.
* :mod:`repro.serve.planner` — dedup of identical in-flight queries.
* :mod:`repro.serve.solvecore` — :class:`QuerySolver`, the
  solve-one-query core the engine executes, with the degradation ladder
  (exact → cover → gridscan) the pressure monitor drives.
* :mod:`repro.serve.tenancy` / :mod:`repro.serve.fairqueue` /
  :mod:`repro.serve.pressure` — per-tenant quotas under a global
  open-query capacity, start-time-fair queueing with a provable bypass
  bound, and the hysteresis ladder that sheds load when backlog or SLO
  burn climbs.
* :mod:`repro.serve.aio` — :class:`AsyncServeEngine`, the serve engine
  (admission → cache → dedup → fair queue → solve, with per-request
  :class:`~repro.runtime.budget.Budget` deadlines and degraded anytime
  answers on expiry), and :class:`AsyncBRSServer`, its stdlib-only
  asyncio HTTP front end (``repro-brs serve``).
* :mod:`repro.serve.client` — the JSON protocol client.
* :mod:`repro.serve.loadgen` — open-loop, coordinated-omission-safe
  load generation (Poisson arrivals, per-tenant mixes, saturation
  sweeps) feeding the ``serve-saturation`` experiment.
* :mod:`repro.serve.selfcheck` — the end-to-end smoke driver CI runs.
"""

from repro.serve.aio import AsyncBRSServer, AsyncServeEngine
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.fairqueue import WeightedFairQueue, bypass_bound
from repro.serve.loadgen import (
    LoadReport,
    LoadSample,
    ScheduledQuery,
    WorkloadMix,
    fire_schedule,
    poisson_schedule,
    run_load,
    saturation_sweep,
    summarize,
)
from repro.serve.model import (
    PROTOCOL_VERSION,
    QUANT_SIG_DIGITS,
    SERVE_STATUSES,
    CacheKey,
    QueryRequest,
    QueryResponse,
    normalize_query,
    quantize,
)
from repro.serve.planner import BatchPlanner, PlannedQuery
from repro.serve.pressure import PressureMonitor, PressurePolicy
from repro.serve.solvecore import QuerySolver
from repro.serve.store import DatasetStore, ServedDataset
from repro.serve.tenancy import TenantAdmission, TenantRegistry, TenantSpec

__all__ = [
    "PROTOCOL_VERSION",
    "QUANT_SIG_DIGITS",
    "SERVE_STATUSES",
    "AsyncBRSServer",
    "AsyncServeEngine",
    "BatchPlanner",
    "CacheKey",
    "CacheStats",
    "DatasetStore",
    "LoadReport",
    "LoadSample",
    "PlannedQuery",
    "PressureMonitor",
    "PressurePolicy",
    "QueryRequest",
    "QueryResponse",
    "QuerySolver",
    "ResultCache",
    "ScheduledQuery",
    "ServeClient",
    "ServeClientError",
    "ServedDataset",
    "TenantAdmission",
    "TenantRegistry",
    "TenantSpec",
    "WeightedFairQueue",
    "WorkloadMix",
    "bypass_bound",
    "fire_schedule",
    "normalize_query",
    "poisson_schedule",
    "quantize",
    "run_load",
    "saturation_sweep",
    "summarize",
]
