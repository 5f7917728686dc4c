"""Per-tenant dataset registry and admission quotas for the serve tier.

ROADMAP item 2's "millions of users" resolve, at the serve boundary,
into *tenants*: named principals with a scheduling weight (how much of
the machine they deserve under contention), an admission quota (how many
of their queries may be open at once), and an optional dataset allow
list.  This module keeps that bookkeeping out of the engines:

* :class:`TenantSpec` — the declarative per-tenant policy.
* :class:`TenantRegistry` — id → spec resolution with a permissive
  default tenant, so single-tenant deployments need no configuration.
* :class:`TenantAdmission` — per-tenant open-query quotas layered under
  a global capacity; quota rejections are the *first* shedding stage
  (cheaper than queueing work that fairness would stall anyway).

The metrics registry is label-free, so the fixed gauges/counters here
carry aggregates (``brs_tenant_open``, ``brs_tenant_rejected_total``);
per-tenant breakdowns are exposed through :meth:`TenantAdmission.stats`
and surface in the stats/tenants JSON endpoints.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional

from repro.obs.metrics import active_registry
from repro.runtime.errors import AdmissionRejectedError, InvalidQueryError

#: Tenant id applied to requests that do not identify themselves.
DEFAULT_TENANT = "public"

#: Open-query quota granted to unregistered tenants.
DEFAULT_QUOTA = 16

#: Scheduling weight granted to unregistered tenants.
DEFAULT_WEIGHT = 1.0


@dataclass(frozen=True)
class TenantSpec:
    """Declarative policy for one tenant.

    Attributes:
        id: tenant identifier (the ``X-BRS-Tenant`` header value).
        weight: weighted-fair-queue share under contention.
        quota: maximum open (admitted, unanswered) queries.
        datasets: dataset ids this tenant may query; ``None`` = all.
    """

    id: str
    weight: float = DEFAULT_WEIGHT
    quota: int = DEFAULT_QUOTA
    datasets: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        """Validate the spec's invariants at construction.

        Raises:
            ValueError: on an empty id, non-positive weight, or
                non-positive quota.
        """
        if not self.id:
            raise ValueError("tenant id must be non-empty")
        if not (self.weight > 0):
            raise ValueError(
                f"tenant {self.id!r} weight must be positive, got {self.weight!r}"
            )
        if self.quota <= 0:
            raise ValueError(
                f"tenant {self.id!r} quota must be positive, got {self.quota!r}"
            )

    def allows(self, dataset: str) -> bool:
        """Whether this tenant may query ``dataset``."""
        return self.datasets is None or dataset in self.datasets

    def describe(self) -> Dict[str, Any]:
        """JSON-serializable summary for the tenants endpoint."""
        return {
            "id": self.id,
            "weight": self.weight,
            "quota": self.quota,
            "datasets": sorted(self.datasets) if self.datasets is not None else None,
        }


class TenantRegistry:
    """Thread-safe id → :class:`TenantSpec` resolution.

    Unknown ids resolve to a default-policy spec (default weight and
    quota, all datasets), so tenancy is opt-in configuration rather than
    a deployment prerequisite.
    """

    def __init__(self, specs: Optional[List[TenantSpec]] = None) -> None:
        self._specs: Dict[str, TenantSpec] = {}
        self._lock = threading.Lock()
        for spec in specs or []:
            self.register(spec)

    def register(self, spec: TenantSpec) -> None:
        """Add or replace one tenant's policy."""
        with self._lock:
            self._specs[spec.id] = spec

    def resolve(self, tenant_id: Optional[str]) -> TenantSpec:
        """The policy governing ``tenant_id`` (default policy if unknown)."""
        tid = tenant_id or DEFAULT_TENANT
        with self._lock:
            spec = self._specs.get(tid)
        if spec is not None:
            return spec
        return TenantSpec(id=tid)

    def authorize(self, tenant_id: Optional[str], dataset: str) -> TenantSpec:
        """Resolve and check dataset access in one step.

        Raises:
            InvalidQueryError: when the tenant's allow list excludes
                ``dataset`` (surfaces as a 4xx error response, not a
                shed — policy violations must not look like overload).
        """
        spec = self.resolve(tenant_id)
        if not spec.allows(dataset):
            raise InvalidQueryError(
                f"tenant {spec.id!r} is not authorized for dataset {dataset!r}"
            )
        return spec

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-serializable list of registered tenant policies."""
        with self._lock:
            specs = sorted(self._specs.values(), key=lambda s: s.id)
        return [spec.describe() for spec in specs]

    def weights(self) -> Dict[str, float]:
        """``tenant id -> weight`` for seeding the fair queue."""
        with self._lock:
            return {tid: spec.weight for tid, spec in self._specs.items()}


@dataclass
class _TenantCounters:
    """Mutable per-tenant admission bookkeeping."""

    open: int = 0
    admitted_total: int = 0
    rejected_total: int = 0
    released_total: int = 0


class TenantAdmission:
    """Per-tenant open-query quotas under an optional global capacity.

    Admission is monotone in quota: raising one tenant's quota (holding
    the arrival/release sequence fixed and the global capacity
    unconstrained) never turns one of its admitted requests into a
    rejection — the property suite pins this down.

    Args:
        registry: tenant policy source.
        capacity: global open-query ceiling across tenants; ``None``
            leaves only per-tenant quotas in force.
    """

    def __init__(
        self, registry: TenantRegistry, capacity: Optional[int] = None
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.registry = registry
        self.capacity = capacity
        self._counters: Dict[str, _TenantCounters] = {}
        self._open_total = 0
        self._lock = threading.Lock()

    def _counter(self, tenant_id: str) -> _TenantCounters:
        counters = self._counters.get(tenant_id)
        if counters is None:
            counters = self._counters[tenant_id] = _TenantCounters()
        return counters

    def admit(self, tenant_id: Optional[str]) -> TenantSpec:
        """Admit one query for ``tenant_id`` or raise.

        Raises:
            AdmissionRejectedError: when the tenant's quota or the global
                capacity is exhausted.  The caller records the rejection
                as a shed outcome.
        """
        spec = self.registry.resolve(tenant_id)
        with self._lock:
            counters = self._counter(spec.id)
            rejected: Optional[AdmissionRejectedError] = None
            if counters.open >= spec.quota:
                rejected = AdmissionRejectedError(
                    f"tenant {spec.id!r} quota exhausted "
                    f"({counters.open}/{spec.quota} open)",
                    queue_depth=counters.open,
                    capacity=spec.quota,
                )
            elif self.capacity is not None and self._open_total >= self.capacity:
                rejected = AdmissionRejectedError(
                    f"serve capacity exhausted "
                    f"({self._open_total}/{self.capacity} open)",
                    queue_depth=self._open_total,
                    capacity=self.capacity,
                )
            if rejected is not None:
                counters.rejected_total += 1
            else:
                counters.open += 1
                counters.admitted_total += 1
                self._open_total += 1
        if rejected is not None:
            active_registry().counter(
                "brs_tenant_rejected_total",
                help="queries rejected by tenant quota or serve capacity",
            ).inc()
            self._publish()
            raise rejected
        self._publish()
        return spec

    def release(self, tenant_id: Optional[str]) -> None:
        """Return one admitted query's slot."""
        tid = self.registry.resolve(tenant_id).id
        with self._lock:
            counters = self._counter(tid)
            if counters.open > 0:
                counters.open -= 1
                counters.released_total += 1
            if self._open_total > 0:
                self._open_total -= 1
        self._publish()

    def _publish(self) -> None:
        registry = active_registry()
        with self._lock:
            open_total = self._open_total
            active = sum(1 for c in self._counters.values() if c.open > 0)
        registry.gauge(
            "brs_tenant_open",
            help="admitted, unanswered queries across all tenants",
        ).set(float(open_total))
        registry.gauge(
            "brs_tenant_active",
            help="tenants with at least one open query",
        ).set(float(active))

    @property
    def open_total(self) -> int:
        """Admitted, unanswered queries across all tenants."""
        with self._lock:
            return self._open_total

    def open_count(self, tenant_id: str) -> int:
        """Open queries for one tenant."""
        with self._lock:
            counters = self._counters.get(tenant_id)
            return counters.open if counters is not None else 0

    def stats(self) -> Dict[str, Any]:
        """Per-tenant admission counters for the stats endpoint."""
        with self._lock:
            per_tenant = {
                tid: {
                    "open": c.open,
                    "admitted_total": c.admitted_total,
                    "rejected_total": c.rejected_total,
                    "released_total": c.released_total,
                }
                for tid, c in sorted(self._counters.items())
            }
            return {
                "open_total": self._open_total,
                "capacity": self.capacity,
                "tenants": per_tenant,
            }
