"""Runtime lock-order pass over the async tier's hot paths.

Constructs the full :class:`AsyncServeEngine` stack *inside*
:func:`~repro.analysis.sanitizer.instrument_locks`, so every
``threading.Lock``/``RLock`` the repro package creates (fair queue,
admission, cache, planner, SLO tracker, scheduler bookkeeping) becomes a
sanitized lock.  Then it drives the paths where tenant quotas and
request coalescing interleave from many threads at once and asserts the
observed lock-order graph has no inversions — the dynamic complement to
the static BRS010/BRS011 rules.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.analysis.sanitizer import instrument_locks
from repro.datasets.registry import scalability_dataset
from repro.serve.aio.engine import AsyncServeEngine
from repro.serve.model import QueryRequest
from repro.serve.store import DatasetStore
from repro.serve.tenancy import TenantRegistry, TenantSpec


def test_quota_and_coalescing_paths_have_no_lock_inversions():
    data = scalability_dataset(100, seed=4)

    with instrument_locks() as san:
        store = DatasetStore()
        store.add_dataset("demo", data)
        tenants = TenantRegistry()
        tenants.register(TenantSpec(id="alpha", weight=2.0, quota=4))
        tenants.register(TenantSpec(id="beta", weight=1.0, quota=2))
        engine = AsyncServeEngine(
            store, tenants=tenants, workers=2, queue_capacity=16
        )
        engine.start_background()
        try:
            def client(worker):
                # Identical rectangles across workers: the coalescing
                # path runs concurrently with quota admits/releases and
                # occasional rejections (beta's quota is tiny).
                tenant = "alpha" if worker % 2 == 0 else "beta"
                futures = [
                    engine.submit_threadsafe(
                        QueryRequest(
                            dataset="demo",
                            a=4.0 + (i % 3),
                            b=6.0 + (i % 3),
                        ),
                        tenant=tenant,
                    )
                    for i in range(8)
                ]
                return [f.result(timeout=60) for f in futures]

            with ThreadPoolExecutor(max_workers=4) as pool:
                rounds = list(pool.map(client, range(4)))
            # Mid-flight control-plane traffic shares the same locks.
            engine.invalidate("demo")
            engine.stats()
            engine.tenants_snapshot()
            engine.query(QueryRequest(dataset="demo", a=5.0, b=7.0),
                         tenant="alpha", timeout=60)
        finally:
            engine.close()

    statuses = {r.status for responses in rounds for r in responses}
    assert "ok" in statuses  # the drive actually exercised the solve path
    report = san.report()
    assert report["inversions"] == []
    assert san.clean
    # The pass covered project locks, not a vacuous no-op run.
    serve_locks = [name for name in report["locks"] if "serve" in name]
    assert serve_locks
