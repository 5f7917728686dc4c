"""End-to-end serving smoke check: ``python -m repro.serve.selfcheck``.

Boots a real :class:`~repro.serve.aio.http.AsyncBRSServer` on an
ephemeral port and drives it over HTTP the way CI does:

1. a **cold wave** of concurrent mixed queries, each fired twice so the
   in-flight dedup path is exercised; the wave is driven *open-loop*
   through :mod:`repro.serve.loadgen` (latency measured from intended
   send times — no coordinated omission) and every admitted answer is
   checked for score-equality against a direct
   :class:`~repro.core.slicebrs.SliceBRS` solve of the same normalized
   query;
2. a **warm wave** of the same queries, which must be served from the
   result cache (byte-identical cores, positive hit rate);
3. a **past-deadline probe** (microsecond timeout) that must come back
   ``degraded`` — an anytime answer, not an overrun and not an error;
4. a **backpressure probe**: the engine's open-query capacity is filled
   with slow queries and one more must be explicitly ``rejected``;
5. an **SLO verdict**: the engine's sliding-window tracker must judge the
   whole run healthy against the ``interactive`` objective (the one
   rejection above is designed shedding, within its ceiling), and the
   p99 that ``histogram_quantile`` reads off the latency histogram must
   agree with the tracker's p99 over its raw samples within
   :data:`P99_AGREEMENT` — the widest ratio between adjacent latency
   buckets;
6. a Prometheus text snapshot written to ``--out`` (and, with
   ``--slo-out``, the SLO snapshot as JSON) for artifact upload.

Exit code 0 when every check passes, 1 otherwise.  Stdlib + repro only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.slicebrs import SliceBRS
from repro.datasets.registry import scalability_dataset
from repro.functions.base import SetFunction
from repro.geometry.rect import Rect
from repro.obs.metrics import Histogram, histogram_quantile
from repro.serve.aio import AsyncBRSServer, AsyncServeEngine
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.loadgen import ScheduledQuery, fire_schedule, summarize
from repro.serve.model import QueryRequest, QueryResponse, quantize
from repro.serve.store import DatasetStore

#: Largest ratio allowed between the histogram's p99 and the SLO
#: tracker's p99 over the same requests: the widest step between
#: adjacent bounds of the engine's latency buckets (2 -> 5).
P99_AGREEMENT = 2.5


class _SlowFunction(SetFunction):
    """A score function with an artificial per-evaluation delay.

    Only the selfcheck uses it: queries against it reliably occupy
    admission slots long enough to probe backpressure deterministically.
    """

    def __init__(self, inner: SetFunction, delay: float) -> None:
        """Wrap ``inner``, sleeping ``delay`` seconds per evaluation."""
        self._inner = inner
        self._delay = delay

    @property
    def n_objects(self) -> int:
        """Number of objects of the wrapped function."""
        return self._inner.n_objects

    def value(self, objects: Iterable[int]) -> float:
        """Sleep, then evaluate the wrapped function."""
        time.sleep(self._delay)
        return self._inner.value(objects)


class _Checks:
    """Collects named pass/fail outcomes and prints them as they land."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one check outcome."""
        tag = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{tag}] {name}{suffix}")
        if not ok:
            self.failures.append(name)


def _sizes(space: Rect, count: int) -> List[Tuple[float, float]]:
    """``count`` distinct (a, b) rectangle sizes spanning the space."""
    width = space.x_max - space.x_min
    height = space.y_max - space.y_min
    out = []
    for i in range(count):
        frac = 0.05 + 0.3 * i / max(1, count - 1)
        out.append((quantize(height * frac), quantize(width * frac)))
    return out


def run_selfcheck(
    out_path: Optional[str] = None,
    burst: int = 6,
    capacity: int = 6,
    argv_echo: Optional[Sequence[str]] = None,
    slo_out_path: Optional[str] = None,
) -> int:
    """Run the full smoke sequence; returns a process exit code."""
    checks = _Checks()
    data = scalability_dataset(400, seed=7)
    fast_fn = data.score_function()
    store = DatasetStore()
    store.add_dataset("demo", data)
    store.add_points(
        "treacle",
        data.points,
        _SlowFunction(data.score_function(), delay=0.004),
        fn_key="coverage-slow",
        space=data.space,
    )
    engine = AsyncServeEngine(
        store,
        cache=ResultCache(max_entries=256),
        workers=2,
        queue_capacity=capacity,
    )
    with AsyncBRSServer(engine, port=0) as server:
        client = ServeClient(server.url, timeout=60.0)
        checks.record("healthz", client.healthy())

        sizes = _sizes(data.space, burst)
        requests = [QueryRequest(dataset="demo", a=a, b=b) for a, b in sizes]

        # -- cold wave: every query twice, open-loop ---------------------
        # Driven through the loadgen scheduler so latency is measured
        # from *intended* send times: a server stall widens the recorded
        # percentiles instead of silently delaying later sends (the
        # coordinated-omission failure of the old closed-loop pool).
        schedule = [
            ScheduledQuery(intended=i * 0.002, tenant="public", request=req)
            for i, req in enumerate(requests * 2)
        ]
        with ThreadPoolExecutor(max_workers=len(schedule)) as pool:
            samples = fire_schedule(
                lambda req, tenant: pool.submit(client.query, req),
                schedule,
                wait_timeout=60.0,
            )
        cold_report = summarize(
            samples, target_qps=500.0, offered=len(schedule)
        )
        ordered = sorted(samples, key=lambda s: s.intended)
        cold: List[QueryResponse] = [
            s.response for s in ordered if s.response is not None
        ]
        checks.record(
            "cold wave all ok",
            len(cold) == len(schedule)
            and all(r.status == "ok" for r in cold),
            f"{len(cold)} responses in {cold_report.duration_seconds:.2f}s",
        )
        print(
            f"cold wave (open-loop, intended-time): "
            f"p50={cold_report.p50_seconds * 1000:.1f}ms "
            f"p99={cold_report.p99_seconds * 1000:.1f}ms "
            f"(closed-loop view would claim "
            f"p99={cold_report.naive_p99_seconds * 1000:.1f}ms)"
        )

        solver = SliceBRS()
        exact = True
        for (a, b), resp in zip(sizes, cold[:burst]):
            ref = solver.solve(data.points, fast_fn, a, b)
            if not math.isclose(ref.score, resp.score or -1.0, rel_tol=1e-9,
                                abs_tol=1e-12):
                exact = False
                checks.record(
                    f"exactness a={a} b={b}", False,
                    f"served {resp.score} vs direct {ref.score}",
                )
        checks.record("served scores equal direct SliceBRS", exact)

        spec_solves = engine.registry.counter("brs_serve_spec_solves_total").value
        checks.record(
            "duplicate in-flight queries solved once",
            spec_solves <= len(sizes),
            f"{int(spec_solves)} solves for {len(sizes)} distinct queries "
            f"asked {len(cold)} times",
        )

        # -- warm wave: same queries must come from the cache ------------
        t0 = time.perf_counter()
        warm = [client.query(req) for req in requests]
        warm_seconds = time.perf_counter() - t0
        checks.record(
            "warm wave served from cache",
            all(r.cached and r.status == "ok" for r in warm),
            f"{len(warm)} responses in {warm_seconds:.2f}s",
        )
        checks.record(
            "warm responses byte-identical to cold",
            all(
                w.canonical_bytes() == c.canonical_bytes()
                for w, c in zip(warm, cold[:burst])
            ),
        )
        hit_rate = client.stats()["cache"]["hit_rate"]
        checks.record("cache hit rate positive", hit_rate > 0, f"{hit_rate:.2f}")

        # -- past-deadline probe -----------------------------------------
        probe = client.query(
            QueryRequest(dataset="demo", a=sizes[0][0] * 1.7,
                         b=sizes[0][1] * 1.7, timeout=1e-6)
        )
        checks.record(
            "past-deadline query degrades gracefully",
            probe.status == "degraded" and probe.center is not None,
            f"status={probe.status} solver_status={probe.solver_status}",
        )

        # -- backpressure probe ------------------------------------------
        slow_sizes = _sizes(data.space, capacity + 1)
        slow_reqs = [
            QueryRequest(dataset="treacle", a=a, b=b, timeout=1.5)
            for a, b in slow_sizes
        ]
        with ThreadPoolExecutor(max_workers=capacity) as pool:
            holders = [pool.submit(client.query, req) for req in slow_reqs[:capacity]]
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                if client.stats()["queue"]["open"] >= capacity:
                    break
                time.sleep(0.02)
            overflow = client.query(slow_reqs[capacity])
            checks.record(
                "overload query explicitly rejected",
                overflow.status == "rejected",
                f"status={overflow.status}",
            )
            drained = [f.result() for f in holders]
        checks.record(
            "held queries still answered",
            all(r.status in ("ok", "degraded") for r in drained),
            ",".join(sorted({r.status for r in drained})),
        )

        # -- SLO verdict -------------------------------------------------
        slo = client.debug_slo()
        verdicts = slo["verdicts"]
        checks.record(
            "SLO verdicts all pass",
            slo["healthy"],
            ", ".join(f"{k}={v}" for k, v in verdicts.items()),
        )
        metric = engine.registry.metrics().get("brs_serve_request_seconds")
        if isinstance(metric, Histogram) and metric.count:
            hist_p99 = histogram_quantile(metric, 0.99)
            print(
                f"latency (histogram_quantile over {metric.count} requests): "
                f"p50={histogram_quantile(metric, 0.5) * 1000:.1f}ms "
                f"p99={hist_p99 * 1000:.1f}ms"
            )
            low, high = sorted((hist_p99, slo["p99_seconds"]))
            checks.record(
                "histogram p99 agrees with the SLO tracker's",
                high <= P99_AGREEMENT * low,
                f"{hist_p99 * 1000:.1f}ms vs {slo['p99_seconds'] * 1000:.1f}ms, "
                f"allowed ratio {P99_AGREEMENT}",
            )
        print(
            f"slo[{slo['tier']}]: p50={slo['p50_seconds'] * 1000:.1f}ms "
            f"p99={slo['p99_seconds'] * 1000:.1f}ms "
            f"burn={slo['error_budget_burn']:.2f} "
            f"shed={slo['shed_ratio']:.3f} "
            f"window={slo['window_requests']}"
        )
        if slo_out_path:
            with open(slo_out_path, "w", encoding="utf-8") as fh:
                json.dump(slo, fh, indent=2, sort_keys=True)
            print(f"SLO snapshot written to {slo_out_path}")

        # -- metrics artifact --------------------------------------------
        text = client.metrics_text()
        required = (
            "brs_serve_requests_total",
            "brs_serve_request_seconds",
            "brs_result_cache_hits_total",
            "brs_tenant_open",
            "brs_serve_inflight",
            "brs_slo_p99_seconds",
            "brs_slo_error_budget_burn",
        )
        checks.record(
            "metrics exposition complete",
            all(name in text for name in required),
        )
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"metrics snapshot written to {out_path}")

    if checks.failures:
        print(f"selfcheck FAILED: {', '.join(checks.failures)}")
        return 1
    print("selfcheck passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for the smoke check."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.selfcheck",
        description="end-to-end smoke check of the repro serving stack",
    )
    parser.add_argument(
        "--out", default=None, help="write the Prometheus metrics snapshot here"
    )
    parser.add_argument(
        "--burst", type=int, default=6, help="distinct queries per wave"
    )
    parser.add_argument(
        "--capacity", type=int, default=6,
        help="admission capacity of the engine under test",
    )
    parser.add_argument(
        "--slo-out", default=None,
        help="write the SLO snapshot here as JSON",
    )
    args = parser.parse_args(argv)
    return run_selfcheck(out_path=args.out, burst=args.burst,
                         capacity=args.capacity, slo_out_path=args.slo_out)


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
