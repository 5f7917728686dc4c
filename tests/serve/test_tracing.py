"""End-to-end request tracing and SLO/gauge surfaces over HTTP.

Acceptance for the telemetry tentpole: a served query whose client runs
under a trace scope must yield ONE span tree — ``client.query`` at the
root, the server's ``server.request`` under it (stitched via the
``X-BRS-Trace`` header), ``serve.query`` under that, and solver spans
below — all in the same trace file.
"""

from __future__ import annotations

import time

import pytest

from concurrent.futures import ThreadPoolExecutor

from repro.datasets.registry import scalability_dataset
from repro.obs.trace import Tracer, span_tree, trace_scope
from repro.serve.aio import AsyncBRSServer, AsyncServeEngine
from repro.serve.client import ServeClient
from repro.serve.model import QueryRequest
from repro.serve.store import DatasetStore
from tests.helpers import GatedFunction


def _data():
    return scalability_dataset(100, seed=9)


def _serve(fn=None):
    """A traced server over ``demo``, scored by ``fn`` when given."""
    data = _data()
    store = DatasetStore()
    if fn is None:
        store.add_dataset("demo", data)
    else:
        store.add_points("demo", data.points, fn)
    # One shared tracer: the engine records into the same sink the client
    # scope uses, so the merged stream is directly assertable.
    events = []
    tracer = Tracer(events)
    engine = AsyncServeEngine(store, workers=2, tracer=tracer)
    return AsyncBRSServer(engine, port=0), tracer, events


@pytest.fixture()
def served_engine():
    server, tracer, events = _serve()
    with server:
        yield server, tracer, events


def _tree_and_names(events):
    tree = span_tree(events)
    name_of = {
        e["id"]: e["span"] for e in events if e.get("ev") == "enter"
    }
    return tree, name_of


def _descendants(tree, root):
    out = set()
    frontier = list(tree.get(root, []))
    while frontier:
        node = frontier.pop()
        out.add(node)
        frontier.extend(tree.get(node, []))
    return out


class TestHttpTracePropagation:
    def test_served_query_forms_one_tree(self, served_engine):
        server, tracer, events = served_engine
        client = ServeClient(server.url, timeout=30.0)
        with trace_scope(tracer):
            response = client.query(QueryRequest(dataset="demo", a=2.0, b=2.0))
        assert response.status == "ok"
        tree, name_of = _tree_and_names(events)

        client_roots = [
            i for i in tree.get(None, []) if name_of[i] == "client.query"
        ]
        assert len(client_roots) == 1
        below = _descendants(tree, client_roots[0])
        names_below = {name_of[i] for i in below}
        # HTTP accept, engine solve, and solver internals all hang off
        # the client span: one tree from client call to solver leaf.
        assert "server.request" in names_below
        assert "serve.query" in names_below
        assert "slicebrs.solve" in names_below

    def test_trace_ids_agree_across_the_hop(self, served_engine):
        server, tracer, events = served_engine
        client = ServeClient(server.url, timeout=30.0)
        with trace_scope(tracer):
            client.query(QueryRequest(dataset="demo", a=2.0, b=2.0))
        server_enter = next(
            e for e in events
            if e.get("ev") == "enter" and e.get("span") == "server.request"
        )
        assert server_enter["trace_id"] == tracer.trace_id

    def test_untraced_client_still_served_with_root_request_span(
        self, served_engine
    ):
        server, tracer, events = served_engine
        client = ServeClient(server.url, timeout=30.0)
        # No trace_scope: no header is sent, the request must still work
        # and the server records its own root span.
        response = client.query(QueryRequest(dataset="demo", a=1.5, b=1.5))
        assert response.status == "ok"
        tree, name_of = _tree_and_names(events)
        roots = [i for i in tree.get(None, []) if name_of[i] == "server.request"]
        assert roots, "server.request should be a root without a client span"

    @pytest.mark.parametrize("traced_clients", [False, True])
    def test_concurrent_requests_get_their_own_trees(self, traced_clients):
        # Every connection shares the server's event-loop thread; the
        # gate holds the solves until all the requests are open there.
        gate = GatedFunction(_data().score_function())
        server, tracer, events = _serve(gate)
        requests = [
            QueryRequest(dataset="demo", a=1.0 + 0.25 * i, b=1.5)
            for i in range(8)
        ]

        def ask(request):
            client = ServeClient(server.url, timeout=30.0)
            if not traced_clients:
                return client.query(request)
            with trace_scope(tracer):
                return client.query(request)

        with server, ThreadPoolExecutor(max_workers=len(requests)) as pool:
            try:
                pending = [pool.submit(ask, r) for r in requests]
                deadline = time.monotonic() + 10.0
                while (
                    server.engine.stats()["queue"]["inflight"] < len(requests)
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert server.engine.stats()["queue"]["inflight"] == len(
                    requests
                )
            finally:
                gate.release()
            responses = [f.result(timeout=60) for f in pending]
        assert all(r.status == "ok" for r in responses)
        tree, name_of = _tree_and_names(events)
        parent_of = {
            child: parent for parent, children in tree.items()
            for child in children
        }
        handled = [i for i in name_of if name_of[i] == "server.request"]
        assert len(handled) == len(requests)
        for span_id in handled:
            parent = parent_of[span_id]
            if traced_clients:
                assert name_of[parent] == "client.query"
            else:
                assert parent is None
            below = [name_of[c] for c in tree.get(span_id, [])]
            assert below == ["serve.query"]
        if traced_clients:
            # Each client span holds exactly one server span.
            assert len({parent_of[i] for i in handled}) == len(requests)

    def test_malformed_trace_header_is_ignored(self, served_engine):
        server, tracer, events = served_engine
        client = ServeClient(server.url, timeout=30.0)
        doc = client._call(
            "POST", "/v1/query",
            QueryRequest(dataset="demo", a=1.0, b=1.0).to_json(),
            extra_headers={"X-BRS-Trace": ":::not-a-context:::"},
        )
        assert doc["status"] == "ok"


class TestServeGauges:
    def test_inflight_gauge_returns_to_zero(self, served_engine):
        server, tracer, events = served_engine
        client = ServeClient(server.url, timeout=30.0)
        client.query(QueryRequest(dataset="demo", a=2.0, b=2.0))
        registry = server.engine.registry
        assert registry.gauge("brs_serve_inflight").value == 0.0
        assert registry.gauge("brs_tenant_open").value == 0.0

    def test_metrics_exposition_has_slo_and_inflight(self, served_engine):
        server, tracer, events = served_engine
        client = ServeClient(server.url, timeout=30.0)
        client.query(QueryRequest(dataset="demo", a=2.0, b=2.0))
        text = client.metrics_text()
        for name in (
            "brs_serve_inflight",
            "brs_tenant_open",
            "brs_slo_p50_seconds",
            "brs_slo_p99_seconds",
            "brs_slo_error_budget_burn",
            "brs_slo_healthy",
        ):
            assert name in text

    def test_healthz_and_debug_slo(self, served_engine):
        server, tracer, events = served_engine
        client = ServeClient(server.url, timeout=30.0)
        client.query(QueryRequest(dataset="demo", a=2.0, b=2.0))
        assert client.healthy()
        slo = client.debug_slo()
        assert slo["tier"] == "interactive"
        assert slo["healthy"] is True
        assert slo["counts"]["ok"] >= 1

    def test_stats_embeds_slo_snapshot(self, served_engine):
        server, tracer, events = served_engine
        client = ServeClient(server.url, timeout=30.0)
        client.query(QueryRequest(dataset="demo", a=2.0, b=2.0))
        stats = client.stats()
        assert stats["slo"]["window_requests"] >= 1
