"""End-to-end tests of the HTTP front end and its client."""

import json
import signal
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.slicebrs import SliceBRS
from repro.datasets.registry import scalability_dataset
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.ingest.events import Insert
from repro.ingest.live import LiveDataset
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.wal import IngestLog, read_log
from repro.serve.aio import AsyncBRSServer, AsyncServeEngine
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.model import QueryRequest
from repro.serve.store import DatasetStore
from tests.helpers import GatedFunction


@pytest.fixture(scope="module")
def data():
    return scalability_dataset(100, seed=9)


@pytest.fixture()
def server(data):
    store = DatasetStore()
    store.add_dataset("demo", data)
    engine = AsyncServeEngine(store, workers=2)
    with AsyncBRSServer(engine, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout=30.0)


class TestQueryEndpoint:
    def test_roundtrip_matches_direct_solve(self, client, data):
        resp = client.query(QueryRequest(dataset="demo", a=400.0, b=600.0))
        assert resp.status == "ok"
        direct = SliceBRS().solve(
            data.points, data.score_function(), 400.0, 600.0
        )
        assert resp.score == pytest.approx(direct.score, abs=1e-9)

    def test_second_query_served_from_cache(self, client):
        req = QueryRequest(dataset="demo", a=300.0, b=500.0)
        assert not client.query(req).cached
        assert client.query(req).cached

    def test_unknown_dataset_is_http_400(self, client):
        doc = client.query_raw({"dataset": "nope", "a": 1.0, "b": 1.0})
        assert "unknown dataset" in doc["error"]

    def test_unknown_field_is_http_400(self, client):
        doc = client.query_raw({"dataset": "demo", "a": 1.0, "b": 1.0, "x": 2})
        assert "unknown request fields" in doc["error"]

    def test_malformed_body_is_http_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/query",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            assert "not valid JSON" in json.loads(exc.read())["error"]

    def test_empty_focus_is_http_400(self, server):
        body = {"dataset": "demo", "a": 1.0, "b": 1.0,
                "focus": [-10.0, -9.0, -10.0, -9.0]}
        req = urllib.request.Request(
            server.url + "/v1/query",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            assert "no objects" in json.loads(exc.read())["error"]

    def test_rejected_query_is_http_429(self, data):
        # The gate holds the one admitted query in flight, so the
        # engine's single slot stays taken while the requests below ask.
        gate = GatedFunction(data.score_function())
        store = DatasetStore()
        store.add_points("demo", data.points, gate)
        engine = AsyncServeEngine(store, workers=1, queue_capacity=1)
        with AsyncBRSServer(engine, port=0) as srv:
            c = ServeClient(srv.url, timeout=30.0)
            try:
                held = engine.submit_threadsafe(
                    QueryRequest(dataset="demo", a=210.0, b=330.0)
                )
                req = urllib.request.Request(
                    srv.url + "/v1/query",
                    data=json.dumps(
                        {"dataset": "demo", "a": 10.0, "b": 16.0}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                try:
                    urllib.request.urlopen(req, timeout=10)
                    raise AssertionError("expected HTTP 429")
                except urllib.error.HTTPError as exc:
                    assert exc.code == 429
                    assert json.loads(exc.read())["status"] == "rejected"
                # The typed client surfaces the same thing as data, not an
                # error.
                rejected = c.query(
                    QueryRequest(dataset="demo", a=11.0, b=17.0)
                )
                assert rejected.status == "rejected"
            finally:
                gate.release()
            assert held.result(timeout=60).status == "ok"


class TestOperationalEndpoints:
    def test_healthz(self, client):
        assert client.healthy()

    def test_datasets_listing(self, client):
        listing = client.datasets()
        assert [d["id"] for d in listing] == ["demo"]
        assert listing[0]["version"] == 1

    def test_stats_shape(self, client):
        client.query(QueryRequest(dataset="demo", a=250.0, b=400.0))
        stats = client.stats()
        assert stats["protocol"] == 1
        assert stats["cache"]["misses"] >= 1
        assert stats["queue"]["capacity"] > 0

    def test_invalidate_bumps_version(self, client):
        req = QueryRequest(dataset="demo", a=275.0, b=425.0)
        v0 = client.query(req).version
        dataset, version = client.invalidate("demo")
        assert (dataset, version) == ("demo", v0 + 1)
        after = client.query(req)
        assert after.version == v0 + 1 and not after.cached

    def test_invalidate_unknown_dataset_raises(self, client):
        with pytest.raises(ServeClientError, match="invalidate failed"):
            client.invalidate("nope")

    def test_metrics_exposition(self, client):
        client.query(QueryRequest(dataset="demo", a=260.0, b=410.0))
        text = client.metrics_text()
        assert "# TYPE brs_serve_requests_total counter" in text
        assert "brs_serve_request_seconds_bucket" in text

    def test_unknown_path_is_404(self, server):
        try:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_client_error_when_server_unreachable(self):
        client = ServeClient("http://127.0.0.1:9", timeout=0.5)
        assert not client.healthy()
        with pytest.raises(ServeClientError):
            client.stats()


class TestGracefulShutdown:
    def test_sigterm_flushes_attached_pipelines_before_the_engine(
        self, tmp_path
    ):
        space = Rect(0.0, 10.0, 0.0, 10.0)
        live = LiveDataset(
            [Point(1.0 + i, 2.0 + i) for i in range(6)],
            [[i % 3] for i in range(6)],
            space=space,
        )
        store = DatasetStore()
        points, _, fn = live.snapshot()
        store.add_points("d", points, fn, fn_key="coverage", space=space)
        engine = AsyncServeEngine(store, workers=1)
        server = AsyncBRSServer(engine, port=0).start()
        client = ServeClient(server.url, timeout=10.0)
        pipe = IngestPipeline(
            live, IngestLog(tmp_path / "wal.jsonl"), store=store,
            cache=engine.cache, dataset_id="d", background=True,
        )
        server.attach_pipeline(pipe)
        ids = [
            pipe.append([Insert(2.0 + 0.1 * i, 3.0, payload=[i % 3])]).batch_id
            for i in range(20)
        ]
        # Whether the server still answered when the log closed.
        serving_at_log_close = []
        close_log = pipe.log.close

        def observed_close_log():
            serving_at_log_close.append(client.healthy())
            close_log()

        pipe.log.close = observed_close_log
        # No signums: nothing is installed; the test fires the handler,
        # which runs close() on its own thread as SIGTERM would.
        handler = server.install_signal_handlers(signums=())
        handler(signal.SIGTERM, None)
        for thread in threading.enumerate():
            if thread.name == "brs-aio-shutdown":
                thread.join(timeout=30.0)

        assert serving_at_log_close == [True]
        assert all(pipe.batch_status(b).state == "visible" for b in ids)
        assert pipe.status()["states"]["pending"] == 0
        replay = read_log(tmp_path / "wal.jsonl")
        assert [rb.state for rb in replay.batches] == ["applied"] * len(ids)
        assert not client.healthy()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit_threadsafe(QueryRequest(dataset="d", a=1.0, b=1.0))


class _CountingServer(AsyncBRSServer):
    """Counts the TCP connections the server accepts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connections = 0

    async def _handle(self, reader, writer):
        self.connections += 1
        await super()._handle(reader, writer)


def _served(data, port=0):
    store = DatasetStore()
    store.add_dataset("demo", data)
    return _CountingServer(AsyncServeEngine(store, workers=1), port=port)


class TestKeepAlive:
    def test_sequential_calls_share_one_connection(self, data):
        with _served(data) as srv, ServeClient(srv.url, timeout=30.0) as c:
            for i in range(4):
                assert c.query(
                    QueryRequest(dataset="demo", a=300.0 + i, b=500.0)
                ).status == "ok"
            assert c.healthy()
            assert c.metrics_text().startswith("#")
            assert srv.connections == 1

    def test_concurrent_callers_each_get_a_connection(self, data):
        with _served(data) as srv, ServeClient(srv.url, timeout=30.0) as c:
            barrier = threading.Barrier(3)
            statuses = []

            def call(i):
                barrier.wait()
                statuses.append(c.query(
                    QueryRequest(dataset="demo", a=200.0 + i, b=350.0)
                ).status)

            threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert statuses == ["ok"] * 3
            assert 1 <= srv.connections <= 3

    def test_shutdown_does_not_wait_for_an_idle_client_connection(self, data):
        srv = _served(data).start()
        client = ServeClient(srv.url, timeout=30.0)
        assert client.healthy()  # leaves one idle kept connection
        loop_thread = srv._thread
        srv.close()
        assert not loop_thread.is_alive()

    def test_call_on_a_connection_the_server_closed_retries_once(self, data):
        first = _served(data).start()
        client = ServeClient(first.url, timeout=30.0)
        assert client.healthy()
        first.close()  # closes the client's kept connection server-side
        second = _served(data, port=first.port).start()
        try:
            # The kept connection fails; a fresh one reaches the new server.
            assert client.healthy()
            assert second.connections == 1
        finally:
            second.close()
        # Kept connection closed again and nothing listening: an error.
        with pytest.raises(ServeClientError):
            client.stats()
