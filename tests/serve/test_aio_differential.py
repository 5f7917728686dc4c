"""Differential acceptance: threaded vs asyncio servers, byte for byte.

The asyncio tier replaces the threaded server as the default front end,
so the two must be *observably interchangeable*: an identical query
stream driven over HTTP through both produces byte-identical
``canonical_bytes`` responses — the canonical core excludes only the
envelope timing fields (``seconds``, ``cached``, ``batch_size``), which
legitimately differ between runs.  This suite is the contract CI pins.
"""

import pytest

from repro.datasets.registry import scalability_dataset
from repro.serve.aio import AsyncBRSServer, AsyncServeEngine
from repro.serve.client import ServeClient
from repro.serve.executor import ServeEngine
from repro.serve.model import QueryRequest
from repro.serve.server import BRSServer
from repro.serve.store import DatasetStore


@pytest.fixture(scope="module")
def data():
    return scalability_dataset(100, seed=9)


def make_store(data):
    store = DatasetStore()
    store.add_dataset("demo", data)
    return store


@pytest.fixture()
def threaded_client(data):
    engine = ServeEngine(make_store(data), workers=2,
                         batch_window=0.002)
    with BRSServer(engine, port=0) as srv:
        yield ServeClient(srv.url, timeout=30.0)


@pytest.fixture()
def aio_client(data):
    engine = AsyncServeEngine(make_store(data), workers=2,
                              batch_window=0.002)
    srv = AsyncBRSServer(engine, port=0)
    srv.start()
    try:
        yield ServeClient(srv.url, timeout=30.0)
    finally:
        srv.close()


def query_stream():
    """A mixed stream: sized, k-scaled, focused, repeated, and degraded."""
    return [
        QueryRequest(dataset="demo", a=400.0, b=600.0),
        QueryRequest(dataset="demo", k=5.0),
        QueryRequest(dataset="demo", k=10.0, aspect=2.0),
        QueryRequest(dataset="demo", a=400.0, b=600.0),  # repeat: cache path
        QueryRequest(
            dataset="demo", a=900.0, b=1200.0,
            focus=(1500.0, 8200.0, 900.0, 8700.0),
        ),
        QueryRequest(dataset="demo", a=250.0, b=350.0),
    ]


class TestDifferential:
    def test_identical_stream_is_byte_identical(
        self, threaded_client, aio_client
    ):
        threaded = [threaded_client.query(q) for q in query_stream()]
        asyncio_ = [aio_client.query(q) for q in query_stream()]
        assert all(r.status == "ok" for r in threaded)
        for i, (a, b) in enumerate(zip(threaded, asyncio_)):
            assert a.canonical_bytes() == b.canonical_bytes(), (
                f"stream position {i} diverged"
            )

    def test_error_paths_agree(self, threaded_client, aio_client):
        bad = QueryRequest(dataset="no-such-dataset", a=1.0, b=1.0)
        for client in (threaded_client, aio_client):
            with pytest.raises(Exception):
                client.query(bad)

    def test_shared_protocol_surfaces(self, threaded_client, aio_client):
        for client in (threaded_client, aio_client):
            assert client.healthy()
            client.query(QueryRequest(dataset="demo", a=300.0, b=450.0))
            stats = client.stats()
            assert "cache" in stats and "queue" in stats
            assert "brs_serve_requests_total" in client.metrics_text()

    def test_degraded_answers_agree_on_core_fields(
        self, threaded_client, aio_client
    ):
        # A microsecond deadline forces the past-deadline anytime path
        # in both engines; the grid answer is deterministic.
        probe = QueryRequest(dataset="demo", a=500.0, b=700.0, timeout=1e-6)
        a = threaded_client.query(probe)
        b = aio_client.query(probe)
        assert a.status == b.status == "degraded"
        assert a.canonical_bytes() == b.canonical_bytes()
