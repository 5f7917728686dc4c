"""Differential acceptance: HTTP vs in-process answers, byte for byte.

The HTTP front end must be a transparent shell around the engine: an
identical query stream driven over HTTP and straight into a separate
in-process engine produces byte-identical ``canonical_bytes`` responses
— the canonical core excludes only the envelope fields (``seconds``,
``cached``), which legitimately differ between runs.  JSON encoding, decoding, and the protocol envelope may
not perturb a single field.  This suite is the contract CI pins.
"""

import pytest

from repro.datasets.registry import scalability_dataset
from repro.runtime.errors import InvalidQueryError
from repro.serve.aio import AsyncBRSServer, AsyncServeEngine
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.model import QueryRequest
from repro.serve.store import DatasetStore


@pytest.fixture(scope="module")
def data():
    return scalability_dataset(100, seed=9)


def make_store(data):
    store = DatasetStore()
    store.add_dataset("demo", data)
    return store


@pytest.fixture()
def in_process(data):
    with AsyncServeEngine(make_store(data), workers=2) as engine:
        yield engine


@pytest.fixture()
def http_client(data):
    engine = AsyncServeEngine(make_store(data), workers=2)
    with AsyncBRSServer(engine, port=0) as srv:
        yield ServeClient(srv.url, timeout=30.0)


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
    def test_identical_stream_is_byte_identical(self, in_process, http_client):
        direct = [in_process.query(q, timeout=60) for q in query_stream()]
        served = [http_client.query(q) for q in query_stream()]
        assert all(r.status == "ok" for r in direct)
        assert [r.cached for r in served] == [r.cached for r in direct]
        for i, (a, b) in enumerate(zip(direct, served)):
            assert a.canonical_bytes() == b.canonical_bytes(), (
                f"stream position {i} diverged"
            )

    def test_error_paths_agree(self, in_process, http_client):
        bad = QueryRequest(dataset="no-such-dataset", a=1.0, b=1.0)
        with pytest.raises(InvalidQueryError, match="unknown dataset"):
            in_process.query(bad, timeout=60)
        with pytest.raises(ServeClientError, match="unknown dataset"):
            http_client.query(bad)

    def test_shared_protocol_surfaces(self, http_client):
        assert http_client.healthy()
        http_client.query(QueryRequest(dataset="demo", a=300.0, b=450.0))
        stats = http_client.stats()
        assert "cache" in stats and "queue" in stats
        assert "brs_serve_requests_total" in http_client.metrics_text()

    def test_degraded_answers_agree_on_core_fields(
        self, in_process, http_client
    ):
        # A microsecond deadline forces the past-deadline anytime path
        # on both sides; the grid answer is deterministic.
        probe = QueryRequest(dataset="demo", a=500.0, b=700.0, timeout=1e-6)
        a = in_process.query(probe, timeout=60)
        b = http_client.query(probe)
        assert a.status == b.status == "degraded"
        assert a.canonical_bytes() == b.canonical_bytes()
