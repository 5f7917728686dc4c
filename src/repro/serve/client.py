"""Small stdlib HTTP client for the serving protocol.

Built on ``http.client`` so scripts, tests, and the benchmark harness can
talk to an :class:`~repro.serve.aio.http.AsyncBRSServer` without any
dependency.  Calls reuse keep-alive connections: sequential calls share
one TCP connection instead of opening, accepting and tearing one down
per call (on loopback on a 2-vCPU host that was about 14 thread
wake-ups and 1.5 ms per cached query, against 3.5 and 0.75 ms on a
kept connection).
Non-2xx responses that still carry the JSON protocol envelope (a rejected
query is HTTP 429 with a full response body) are decoded rather than
raised, so callers handle backpressure as data; transport-level failures
raise :class:`ServeClientError`.

When the caller runs under a :func:`repro.obs.trace.trace_scope`, each
:meth:`ServeClient.query` opens a ``client.query`` span and sends its
trace context in the ``X-BRS-Trace`` header, so the server's spans join
the caller's trace (one tree from client call to solver leaf).
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import TRACE_HEADER, active_tracer
from repro.runtime.errors import BRSError
from repro.serve.model import QueryRequest, QueryResponse


class ServeClientError(BRSError):
    """The server could not be reached or spoke something other than JSON."""


#: Failures showing that the server closed a reused keep-alive connection
#: before reading the request (as it does to idle connections when it
#: shuts down); such a call is retried once on a fresh connection.
_STALE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class ServeClient:
    """Client for one serving endpoint.

    Each call takes an idle connection from the client's pool (opening
    one when none is idle) and puts it back once the response is read, so
    sequential calls share one connection and concurrent callers each use
    their own.  Safe to share between threads.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8331"`` (no trailing slash
            needed); :attr:`~repro.serve.aio.http.AsyncBRSServer.url`
            hands you this directly.
        timeout: socket timeout in seconds for each HTTP call (distinct
            from the per-query deadline inside a request).
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._url = urllib.parse.urlsplit(self.base_url)
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the pooled idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServeClient":
        """Context-manager entry: the client itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # -- transport -------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        """A new (not yet opened) connection to the endpoint."""
        url = self._url
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ServeClientError(f"not an http(s) URL: {self.base_url!r}")
        cls = (
            http.client.HTTPSConnection
            if url.scheme == "https"
            else http.client.HTTPConnection
        )
        return cls(url.hostname, url.port, timeout=self.timeout)

    def _request(
        self,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, bytes]:
        """One HTTP exchange on a pooled connection: ``(status, body)``.

        Raises:
            ServeClientError: when the server cannot be reached or drops
                the connection mid-exchange.
        """
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        while True:
            try:
                conn.request(
                    method, self._url.path + path, body=data, headers=headers
                )
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                if not (reused and isinstance(exc, _STALE)):
                    raise ServeClientError(
                        f"cannot reach {self.base_url}: {exc}"
                    )
                conn, reused = self._connect(), False
        with self._lock:
            self._idle.append(conn)
        return response.status, raw

    def _call(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if extra_headers:
            headers.update(extra_headers)
        # Protocol-level failures (400/429/500) still carry the JSON
        # envelope; they are decoded as payloads, whatever the status.
        _status, raw = self._request(method, path, data, headers)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeClientError(f"non-JSON response from server: {exc}")
        if not isinstance(doc, dict):
            raise ServeClientError(f"malformed response envelope: {doc!r}")
        return doc

    # -- protocol --------------------------------------------------------

    def query(self, request: QueryRequest) -> QueryResponse:
        """Solve one query; rejected/error responses are returned, not raised.

        Under an active :func:`~repro.obs.trace.trace_scope` the call is
        recorded as a ``client.query`` span and its context rides the
        ``X-BRS-Trace`` header, joining the server's spans to this trace.

        Raises:
            ServeClientError: on transport failures or a body that is not
                a query response (e.g. a 400 validation error).
        """
        tracer = active_tracer()
        with tracer.span("client.query", dataset=request.dataset):
            extra: Optional[Dict[str, str]] = None
            if tracer.enabled:
                extra = {TRACE_HEADER: tracer.context().to_header()}
            doc = self._call(
                "POST", "/v1/query", request.to_json(), extra_headers=extra
            )
        if "status" not in doc:
            raise ServeClientError(
                f"server refused the query: {doc.get('error', doc)!r}"
            )
        return QueryResponse.from_json(doc)

    def query_raw(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """POST an arbitrary body to ``/v1/query``; returns the raw envelope.

        Exists for protocol tests (malformed bodies, unknown fields).
        """
        return self._call("POST", "/v1/query", body)

    def datasets(self) -> List[Dict[str, Any]]:
        """Describe the datasets the server is answering for."""
        return self._call("GET", "/v1/datasets").get("datasets", [])

    def stats(self) -> Dict[str, Any]:
        """The server's cache/queue/latency snapshot."""
        return self._call("GET", "/v1/stats")

    def debug_slo(self) -> Dict[str, Any]:
        """The server's sliding-window SLO snapshot (``/debug/slo``)."""
        return self._call("GET", "/debug/slo")

    def invalidate(self, dataset: str) -> Tuple[str, int]:
        """Bump a dataset's version server-side; returns ``(id, version)``.

        Raises:
            ServeClientError: when the server refused (unknown dataset).
        """
        doc = self._call("POST", "/v1/invalidate", {"dataset": dataset})
        if "version" not in doc:
            raise ServeClientError(
                f"invalidate failed: {doc.get('error', doc)!r}"
            )
        return doc["dataset"], int(doc["version"])

    def metrics_text(self) -> str:
        """The server's Prometheus text exposition (``/metrics``)."""
        status, raw = self._request(
            "GET", "/metrics", None, {"Accept": "text/plain"}
        )
        if status != 200:
            raise ServeClientError(f"/metrics answered HTTP {status}")
        return raw.decode("utf-8")

    def healthy(self) -> bool:
        """True when the server answers its liveness probe."""
        try:
            return self._call("GET", "/healthz").get("status") == "ok"
        except ServeClientError:
            return False
