"""Stdlib-only asyncio HTTP front end for the serving engine.

A minimal HTTP/1.1 server over :func:`asyncio.start_server`: a thin JSON
shell around :class:`~repro.serve.aio.engine.AsyncServeEngine`, so
concurrency, dedup, and backpressure all live in the engine where they
are testable without sockets.

Protocol (all bodies JSON, version :data:`~repro.serve.model.PROTOCOL_VERSION`):

========  ===================  ================================================
method    path                 meaning
========  ===================  ================================================
POST      ``/v1/query``        solve a :class:`~repro.serve.model.QueryRequest`;
                               200 for ``ok``/``degraded``, 429 for
                               ``rejected``, 400 for malformed requests, 500
                               for ``error``; the ``X-BRS-Tenant`` header
                               picks the tenant's quota and fair-queue weight
GET       ``/v1/datasets``     served datasets with versions
GET       ``/v1/stats``        cache/queue/tenant/pressure/latency snapshot
GET       ``/v1/tenants``      tenant policies and live admission counters
POST      ``/v1/invalidate``   ``{"dataset": id}`` — bump version, purge cache
GET       ``/metrics``         Prometheus text exposition of the engine
                               registry (SLO gauges freshly published)
GET       ``/healthz``         liveness probe, with the live SLO verdict
GET       ``/debug/slo``       sliding-window SLO snapshot (p50/p99, burn)
GET       ``/debug/pressure``  the pressure monitor's level and rung
========  ===================  ================================================

Responses are wrapped in an envelope ``{"protocol": 1, ...payload}``.
Connections are keep-alive by default (``Connection: close`` honored);
request bodies are capped at :data:`MAX_BODY_BYTES`.

Distributed tracing: a client may send an ``X-BRS-Trace`` header
(``trace_id[:parent_span_id]``, see :class:`repro.obs.trace.TraceContext`).
Each query opens a ``server.request`` span parented under the client's
span id — a root span when there is none — and forwards that span's
context into the engine, so the request's whole path (HTTP accept,
queueing, solve) lands in one span tree.

The server runs natively (``await server.start_async()``) or from
synchronous code via :meth:`AsyncBRSServer.start`, which hosts engine +
listener on a private daemon-thread event loop — the CLI and test
embedding path.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from types import FrameType
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.trace import TRACE_HEADER, TraceContext
from repro.runtime.errors import InvalidQueryError
from repro.serve.aio.engine import AsyncServeEngine
from repro.serve.model import PROTOCOL_VERSION, QueryRequest

#: Header carrying the requester's tenant id.
TENANT_HEADER = "X-BRS-Tenant"

#: Largest request body accepted, to keep a hostile client from ballooning
#: server memory (queries are a few hundred bytes).
MAX_BODY_BYTES = 1 << 20


def _status_code(status: str) -> int:
    """HTTP status for a serve response status."""
    return {"ok": 200, "degraded": 200, "rejected": 429, "error": 500}.get(
        status, 500
    )


class AsyncBRSServer:
    """The ``repro-brs serve`` HTTP server: engine + asyncio listener.

    Args:
        engine: the async serving engine answering queries.
        host: interface to bind (default loopback).
        port: TCP port; ``0`` picks an ephemeral port (read it back from
            :attr:`port` once started).

    Use as a context manager (background-thread mode), or start natively
    with :meth:`start_async` on a running loop.
    """

    def __init__(
        self, engine: AsyncServeEngine, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.engine = engine
        self._host = host
        self._port = port
        self._server: Optional["asyncio.Server"] = None
        self._address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False
        self._pipelines: List[Any] = []
        #: Keep-alive connections waiting for their next request; shutdown
        #: closes them instead of waiting for their clients to hang up.
        self._idle: Set[asyncio.StreamWriter] = set()

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (after start)."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self.address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    async def start_async(self) -> "AsyncBRSServer":
        """Bind the listener on the running loop; returns self."""
        if self._server is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        sock = self._server.sockets[0].getsockname()
        self._address = (sock[0], sock[1])
        self._ready.set()
        return self

    async def serve_async(self) -> None:
        """Serve until :meth:`close` (native embedding path)."""
        await self.start_async()
        assert self._server is not None and self._shutdown is not None
        async with self._server:
            await self._shutdown.wait()
            # Leaving the block waits for every connection to end (on
            # Python 3.12+); a connection busy with a request answers it
            # with ``Connection: close`` and ends by itself.
            for writer in list(self._idle):
                writer.close()
        await self.engine.aclose()

    def start(self) -> "AsyncBRSServer":
        """Host engine + listener on a daemon-thread event loop.

        Raises:
            RuntimeError: when the loop fails to come up (the underlying
                bind error is chained).
        """
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="brs-aio-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=5.0) or self._startup_error is not None:
            raise RuntimeError(
                "async server failed to start"
            ) from self._startup_error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self.serve_async())
        except Exception as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
            self._ready.set()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI path)."""
        asyncio.run(self.serve_async())

    def wait(self) -> None:
        """Block until a started server stops (CLI foreground path).

        Use after :meth:`start` when the caller needs the bound
        :attr:`url` *before* blocking — e.g. to print the listening
        address.  The short join timeout keeps the main thread
        responsive to signals while it waits.
        """
        thread = self._thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=0.5)

    def attach_pipeline(self, pipeline: Any) -> None:
        """Tie an ingest pipeline's lifecycle to this server's.

        On shutdown (including SIGTERM) attached pipelines are flushed
        and closed *before* the listener and engine stop: every batch
        accepted so far reaches a terminal state and the write-ahead log
        closes cleanly, so a graceful shutdown leaves nothing pending.
        """
        self._pipelines.append(pipeline)

    def install_signal_handlers(
        self, signums: Tuple[int, ...] = (signal.SIGTERM, signal.SIGINT)
    ) -> Callable[[int, Optional[FrameType]], None]:
        """Make SIGTERM/SIGINT perform a graceful shutdown.

        The handler hands the work to a daemon thread: signal handlers
        run on the main thread, which in the CLI path is blocked in
        :meth:`wait` or :meth:`serve_forever`.

        Returns the installed handler (tests invoke it directly).  Call
        from the main thread only (a CPython restriction on ``signal``).
        """

        def _handle(signum: int, frame: Optional[FrameType]) -> None:
            threading.Thread(
                target=self.close, name="brs-aio-shutdown", daemon=True
            ).start()

        for signum in signums:
            signal.signal(signum, _handle)
        return _handle

    def close(self) -> None:
        """Flush attached pipelines, stop the listener, shut the engine down.

        Callable from any thread; idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for pipeline in self._pipelines:
            pipeline.close(flush=True)
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        # Native embeddings (serve_async awaited by the caller) shut the
        # engine down in serve_async; the background path already did so
        # inside the joined thread.  This is a defensive second stop for
        # engines that never entered serve_async.
        self.engine.close()

    def __enter__(self) -> "AsyncBRSServer":
        """Context-manager entry: start the background listener."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # -- HTTP handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: parse requests, route, keep-alive until close."""
        shutdown = self._shutdown
        assert shutdown is not None
        try:
            while not shutdown.is_set():
                self._idle.add(writer)
                try:
                    request_line = await reader.readline()
                finally:
                    self._idle.discard(writer)
                if not request_line:
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    await self._write(
                        writer, 400, {"error": "malformed request line"}, False
                    )
                    break
                method, path, _version = parts
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length") or 0)
                if length > MAX_BODY_BYTES:
                    await self._write(
                        writer,
                        400,
                        {"error": f"request body over {MAX_BODY_BYTES} bytes"},
                        False,
                    )
                    break
                body = await reader.readexactly(length) if length > 0 else b""
                code, payload, text = await self._route(
                    method, path, headers, body
                )
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not shutdown.is_set()
                )
                if text is not None:
                    await self._write_text(writer, code, text, keep_alive)
                else:
                    assert payload is not None
                    await self._write(writer, code, payload, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer already gone
                pass

    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Optional[Dict[str, Any]], Optional[str]]:
        """Dispatch one request; returns (code, json_payload, text_payload)."""
        engine = self.engine
        try:
            if method == "GET":
                if path == "/healthz":
                    return (
                        200,
                        {
                            "status": "ok",
                            "slo_healthy": engine.slo_snapshot()["healthy"],
                        },
                        None,
                    )
                if path == "/v1/datasets":
                    return 200, {"datasets": engine.store.describe()}, None
                if path == "/v1/stats":
                    return 200, engine.stats(), None
                if path == "/v1/tenants":
                    return 200, engine.tenants_snapshot(), None
                if path == "/debug/slo":
                    return 200, engine.slo_snapshot(), None
                if path == "/debug/pressure":
                    return 200, engine.pressure_snapshot(), None
                if path == "/metrics":
                    return 200, None, engine.prometheus_text()
                return 404, {"error": f"unknown path {path!r}"}, None
            if method == "POST":
                if path == "/v1/query":
                    return await self._route_query(headers, body)
                if path == "/v1/invalidate":
                    doc = self._parse_json(body)
                    dataset = doc.get("dataset")
                    if not isinstance(dataset, str) or not dataset:
                        raise InvalidQueryError("invalidate needs a dataset id")
                    version = engine.invalidate(dataset)
                    return 200, {"dataset": dataset, "version": version}, None
                return 404, {"error": f"unknown path {path!r}"}, None
            return 404, {"error": f"unsupported method {method!r}"}, None
        except InvalidQueryError as exc:
            return 400, {"error": str(exc)}, None
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None

    async def _route_query(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Optional[Dict[str, Any]], Optional[str]]:
        """The query endpoint: tenant + trace headers, engine submit."""
        engine = self.engine
        tenant = headers.get(TENANT_HEADER.lower()) or None
        ctx = TraceContext.from_header(headers.get(TRACE_HEADER.lower()))
        tracer = engine.tracer
        trace_id = ctx.trace_id if ctx is not None else tracer.trace_id
        # Every connection shares the event-loop thread, so its span
        # stack holds other requests' spans: parent explicitly, under the
        # client's span or as a root.
        with tracer.span(
            "server.request",
            parent_id=ctx.parent_span_id if ctx is not None else None,
            trace_id=trace_id,
            path="/v1/query",
        ) as span:
            request = QueryRequest.from_json(self._parse_json(body))
            inner = TraceContext(trace_id, span.span_id) if tracer.enabled else None
            response = await engine.submit(request, tenant=tenant, trace=inner)
        return _status_code(response.status), response.to_json(), None

    @staticmethod
    def _parse_json(body: bytes) -> Dict[str, Any]:
        if not body:
            raise InvalidQueryError("request needs a JSON body")
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidQueryError(f"request body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise InvalidQueryError("request body must be a JSON object")
        return doc

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter,
        code: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps({"protocol": PROTOCOL_VERSION, **payload}).encode(
            "utf-8"
        )
        await AsyncBRSServer._write_raw(
            writer, code, body, "application/json", keep_alive
        )

    @staticmethod
    async def _write_text(
        writer: asyncio.StreamWriter, code: int, text: str, keep_alive: bool
    ) -> None:
        await AsyncBRSServer._write_raw(
            writer,
            code,
            text.encode("utf-8"),
            "text/plain; version=0.0.4",
            keep_alive,
        )

    @staticmethod
    async def _write_raw(
        writer: asyncio.StreamWriter,
        code: int,
        body: bytes,
        content_type: str,
        keep_alive: bool,
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  429: "Too Many Requests", 500: "Internal Server Error"}.get(
            code, "OK"
        )
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
