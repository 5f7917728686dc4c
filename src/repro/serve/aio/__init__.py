"""The serve engine and its HTTP front end, on asyncio.

:mod:`repro.serve.aio.engine` holds the in-process core
(:class:`AsyncServeEngine` — admission, caching, dedup, tenancy,
weighted-fair scheduling, pressure-driven rung selection), and
:mod:`repro.serve.aio.http` wraps it in a stdlib-only asyncio HTTP
server (:class:`AsyncBRSServer`) speaking the v1 JSON protocol,
tenant surface (``X-BRS-Tenant`` header, ``GET /v1/tenants``) included.
"""

from repro.serve.aio.engine import AsyncServeEngine
from repro.serve.aio.http import AsyncBRSServer

__all__ = ["AsyncServeEngine", "AsyncBRSServer"]
