"""Canonical query model for the serving subsystem.

The exploratory workload the paper motivates — many users re-running BRS
queries over the same datasets with varying rectangle sizes — is served
well only if two textually different requests that *mean* the same query
are recognized as one.  This module defines that meaning:

* :class:`QueryRequest` — what a client sends: a dataset id, a rectangle
  (explicit ``a x b`` or the paper's ``k*q`` scaling), an optional focus
  rectangle, and an optional deadline.
* :class:`CacheKey` — the *normalized* query: dataset id + dataset
  version + score-function key + quantized rectangle + quantized focus.
  Two requests with the same key are the same query; the key is what the
  result cache and the in-flight dedup table operate on.
* :class:`QueryResponse` — the answer, split into a *cacheable core*
  (everything derived from the normalized query and the dataset version)
  and a per-request *envelope* (``cached``, ``seconds``) that never
  enters the cache.

Quantization rounds rectangle sides and focus coordinates to
:data:`QUANT_SIG_DIGITS` significant digits, so floating-point noise from
repeated ``k*q`` derivations cannot fragment the cache, while any humanly
intended size difference stays distinct.  Executors solve at the
*quantized* size, which keeps cached and fresh answers byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.runtime.errors import InvalidQueryError

#: Significant digits rectangle sides and focus coordinates are kept to.
QUANT_SIG_DIGITS = 6

#: Response statuses the serving layer can return.  ``"ok"`` — the exact
#: contract was honored; ``"degraded"`` — a deadline forced an anytime or
#: fallback answer; ``"rejected"`` — admission control refused the query;
#: ``"error"`` — the request failed outright.
SERVE_STATUSES = ("ok", "degraded", "rejected", "error")

#: Protocol version embedded in every HTTP response envelope.
PROTOCOL_VERSION = 1


def quantize(value: float, sig_digits: int = QUANT_SIG_DIGITS) -> float:
    """Round ``value`` to ``sig_digits`` significant digits.

    This is the serving layer's canonical float: requests whose sizes
    differ only in floating-point noise map to the same cache entry.
    """
    return float(f"{float(value):.{sig_digits}g}")


def _check_positive_finite(name: str, value: float) -> float:
    value = float(value)
    if not (value > 0 and value == value and value != float("inf")):
        raise InvalidQueryError(f"{name} must be positive and finite, got {value!r}")
    return value


def _normalize_focus(
    focus: Optional[Tuple[float, float, float, float]]
) -> Optional[Tuple[float, float, float, float]]:
    if focus is None:
        return None
    try:
        x_min, x_max, y_min, y_max = (float(v) for v in focus)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(f"focus must be [x_min, x_max, y_min, y_max]: {exc}")
    if not (x_min < x_max and y_min < y_max):
        raise InvalidQueryError(
            f"focus rectangle is degenerate: [{x_min}, {x_max}] x [{y_min}, {y_max}]"
        )
    return (quantize(x_min), quantize(x_max), quantize(y_min), quantize(y_max))


@dataclass(frozen=True)
class QueryRequest:
    """One client query, as received (before normalization).

    Either an explicit rectangle (``a`` and ``b``) or the paper's scaled
    unit query (``k``, optionally ``aspect``) must be given; the server
    resolves ``k*q`` against the dataset's space before normalizing.

    Attributes:
        dataset: id of a dataset registered with the server.
        a: query-rectangle height (mutually inclusive with ``b``).
        b: query-rectangle width.
        k: query scale factor — ``k*q`` sizing per Section 6.1.
        aspect: height/width ratio for ``k``-style sizing.
        focus: optional ``(x_min, x_max, y_min, y_max)`` restriction; only
            objects inside the focus rectangle participate in the query.
        timeout: optional per-request deadline in seconds, measured from
            admission (queue wait counts against it).
    """

    dataset: str
    a: Optional[float] = None
    b: Optional[float] = None
    k: Optional[float] = None
    aspect: Optional[float] = None
    focus: Optional[Tuple[float, float, float, float]] = None
    timeout: Optional[float] = None

    def validated(self) -> "QueryRequest":
        """Check field consistency and return self.

        Raises:
            InvalidQueryError: on a missing dataset id, a half-specified
                or doubly-specified rectangle, or non-positive values.
        """
        if not self.dataset or not isinstance(self.dataset, str):
            raise InvalidQueryError("request needs a dataset id")
        explicit = self.a is not None or self.b is not None
        scaled = self.k is not None
        if explicit and scaled:
            raise InvalidQueryError("give either a/b or k, not both")
        if explicit and (self.a is None or self.b is None):
            raise InvalidQueryError("explicit sizing needs both a and b")
        if not explicit and not scaled:
            raise InvalidQueryError("request needs a rectangle: a/b or k")
        if self.a is not None:
            _check_positive_finite("a", self.a)
            _check_positive_finite("b", self.b)
        if self.k is not None:
            _check_positive_finite("k", self.k)
        if self.aspect is not None:
            _check_positive_finite("aspect", self.aspect)
        if self.timeout is not None:
            _check_positive_finite("timeout", self.timeout)
        _normalize_focus(self.focus)
        return self

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "QueryRequest":
        """Build a request from a decoded JSON body.

        Raises:
            InvalidQueryError: on unknown fields or malformed values, so a
                typo'd protocol field fails loudly instead of being ignored.
        """
        if not isinstance(doc, dict):
            raise InvalidQueryError("request body must be a JSON object")
        known = {"dataset", "a", "b", "k", "aspect", "focus", "timeout"}
        unknown = set(doc) - known
        if unknown:
            raise InvalidQueryError(f"unknown request fields: {sorted(unknown)}")
        focus = doc.get("focus")
        if focus is not None:
            focus = tuple(focus)
        return cls(
            dataset=doc.get("dataset", ""),
            a=doc.get("a"),
            b=doc.get("b"),
            k=doc.get("k"),
            aspect=doc.get("aspect"),
            focus=focus,
            timeout=doc.get("timeout"),
        ).validated()

    def to_json(self) -> Dict[str, Any]:
        """The request as a JSON-serializable dict (omits unset fields)."""
        doc: Dict[str, Any] = {"dataset": self.dataset}
        for name in ("a", "b", "k", "aspect", "timeout"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        if self.focus is not None:
            doc["focus"] = list(self.focus)
        return doc


@dataclass(frozen=True)
class CacheKey:
    """A normalized query: the identity the cache and dedup table operate on.

    Attributes:
        dataset: dataset id.
        version: dataset version the query is addressed to.  Bumping the
            version on mutation makes every old key unreachable, which is
            what guarantees invalidation can never serve stale scores.
        fn_key: identifies the score function configuration (e.g.
            ``"coverage"`` or ``"influence:rr=2000:seed=0"``).
        a: quantized rectangle height.
        b: quantized rectangle width.
        focus: quantized focus rectangle, or ``None``.
    """

    dataset: str
    version: int
    fn_key: str
    a: float
    b: float
    focus: Optional[Tuple[float, float, float, float]] = None


def normalize_query(
    dataset: str,
    version: int,
    fn_key: str,
    a: float,
    b: float,
    focus: Optional[Tuple[float, float, float, float]] = None,
) -> CacheKey:
    """Build the canonical :class:`CacheKey` for a resolved query.

    Raises:
        InvalidQueryError: on non-positive sizes or a degenerate focus.
    """
    return CacheKey(
        dataset=dataset,
        version=int(version),
        fn_key=fn_key,
        a=quantize(_check_positive_finite("a", a)),
        b=quantize(_check_positive_finite("b", b)),
        focus=_normalize_focus(focus),
    )


@dataclass(frozen=True)
class QueryResponse:
    """The answer to one served query.

    Fields up to ``error`` are the *cacheable core* — fully determined by
    the normalized query and the dataset version, and the payload of
    :meth:`canonical_bytes`.  The remaining fields are the per-request
    envelope (excluded from equality): whether this copy came from the
    cache, and the solve wall time.

    Attributes:
        status: one of :data:`SERVE_STATUSES`.
        dataset: dataset id the answer is for.
        version: dataset version the answer was computed against.
        a: quantized rectangle height actually solved.
        b: quantized rectangle width actually solved.
        center: ``(x, y)`` center of the best region, or ``None`` when no
            region was produced (rejected/error responses).
        score: score of the returned region on the original instance.
        object_ids: dataset-global ids of the objects inside the region.
        solver_status: the underlying anytime status (``"ok"``,
            ``"degraded"``, ``"timeout"``) when a solve ran; ``None`` for
            rejected/error responses.
        upper_bound: sound cap on the optimum for non-exact answers.
        error: one-line diagnosis for rejected/error responses.
        cached: envelope — this copy was served from the result cache.
        seconds: envelope — solve wall time (0 for cache hits).
    """

    status: str
    dataset: str
    version: int
    a: float
    b: float
    center: Optional[Tuple[float, float]] = None
    score: Optional[float] = None
    object_ids: Tuple[int, ...] = ()
    solver_status: Optional[str] = None
    upper_bound: Optional[float] = None
    error: Optional[str] = None
    cached: bool = field(default=False, compare=False)
    seconds: float = field(default=0.0, compare=False)

    def core(self) -> Dict[str, Any]:
        """The cacheable part of the response as a plain dict."""
        return {
            "status": self.status,
            "dataset": self.dataset,
            "version": self.version,
            "a": self.a,
            "b": self.b,
            "center": list(self.center) if self.center is not None else None,
            "score": self.score,
            "object_ids": list(self.object_ids),
            "solver_status": self.solver_status,
            "upper_bound": self.upper_bound,
            "error": self.error,
        }

    def canonical_bytes(self) -> bytes:
        """Deterministic byte encoding of the cacheable core.

        Two responses to the same normalized query against the same
        dataset version must compare equal here — the property the cache
        tests pin down.
        """
        return json.dumps(
            self.core(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def to_json(self) -> Dict[str, Any]:
        """Core plus envelope, ready for the HTTP layer."""
        doc = self.core()
        doc["cached"] = self.cached
        doc["seconds"] = self.seconds
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "QueryResponse":
        """Rebuild a response from :meth:`to_json` output (client side)."""
        center = doc.get("center")
        return cls(
            status=doc["status"],
            dataset=doc["dataset"],
            version=doc["version"],
            a=doc["a"],
            b=doc["b"],
            center=tuple(center) if center is not None else None,
            score=doc.get("score"),
            object_ids=tuple(doc.get("object_ids") or ()),
            solver_status=doc.get("solver_status"),
            upper_bound=doc.get("upper_bound"),
            error=doc.get("error"),
            cached=bool(doc.get("cached", False)),
            seconds=float(doc.get("seconds", 0.0)),
        )

    def with_envelope(
        self,
        cached: Optional[bool] = None,
        seconds: Optional[float] = None,
    ) -> "QueryResponse":
        """Copy with envelope fields replaced; the core is untouched."""
        return replace(
            self,
            cached=self.cached if cached is None else cached,
            seconds=self.seconds if seconds is None else seconds,
        )
