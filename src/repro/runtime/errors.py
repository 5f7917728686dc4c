"""Structured exception taxonomy for the BRS runtime layer.

Every error the package raises deliberately derives from :class:`BRSError`,
so callers (and the CLI) can distinguish the three failure families with
one ``except`` each:

* :class:`InvalidQueryError` — the *request* was malformed (NaN coordinates,
  non-positive rectangle, empty dataset, unknown method).  Also a
  :class:`ValueError`, so pre-taxonomy callers keep working.
* :class:`BudgetExceededError` — a cooperative execution budget (deadline or
  evaluation cap) expired.  Solvers catch this internally and return an
  anytime result; it only escapes from code paths that have no meaningful
  best-so-far answer.
* :class:`EvaluationError` — the user-supplied score function failed or
  produced a non-finite value.  Carries the offending object set when known.
"""

from __future__ import annotations

from typing import Iterable, Optional


class BRSError(Exception):
    """Base class for all deliberate errors raised by this package."""


class InvalidQueryError(BRSError, ValueError):
    """The query or dataset is malformed (bad sizes, NaN coords, empty)."""


class BudgetExceededError(BRSError):
    """A cooperative execution budget (deadline or eval cap) expired.

    Attributes:
        reason: which limit tripped (``"deadline"`` or ``"max_evals"``).
    """

    def __init__(self, message: str, reason: str = "deadline") -> None:
        super().__init__(message)
        self.reason = reason


class AdmissionRejectedError(BRSError):
    """The serving layer refused a query: the admission queue was full.

    Raised (or mapped to a ``"rejected"`` response) by ``repro.serve`` when
    backpressure trips; never raised by the solvers themselves.

    Attributes:
        queue_depth: how many queries were open when the request arrived.
        capacity: the admission limit that was hit.
    """

    def __init__(self, message: str, queue_depth: int = 0, capacity: int = 0) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.capacity = capacity


class InternalInvariantError(BRSError, AssertionError):
    """An internal algorithmic invariant was violated (a bug, not bad input).

    Raised by ``validate=True`` solver modes and internal consistency
    checks — e.g. a quadtree cover selection that fails the c-cover
    property of Definition 7.  Also an :class:`AssertionError` so callers
    that treated these as assertion failures keep working, while the CLI
    and serve layer map it to the internal-error family via
    :class:`BRSError`.
    """


class WorkerFailureError(BRSError):
    """A parallel worker process failed while solving a shard.

    Raised inside worker processes (and re-raised through their futures)
    by ``repro.parallel`` when a worker is unbootstrapped, an injected
    fault fires, or a shard solve dies.  The parent backend catches it,
    requeues the shard on the surviving pool with capped retries, and
    answers what is left with one in-process exact solve once retries
    are exhausted — so it only escapes to callers when even that cannot
    run.

    Attributes:
        shard_index: the shard being solved when the worker failed, when
            known (``None`` for bootstrap failures).
    """

    def __init__(self, message: str, shard_index: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard_index = shard_index


class IngestError(BRSError):
    """A streaming-ingest operation failed (append, apply, or replay).

    Raised by ``repro.ingest`` when a mutation batch cannot be accepted
    (malformed events), cannot be applied after its retries are exhausted,
    or the write-ahead log cannot be written.  The batch involved moves to
    the ``failed`` state; already-visible data is never affected.

    Attributes:
        batch_id: the mutation batch involved, when known.
    """

    def __init__(self, message: str, batch_id: Optional[str] = None) -> None:
        super().__init__(message)
        self.batch_id = batch_id


class LogCorruptionError(IngestError):
    """The write-ahead log failed a checksum or structural check mid-log.

    A torn *tail* (partial final record from a crash mid-append) is
    expected and silently truncated during replay; corruption anywhere
    before the tail means the durable history itself is damaged and
    recovery must stop rather than rebuild a wrong dataset.

    Attributes:
        record_index: 0-based index of the corrupt record in the log.
    """

    def __init__(self, message: str, record_index: Optional[int] = None) -> None:
        super().__init__(message)
        self.record_index = record_index


class EvaluationError(BRSError):
    """A score-function evaluation failed or returned a non-finite value.

    Attributes:
        object_ids: the object set being evaluated when the failure
            happened, if known (sorted for stable messages).
    """

    def __init__(
        self, message: str, object_ids: Optional[Iterable[int]] = None
    ) -> None:
        ids = sorted(object_ids) if object_ids is not None else None
        if ids is not None:
            message = f"{message} (object set: {ids})"
        super().__init__(message)
        self.object_ids = ids
