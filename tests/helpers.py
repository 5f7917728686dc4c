"""Test helpers: random-instance builders and a gated score function."""

from __future__ import annotations

import random
import threading
from typing import Iterable, List, Set, Tuple

from repro.functions.base import SetFunction
from repro.functions.coverage import CoverageFunction
from repro.functions.weighted_sum import SumFunction
from repro.geometry.point import Point


def random_instance(
    seed: int,
    max_objects: int = 40,
    alphabet: str = "abcdefgh",
) -> Tuple[List[Point], CoverageFunction, float, float]:
    """Build a random small diversity instance ``(points, f, a, b)``."""
    rng = random.Random(seed)
    n = rng.randint(1, max_objects)
    points = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    tags = [set(rng.sample(alphabet, rng.randint(1, 3))) for _ in range(n)]
    a = rng.uniform(0.5, 4.0)
    b = rng.uniform(0.5, 4.0)
    return points, CoverageFunction(tags), a, b


def random_sum_instance(
    seed: int, max_objects: int = 40
) -> Tuple[List[Point], SumFunction, float, float]:
    """Build a random small MaxRS instance ``(points, f, a, b)``."""
    rng = random.Random(seed)
    n = rng.randint(1, max_objects)
    points = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    weights = [rng.uniform(0.1, 2.0) for _ in range(n)]
    a = rng.uniform(0.5, 4.0)
    b = rng.uniform(0.5, 4.0)
    return points, SumFunction(n, weights), a, b


class GatedFunction(SetFunction):
    """A score function whose ``value()`` blocks until the test opens it.

    Serve a dataset with it to hold every dispatched solve inside its
    worker, so queued work stays queued for as long as the test needs
    instead of for a timing window.  Each thread that reaches ``value()``
    is counted before it blocks.  Open the gate in a ``finally`` so a
    failing assertion cannot leave a worker blocked and hang the
    engine's ``close()``.
    """

    def __init__(self, inner: SetFunction) -> None:
        self._inner = inner
        self._gate = threading.Event()
        self._entered: Set[int] = set()
        self._changed = threading.Condition()

    def value(self, objects: Iterable[int]) -> float:
        """Count the calling thread, wait for the gate, then evaluate."""
        with self._changed:
            self._entered.add(threading.get_ident())
            self._changed.notify_all()
        self._gate.wait()
        return self._inner.value(objects)

    def wait_entered(self, threads: int, timeout: float = 10.0) -> bool:
        """Whether ``threads`` distinct threads reach ``value()`` in time."""
        with self._changed:
            return self._changed.wait_for(
                lambda: len(self._entered) >= threads, timeout=timeout
            )

    def release(self) -> None:
        """Open the gate: blocked and later calls evaluate at once."""
        self._gate.set()
