"""Layer timing from outside the program: wrappers that record spans.

:func:`install` replaces public entry points of the program with thin
wrappers (class methods in place on the class, module-level names in the
module that calls them) and returns a :class:`Recorder`.  Every wrapped
call becomes a span — name, start, end, the enclosing wrapped call on the
same thread, and the id of the outermost wrapped call it runs under (one
operation) — kept in memory and written out by :meth:`Recorder.dump` when
the run ends.  Hot score calls (``SetFunction.value``) are only counted
and timed, not kept one by one.  No proxy objects are used, so
``isinstance`` dispatch in the program sees the real objects.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import Tracer, metrics_scope, trace_scope

# (module, attribute path, span name, hot).  A missing target is skipped
# with a note, so a refactor of the program never breaks the benchmark;
# its layer then reads 0.
TARGETS: List[Tuple[str, str, str, bool]] = [
    ("repro.datasets", "yelp_like", "datasets.generate", False),
    ("repro.datasets", "brightkite_like", "datasets.generate", False),
    ("repro.datasets", "gowalla_like", "datasets.generate", False),
    ("repro.datasets", "scalability_dataset", "datasets.generate", False),
    ("repro.datasets", "gaussian_mixture_points", "datasets.generate", False),
    ("repro.datasets.registry", "InfluenceDataset.score_function", "datasets.generate", False),
    ("repro.index.quadtree", "Quadtree.__init__", "index.build", False),
    ("repro.index.rtree", "RTree.__init__", "index.build", False),
    ("repro.index.grid", "GridIndex.__init__", "index.build", False),
    ("repro.columnar.dataset", "ColumnarDataset.from_points", "columnar.build", False),
    ("repro.columnar.solvers", "columnar_best_region", "columnar.solve", False),
    ("repro.core.coverbrs", "select_cover", "cover.select", False),
    ("repro.core.coverbrs", "CoverBRS.solve", "coverbrs.solve", False),
    ("repro.core.slicebrs", "SliceBRS.solve", "slicebrs.solve", False),
    ("repro.functions.coverage", "CoverageFunction.value", "functions.value", True),
    ("repro.functions.weighted_sum", "SumFunction.value", "functions.value", True),
    ("repro.functions.reduced", "UnionReducedFunction.value", "functions.value", True),
    ("repro.parallel", "solve_partitioned", "parallel.solve", False),
    ("repro.serve.aio.engine", "AsyncServeEngine.submit_threadsafe", "serve.admit", False),
    ("repro.serve.solvecore", "QuerySolver.plan", "serve.plan", False),
    ("repro.serve.solvecore", "QuerySolver.solve", "serve.solve", False),
    ("repro.serve.solvecore", "reduce_over_cover", "serve.reduce", False),
    ("repro.serve.solvecore", "QuerySolver._response", "serve.reeval", False),
    ("repro.serve.pressure", "PressureMonitor.rung", "serve.rung", False),
    ("repro.ingest.pipeline", "IngestPipeline.append", "ingest.append", False),
    ("repro.ingest.wal", "IngestLog.append_batch", "wal.append", False),
    ("repro.ingest.wal", "IngestLog.append_mark", "wal.append", False),
    ("repro.ingest.live", "LiveDataset.apply", "live.apply", False),
    ("repro.ingest.live", "LiveDataset.snapshot", "live.snapshot", False),
    ("repro.serve.store", "DatasetStore.apply_regional", "store.flip", False),
    ("repro.serve.cache", "ResultCache.invalidate_region", "cache.invalidate", False),
]


def _note(name: str, args: tuple, result: Any) -> Optional[Dict[str, Any]]:
    """Attributes kept with a span, read from the call and its result."""
    if name == "slicebrs.solve":
        stats = result.stats
        return {"slabs": stats.n_slabs, "searched": stats.n_slabs_searched,
                "candidates": stats.n_candidates}
    if name == "cover.select":
        return {"size": result.size}
    if name == "serve.solve":
        return {"key": args[1]}
    if name == "serve.rung":
        return {"rung": result}
    if name == "cache.invalidate":
        return {"dropped": result, "kept": len(args[0])}
    return None


class _Frame:
    __slots__ = ("name", "start", "child", "op")

    def __init__(self, name: str, start: float, op: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.op = op


class Recorder:
    """In-memory span store shared by every wrapper of one traced pass.

    Two layers are also read through the program's own instruments:
    ``columnar.solve`` runs inside :func:`repro.obs.metrics_scope` (the
    fallback counter) and ``parallel.solve`` inside
    :func:`repro.obs.trace_scope` (the merged worker ``parallel.shard``
    spans).
    """

    def __init__(self) -> None:
        from repro.obs import MetricsRegistry

        self.spans: List[dict] = []
        self.registry = MetricsRegistry()
        self.program_events: List[dict] = []
        self._local = threading.local()
        self._hot: List[Dict[str, List[float]]] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self.skipped: List[str] = []
        self._ops = itertools.count()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.hot = defaultdict(lambda: [0, 0.0])
            with self._lock:
                self._hot.append(self._local.hot)
        return stack

    def call(self, name: str, hot: bool, func: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        outer = stack[-1] if stack else None
        # A call with no wrapped caller on its thread opens an operation;
        # every span under it carries that operation's id.
        op = outer.op if outer is not None else next(self._ops)
        frame = _Frame(name, time.perf_counter(), op)
        stack.append(frame)
        try:
            if name == "columnar.solve":
                with metrics_scope(self.registry):
                    result = func(*args, **kwargs)
            elif name == "parallel.solve":
                with trace_scope(Tracer(self.program_events)):
                    result = func(*args, **kwargs)
            else:
                result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if outer is not None and not (hot and outer.name == name):
                outer.child += duration
        if hot:
            if outer is None or outer.name != name:
                entry = self._local.hot[name]
                entry[0] += 1
                entry[1] += duration
            return result
        span = {
            "name": name,
            "start": frame.start,
            "end": end,
            "self": duration - frame.child,
            "parent": outer.name if outer is not None else None,
            "ancestors": tuple(f.name for f in stack),
            "op": frame.op,
            "thread": threading.get_ident(),
        }
        extra = _note(name, args, result)
        if extra:
            span.update(extra)
        self.spans.append(span)
        return result

    # -- installation ------------------------------------------------------

    def wrap(self, module: str, path: str, name: str, hot: bool) -> None:
        try:
            owner: Any = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.skipped.append(f"{module}.{path}")
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        recorder = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(name, hot, func, args, kwargs)

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- reading -------------------------------------------------------------

    def hot(self, name: str) -> Tuple[int, float]:
        calls, seconds = 0, 0.0
        for table in self._hot:
            if name in table:
                calls += table[name][0]
                seconds += table[name][1]
        return calls, seconds

    def select(self, name: str, under: Optional[str] = None, parent: Optional[str] = None) -> List[dict]:
        return [
            s for s in self.spans
            if s["name"] == name
            and (under is None or under in s["ancestors"])
            and (parent is None or s["parent"] == parent)
        ]

    def total_ms(self, name: str, **where: str) -> float:
        return 1000.0 * sum(s["end"] - s["start"] for s in self.select(name, **where))

    def self_ms(self, name: str, **where: str) -> float:
        return 1000.0 * sum(s["self"] for s in self.select(name, **where))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (keys of non-JSON values as text)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, default=repr) + "\n")


def install() -> Recorder:
    """Wrap every target and return the recorder collecting their spans."""
    recorder = Recorder()
    for module, path, name, hot in TARGETS:
        recorder.wrap(module, path, name, hot)
    return recorder


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(rec: Recorder, n_ops: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, per timed operation.

    ``datasets.generate_ms`` and ``index.build_ms`` are per pass (set-up
    included), ``cover.size`` is per cover and the ``cache.*`` counts are
    per invalidation; everything else is divided by ``n_ops``.  ``extra`` holds
    values only the workload can measure (generator lag, HTTP overhead,
    WAL size, program counters).
    """
    per = 1.0 / max(1, n_ops)
    slices = rec.select("slicebrs.solve")
    covers = rec.select("cover.select")
    value_calls, value_s = rec.hot("functions.value")
    shard_solves = rec.select("slicebrs.solve", parent="serve.solve")
    invalidations = rec.select("cache.invalidate")
    fallbacks = rec.registry.snapshot().get("brs_columnar_fallbacks_total", {}).get("value", 0.0)
    shard_s = sum(e["dur"] for e in rec.program_events
                  if e.get("ev") == "exit" and e.get("span") == "parallel.shard")
    out = {
        "columnar.fallbacks": per * fallbacks,
        "parallel.shard_ms": per * 1000.0 * shard_s,
        "datasets.generate_ms": rec.total_ms("datasets.generate"),
        "index.build_ms": rec.total_ms("index.build"),
        "columnar.build_ms": per * rec.total_ms("columnar.build"),
        "columnar.solve_ms": per * rec.total_ms("columnar.solve"),
        "cover.select_ms": per * rec.total_ms("cover.select"),
        "cover.size": _mean(s["size"] for s in covers),
        "coverbrs.self_ms": per * rec.self_ms("coverbrs.solve"),
        "slicebrs.ms": per * rec.total_ms("slicebrs.solve"),
        "slicebrs.slabs": per * sum(s["slabs"] for s in slices),
        "slicebrs.slabs_searched": per * sum(s["searched"] for s in slices),
        "slicebrs.candidates": per * sum(s["candidates"] for s in slices),
        "functions.value_calls": per * value_calls,
        "functions.value_ms": per * 1000.0 * value_s,
        "parallel.solve_ms": per * rec.total_ms("parallel.solve"),
        "parallel.seed_ms": per * rec.total_ms("coverbrs.solve", parent="parallel.solve"),
        "serve.admit_ms": per * rec.total_ms("serve.admit"),
        "serve.plan_ms": per * rec.total_ms("serve.plan"),
        "serve.solve_self_ms": per * rec.self_ms("serve.solve"),
        "serve.incumbent_ms": per * rec.total_ms("coverbrs.solve", parent="serve.solve"),
        "serve.shard_solves": per * len(shard_solves),
        "serve.shard_solve_ms": per * 1000.0 * sum(s["end"] - s["start"] for s in shard_solves),
        "serve.reduce_ms": per * rec.total_ms("serve.reduce"),
        "serve.reeval_ms": per * rec.total_ms("serve.reeval"),
        "serve.shed_cycles": float(sum(1 for s in rec.select("serve.rung") if s["rung"] != "exact")),
        "wal.append_ms": per * rec.total_ms("wal.append"),
        "live.apply_ms": per * rec.total_ms("live.apply"),
        "live.snapshot_ms": per * rec.total_ms("live.snapshot"),
        "store.flip_ms": per * rec.total_ms("store.flip"),
        "cache.invalidated": _mean(s["dropped"] for s in invalidations),
        "cache.survived": _mean(s["kept"] for s in invalidations),
    }
    out.update(extra)
    return out
