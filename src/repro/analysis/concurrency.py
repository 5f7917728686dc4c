"""Interprocedural concurrency rules: BRS010, BRS011, BRS012.

These rules run on the whole-program view built by
:mod:`repro.analysis.callgraph`; they are what the per-file rules
(BRS001–BRS009) structurally cannot express:

* **BRS010 lock-order-cycle** — build the static lock-acquisition graph
  (an edge ``A -> B`` means some execution path acquires ``B`` while
  holding ``A``, possibly through several calls) and report every cycle
  as a potential deadlock, with a witness path for each edge.
* **BRS011 held-lock-interprocedural-blocking** — generalize BRS007: a
  lock held at a call site whose *transitive callees* can block on I/O
  (``os.fsync``), ``Queue.get``/``put``, ``Future.result``, ``wait``,
  or ``time.sleep``.  Direct blocking calls under a lock stay BRS007's
  business; BRS011 fires only when the blocking is at least one internal
  call away, which is exactly what a per-file rule cannot see.
* **BRS012 unbudgeted-serve-path** — every solver function reachable
  from ``AsyncServeEngine`` execution must pass through a ``runtime.Budget``
  check somewhere on the path (``budget.expired()``, ``Budget.of(...)``,
  or forwarding a ``budget=`` argument), or carry an explicit
  ``# brs: unbudgeted-ok`` annotation on its ``def`` line.

Findings re-use the engine's machinery end to end: content fingerprints
(so the baseline ratchet grandfathers them), ``# brs: noqa[BRS01x]``
line suppressions (parsed per file, applied at the reported line), and
the :class:`~repro.analysis.engine.Finding` shape (so both reporters
render them unchanged).
"""

from __future__ import annotations

import pathlib
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.baseline import fingerprint
from repro.analysis.callgraph import CallGraph, CallSite, FunctionNode, build_callgraph
from repro.analysis.engine import Finding
from repro.analysis.suppressions import SuppressionIndex, parse_suppressions

#: Rule catalogue for ``--list-rules`` and the docs table.
INTERPROCEDURAL_RULES: Tuple[Tuple[str, str, str], ...] = (
    (
        "BRS010",
        "lock-order-cycle",
        "cycle in the static lock-acquisition graph (potential deadlock)",
    ),
    (
        "BRS011",
        "held-lock-interprocedural-blocking",
        "lock held across a call whose transitive callees can block",
    ),
    (
        "BRS012",
        "unbudgeted-serve-path",
        "solver reachable from AsyncServeEngine without a runtime.Budget check",
    ),
)

#: Paths the lock rules (BRS010/BRS011) apply to.
_CONCURRENCY_SCOPE = re.compile(r"(^|/)repro/(serve|ingest|parallel|obs)/")

#: Terminal callable names that block unconditionally.
_ALWAYS_BLOCKING = {
    "accept",
    "fdatasync",
    "fsync",
    "getresponse",
    "recv",
    "serve_forever",
    "sleep",
    "urlopen",
    "wait",
}

#: ``x.join()`` blocks only when the receiver reads as a thread/worker —
#: otherwise it is ``os.path.join`` or ``str.join`` noise.
_JOINABLE_RECEIVER = re.compile(
    r"thread|worker|proc|pool|dispatch|drain", re.IGNORECASE
)

#: ``x.get()``/``x.put()`` block only on queue-ish receivers.
_QUEUE_RECEIVER = re.compile(r"queue|fifo|mailbox|inbox", re.IGNORECASE)

#: ``x.acquire()`` blocks on lock/semaphore-ish receivers.
_ACQUIRABLE_RECEIVER = re.compile(r"lock|sem|cond|mutex", re.IGNORECASE)

#: ``x.result()`` blocks on future-ish receivers (Executor.submit+result).
_FUTURE_RECEIVER = re.compile(r"fut|task|promise|pending|job", re.IGNORECASE)

#: Solver entry points the budget discipline (BRS012) protects.  This is
#: BRS007's `_SOLVER_ENTRIES` plus the sharded driver and the columnar
#: entry points the serve tier's exact rung calls.
_SOLVER_NAMES = {
    "best_region",
    "coarse_grid_scan",
    "columnar_best_region",
    "columnar_slicebrs",
    "oe_maxrs",
    "solve",
    "solve_partitioned",
    "topk_regions",
}

#: Annotation (see callgraph._ANNOTATION_RE) that opts a solver out of
#: the budget requirement.
_UNBUDGETED_OK = "unbudgeted-ok"


def blocking_reason(site: CallSite) -> Optional[str]:
    """Why an *external* call site blocks, or None if it does not.

    Only summarized (unresolved) calls are classified here — a call that
    resolved to a project function is handled by the fixpoint instead.
    """
    if site.callee is not None or site.kind != "call":
        return None
    name = (site.external or site.raw).rsplit(".", 1)[-1]
    receiver = site.receiver or ""
    if name in _ALWAYS_BLOCKING:
        return site.external or site.raw
    if name == "join" and _JOINABLE_RECEIVER.search(receiver):
        return site.raw
    if name in {"get", "put"} and _QUEUE_RECEIVER.search(receiver):
        return site.raw
    if name == "acquire" and _ACQUIRABLE_RECEIVER.search(receiver):
        return site.raw
    if name == "result" and _FUTURE_RECEIVER.search(receiver):
        return site.raw
    return None


# -- fixpoints ---------------------------------------------------------------


@dataclass(frozen=True)
class _BlockWhy:
    """Why a function may block: a primitive here, or via a callee."""

    kind: str  # "external" | "call"
    detail: str  # primitive name, or callee qualname
    line: int


@dataclass(frozen=True)
class _AcquireWhy:
    """How a function comes to hold a lock: directly, or via a callee."""

    kind: str  # "direct" | "call"
    detail: str  # "" for direct, callee qualname for call
    line: int


def _call_edges(node: FunctionNode) -> Iterable[CallSite]:
    """Real (synchronous) call edges — ``ref`` edges run on other threads,
    so they never propagate "blocks *now*" or "holds this lock *now*"."""
    for site in node.calls:
        if site.kind == "call" and site.callee is not None:
            yield site


def compute_may_block(graph: CallGraph) -> Dict[str, _BlockWhy]:
    """Fixpoint: which functions can block, with a witness next-hop."""
    why: Dict[str, _BlockWhy] = {}
    for qual, node in graph.functions.items():
        for site in node.calls:
            reason = blocking_reason(site)
            if reason is not None:
                why[qual] = _BlockWhy("external", reason, site.line)
                break
    changed = True
    while changed:
        changed = False
        for qual, node in graph.functions.items():
            if qual in why:
                continue
            for site in _call_edges(node):
                if site.callee in why:
                    why[qual] = _BlockWhy("call", site.callee, site.line)
                    changed = True
                    break
    return why


def block_chain(graph: CallGraph, why: Dict[str, _BlockWhy], qual: str) -> List[str]:
    """Human-readable witness chain from ``qual`` to the blocking primitive."""
    chain: List[str] = []
    seen: Set[str] = set()
    while qual in why and qual not in seen:
        seen.add(qual)
        entry = why[qual]
        node = graph.functions.get(qual)
        loc = f"{node.path}:{entry.line}" if node else str(entry.line)
        if entry.kind == "external":
            chain.append(f"{qual} ({loc}) blocks on {entry.detail}")
            break
        chain.append(f"{qual} ({loc}) calls {entry.detail}")
        qual = entry.detail
    return chain


def compute_may_acquire(
    graph: CallGraph,
) -> Dict[str, Dict[str, _AcquireWhy]]:
    """Fixpoint: which locks each function's execution can acquire."""
    acq: Dict[str, Dict[str, _AcquireWhy]] = defaultdict(dict)
    for qual, node in graph.functions.items():
        for acquire in node.acquires:
            acq[qual].setdefault(
                acquire.lock_id, _AcquireWhy("direct", "", acquire.line)
            )
    changed = True
    while changed:
        changed = False
        for qual, node in graph.functions.items():
            mine = acq[qual]
            for site in _call_edges(node):
                for lock_id in acq.get(site.callee, {}):
                    if lock_id not in mine:
                        mine[lock_id] = _AcquireWhy(
                            "call", site.callee, site.line
                        )
                        changed = True
    return dict(acq)


def acquire_chain(
    graph: CallGraph,
    acq: Dict[str, Dict[str, _AcquireWhy]],
    qual: str,
    lock_id: str,
) -> List[str]:
    """Witness chain from ``qual`` down to the acquisition of ``lock_id``."""
    chain: List[str] = []
    seen: Set[str] = set()
    while qual not in seen:
        seen.add(qual)
        entry = acq.get(qual, {}).get(lock_id)
        if entry is None:
            break
        node = graph.functions.get(qual)
        loc = f"{node.path}:{entry.line}" if node else str(entry.line)
        if entry.kind == "direct":
            chain.append(f"{qual} ({loc}) acquires {lock_id}")
            break
        chain.append(f"{qual} ({loc}) calls {entry.detail}")
        qual = entry.detail
    return chain


# -- the lock-order graph ----------------------------------------------------


@dataclass(frozen=True)
class LockEdge:
    """``held -> acquired``: somewhere, ``acquired`` is taken under ``held``."""

    held: str
    acquired: str
    function: str
    path: str
    line: int
    witness: Tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "held": self.held,
            "acquired": self.acquired,
            "function": self.function,
            "path": self.path,
            "line": self.line,
            "witness": list(self.witness),
        }


def build_lock_graph(
    graph: CallGraph, acq: Dict[str, Dict[str, _AcquireWhy]]
) -> Dict[Tuple[str, str], LockEdge]:
    """Every ``held -> acquired`` pair, keeping one witness per edge.

    Two edge sources: a nested ``with`` inside one function, and a call
    made while holding a lock into a function whose execution acquires
    more locks.  Self-edges (re-entrant acquisition) are dropped — they
    are RLock idiom, not ordering information.
    """
    edges: Dict[Tuple[str, str], LockEdge] = {}

    def add(held: str, acquired: str, node: FunctionNode, line: int, witness: List[str]) -> None:
        if held == acquired or (held, acquired) in edges:
            return
        edges[(held, acquired)] = LockEdge(
            held=held,
            acquired=acquired,
            function=node.qualname,
            path=node.path,
            line=line,
            witness=tuple(witness),
        )

    for qual, node in graph.functions.items():
        for acquire in node.acquires:
            for held in acquire.held_locks:
                add(
                    held,
                    acquire.lock_id,
                    node,
                    acquire.line,
                    [f"{qual} ({node.path}:{acquire.line}) acquires "
                     f"{acquire.lock_id} while holding {held}"],
                )
        for site in _call_edges(node):
            if not site.held_locks:
                continue
            for lock_id in acq.get(site.callee, {}):
                for held in site.held_locks:
                    witness = [
                        f"{qual} ({node.path}:{site.line}) holds {held} and "
                        f"calls {site.callee}"
                    ] + acquire_chain(graph, acq, site.callee, lock_id)
                    add(held, lock_id, node, site.line, witness)
    return edges


def find_cycles(edges: Dict[Tuple[str, str], LockEdge]) -> List[List[str]]:
    """Every elementary cycle in the lock graph, deduped by lock set.

    The graphs here are tiny (a handful of locks), so a DFS from every
    node with an explicit path stack is plenty.
    """
    adjacency: Dict[str, List[str]] = defaultdict(list)
    for held, acquired in edges:
        adjacency[held].append(acquired)
    for targets in adjacency.values():
        targets.sort()
    cycles: List[List[str]] = []
    seen_sets: Set[frozenset] = set()

    def dfs(start: str, current: str, path: List[str], on_path: Set[str]) -> None:
        for nxt in adjacency.get(current, ()):
            if nxt == start:
                key = frozenset(path)
                if key not in seen_sets:
                    seen_sets.add(key)
                    cycles.append(list(path))
            elif nxt not in on_path and nxt > start:
                # Only walk nodes ordered after `start`: each cycle is
                # then discovered exactly once, from its smallest node.
                path.append(nxt)
                on_path.add(nxt)
                dfs(start, nxt, path, on_path)
                on_path.remove(nxt)
                path.pop()

    for node in sorted(adjacency):
        dfs(node, node, [node], {node})
    return cycles


# -- the rules ---------------------------------------------------------------


class _FindingBuilder:
    """Finding construction with engine-compatible fingerprints and noqa."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._occurrence: Dict[Tuple[str, str, str], int] = defaultdict(int)
        self._suppressions: Dict[str, SuppressionIndex] = {}
        self.findings: List[Finding] = []
        self.suppressed = 0

    def _suppression_index(self, path: str) -> SuppressionIndex:
        if path not in self._suppressions:
            lines = self.graph.sources.get(path, [])
            self._suppressions[path] = parse_suppressions("\n".join(lines))
        return self._suppressions[path]

    def emit(self, rule: str, path: str, line: int, col: int, message: str) -> None:
        snippet = self.graph.snippet(path, line)
        normalized = " ".join(snippet.split())
        key = (rule, path, normalized)
        index = self._occurrence[key]
        self._occurrence[key] += 1
        if self._suppression_index(path).is_suppressed(rule, line):
            self.suppressed += 1
            return
        self.findings.append(
            Finding(
                rule=rule,
                path=path,
                line=line,
                col=col,
                message=message,
                snippet=snippet,
                fingerprint=fingerprint(rule, path, snippet, index),
            )
        )


def _check_lock_order(
    builder: _FindingBuilder,
    edges: Dict[Tuple[str, str], LockEdge],
) -> None:
    """BRS010: report each lock-order cycle once, with every edge witnessed."""
    for cycle in find_cycles(edges):
        cycle_edges = [
            edges[(cycle[i], cycle[(i + 1) % len(cycle)])]
            for i in range(len(cycle))
        ]
        anchor = min(cycle_edges, key=lambda e: (e.path, e.line))
        if not _CONCURRENCY_SCOPE.search(anchor.path):
            continue
        order = " -> ".join(cycle + [cycle[0]])
        witnesses = "; ".join(
            f"[{i + 1}] " + " -> ".join(edge.witness)
            for i, edge in enumerate(cycle_edges)
        )
        builder.emit(
            "BRS010",
            anchor.path,
            anchor.line,
            0,
            f"lock-order cycle {order} is a potential deadlock; "
            f"witnesses: {witnesses}. Acquire locks in the canonical "
            f"order (docs/static-analysis.md) or collapse to one lock.",
        )


def _check_held_lock_blocking(
    builder: _FindingBuilder,
    graph: CallGraph,
    may_block: Dict[str, _BlockWhy],
) -> None:
    """BRS011: lock held across a call whose transitive callees block."""
    for qual, node in graph.functions.items():
        if not _CONCURRENCY_SCOPE.search(node.path):
            continue
        for site in _call_edges(node):
            if not site.held_locks:
                continue
            why = may_block.get(site.callee)
            if why is None:
                continue
            chain = block_chain(graph, may_block, site.callee)
            primitive = chain[-1].rsplit("blocks on ", 1)[-1] if chain else "?"
            builder.emit(
                "BRS011",
                node.path,
                site.line,
                site.col,
                f"lock {site.held_locks[-1]} is held across the call to "
                f"{site.callee}, whose execution can block on {primitive} "
                f"(path: {' -> '.join(chain)}); move the blocking work "
                f"outside the critical section or make it deferred.",
            )


def _check_unbudgeted_paths(
    builder: _FindingBuilder,
    graph: CallGraph,
) -> None:
    """BRS012: solver reachable from the serve engine with no budget check.

    Entry points are the methods of ``AsyncServeEngine``, which drives
    every solve made on behalf of a request.
    """
    entries = [
        node
        for node in graph.functions.values()
        if node.class_name == "AsyncServeEngine"
    ]
    reported: Set[str] = set()
    for entry in entries:
        # BFS over (function, budget-seen-on-path); ref edges count —
        # work handed to the pool is still serve execution.
        start_state = (entry.qualname, entry.checks_budget)
        queue: List[Tuple[str, bool]] = [start_state]
        parents: Dict[Tuple[str, bool], Tuple[str, bool]] = {}
        visited: Set[Tuple[str, bool]] = {start_state}
        while queue:
            qual, budgeted = queue.pop(0)
            node = graph.functions.get(qual)
            if node is None:
                continue
            if (
                node.name in _SOLVER_NAMES
                and not budgeted
                and not node.checks_budget
                and _UNBUDGETED_OK not in node.annotations
                and qual not in reported
            ):
                reported.add(qual)
                path_names = _bfs_path(parents, (qual, budgeted))
                builder.emit(
                    "BRS012",
                    node.path,
                    node.line,
                    0,
                    f"solver {qual} is reachable from {entry.qualname} "
                    f"(path: {' -> '.join(path_names)}) without passing a "
                    f"runtime.Budget check; thread a budget through the "
                    f"call chain or annotate the def with "
                    f"`# brs: unbudgeted-ok`.",
                )
            for site in node.calls:
                if site.callee is None:
                    continue
                callee = graph.functions.get(site.callee)
                if callee is None:
                    continue
                state = (site.callee, budgeted or callee.checks_budget)
                if state not in visited:
                    visited.add(state)
                    parents[state] = (qual, budgeted)
                    queue.append(state)


def _bfs_path(
    parents: Dict[Tuple[str, bool], Tuple[str, bool]],
    state: Tuple[str, bool],
) -> List[str]:
    names = [state[0]]
    while state in parents:
        state = parents[state]
        names.append(state[0])
    names.reverse()
    return names


# -- entry point -------------------------------------------------------------


def default_package(root: pathlib.Path) -> pathlib.Path:
    """Where the analyzed package lives under ``root``."""
    for candidate in (root / "src" / "repro", root / "repro"):
        if candidate.is_dir():
            return candidate
    return root


def run_interprocedural(
    root: pathlib.Path,
    paths: Optional[Sequence[pathlib.Path]] = None,
) -> Tuple[List[Finding], int, dict]:
    """Run BRS010–BRS012 over the project rooted at ``root``.

    Args:
        root: lint root (paths in findings are relative to it).
        paths: explicit files/dirs to analyze; defaults to the ``repro``
            package under ``root`` (``src/repro`` or ``repro``).

    Returns:
        ``(findings, suppressed_count, graph_payload)`` — findings are
        unfiltered by any baseline (the caller owns the ratchet), and
        ``graph_payload`` is the ``--graph-out`` JSON document.
    """
    root = pathlib.Path(root).resolve()
    targets = list(paths) if paths else [default_package(root)]
    graph = build_callgraph(root, targets)
    may_block = compute_may_block(graph)
    may_acquire = compute_may_acquire(graph)
    lock_edges = build_lock_graph(graph, may_acquire)

    builder = _FindingBuilder(graph)
    _check_lock_order(builder, lock_edges)
    _check_held_lock_blocking(builder, graph, may_block)
    _check_unbudgeted_paths(builder, graph)
    builder.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    payload = graph.to_json()
    payload["lock_graph"] = {
        "edges": [
            edge.to_json()
            for _, edge in sorted(lock_edges.items())
        ],
        "locks": sorted(
            {lock for pair in lock_edges for lock in pair}
            | {
                a.lock_id
                for node in graph.functions.values()
                for a in node.acquires
            }
        ),
    }
    payload["may_block"] = sorted(may_block)
    return builder.findings, builder.suppressed, payload
