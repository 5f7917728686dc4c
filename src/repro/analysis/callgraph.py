"""Project-wide call graph: the substrate for interprocedural analysis.

The per-file rules in :mod:`repro.analysis.rules` are lexical — they see
one AST at a time.  The concurrency invariants ROADMAP's serving items
depend on are *whole-program* properties: a lock acquired in
``repro.serve.cache`` while a ``repro.serve.store`` lock is held two call
frames up, a blocking ``os.fsync`` reached through three modules, a
solver entry point reachable from the serve engine.  This module builds
the call graph those checks run on (:mod:`repro.analysis.concurrency`).

Construction is two passes over the parsed modules:

1. **Index** — every module is mapped to its dotted name (anchored at the
   innermost directory without an ``__init__.py``), and its import
   aliases, top-level functions, classes (with methods, resolved bases,
   and inferred attribute types from ``self.x = SomeClass(...)`` /
   annotated-parameter assignments) are recorded.
2. **Resolve** — every call site in every function body is resolved to a
   qualified name: module functions through import aliases, ``self.m()``
   through the method-resolution order, ``obj.m()`` through inferred
   attribute/local/parameter types, ``Class()`` to ``Class.__init__``,
   ``super().m()`` through the first base.  Function *references* passed
   as arguments (``pool.submit(self._run_spec)``,
   ``Thread(target=self._loop)``) become ``kind="ref"`` edges: they count
   for reachability but not for "this call blocks here" reasoning — the
   referee runs later, on another thread, outside any lock held now.

Unresolvable calls are *summarized*, not dropped: the site keeps its
canonical dotted name (``time.sleep``) or terminal name, so downstream
rules can still classify known-blocking primitives.

Soundness caveats (documented in ``docs/static-analysis.md``): dynamic
dispatch through callable-valued attributes, lambdas, and monkeypatching
are invisible; lock identity is syntactic (``Class._lock``), so two locks
stored under the same attribute of the same class are conflated and a
lock smuggled through an untyped receiver gets a function-local identity.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``with`` context expressions whose name reads as acquiring a lock
#: (mirrors the BRS007 heuristic so the two layers agree on what a lock is).
_LOCKISH_RE = re.compile(r"lock|mutex|cond", re.IGNORECASE)

#: Constructors that *are* locks, for ``with threading.Lock():`` inlines
#: and ``self._lock = threading.Lock()`` attribute typing.
_LOCK_CONSTRUCTORS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: ``# brs: <marker>`` annotations attached to a function definition
#: (on the ``def`` line, a decorator line, or the line directly above).
_ANNOTATION_RE = re.compile(r"#\s*brs:\s*([a-z][a-z0-9-]*)")

#: Markers that are suppressions, not semantic annotations.
_NON_ANNOTATIONS = {"noqa", "noqa-file"}


@dataclass(frozen=True)
class CallSite:
    """One resolved (or summarized) call inside a function body.

    Attributes:
        raw: the source spelling of the target (``self._planner.submit``).
        callee: qualified name of the target when it resolves to a
            function defined in the analyzed tree, else ``None``.
        external: canonical dotted name for a non-project target
            (``time.sleep``), else ``None``.  ``callee`` and ``external``
            are mutually exclusive; both ``None`` means "could not tell".
        line: 1-based source line of the call.
        col: 0-based column of the call.
        held_locks: lock ids lexically held at this site (innermost last).
        kind: ``"call"`` for a real invocation, ``"ref"`` for a function
            reference passed as an argument (deferred execution).
        receiver: terminal name of the receiver for method calls (used by
            queue-heuristics downstream), else ``None``.
    """

    raw: str
    callee: Optional[str]
    external: Optional[str]
    line: int
    col: int
    held_locks: Tuple[str, ...] = ()
    kind: str = "call"
    receiver: Optional[str] = None


@dataclass(frozen=True)
class LockAcquire:
    """One ``with <lock>:`` acquisition inside a function body."""

    lock_id: str
    line: int
    col: int
    held_locks: Tuple[str, ...] = ()


@dataclass
class FunctionNode:
    """One function or method in the analyzed tree."""

    qualname: str
    module: str
    path: str
    line: int
    name: str
    class_name: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    acquires: List[LockAcquire] = field(default_factory=list)
    annotations: Set[str] = field(default_factory=set)
    checks_budget: bool = False

    def to_json(self) -> dict:
        """JSON row for the ``--graph-out`` dump."""
        return {
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "class": self.class_name,
            "checks_budget": self.checks_budget,
            "annotations": sorted(self.annotations),
            "calls": [
                {
                    "raw": c.raw,
                    "callee": c.callee,
                    "external": c.external,
                    "line": c.line,
                    "kind": c.kind,
                    "held_locks": list(c.held_locks),
                }
                for c in self.calls
            ],
            "acquires": [
                {
                    "lock": a.lock_id,
                    "line": a.line,
                    "held_locks": list(a.held_locks),
                }
                for a in self.acquires
            ],
        }


@dataclass
class ClassInfo:
    """One class: methods, resolved bases, and inferred attribute types."""

    qualname: str
    module: str
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    lock_attrs: Set[str] = field(default_factory=set)


@dataclass
class CallGraph:
    """The resolved whole-program view.

    Attributes:
        functions: qualified name -> :class:`FunctionNode`.
        classes: qualified name -> :class:`ClassInfo`.
        modules: dotted module name -> posix path relative to the root.
        sources: posix path -> raw source lines (for snippets/witnesses).
    """

    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    modules: Dict[str, str] = field(default_factory=dict)
    sources: Dict[str, List[str]] = field(default_factory=dict)

    def resolve_method(self, class_qualname: str, name: str) -> Optional[str]:
        """Resolve ``name`` on ``class_qualname`` walking the base chain."""
        seen: Set[str] = set()
        queue = [class_qualname]
        while queue:
            cq = queue.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            info = self.classes.get(cq)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            queue.extend(info.bases)
        return None

    def snippet(self, path: str, line: int) -> str:
        """Stripped source text at ``path:line`` (empty when unknown)."""
        lines = self.sources.get(path)
        if lines and 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""

    def to_json(self) -> dict:
        """The ``--graph-out`` payload (lock graph is added by the caller)."""
        return {
            "modules": dict(sorted(self.modules.items())),
            "functions": {
                q: node.to_json() for q, node in sorted(self.functions.items())
            },
            "classes": {
                q: {
                    "bases": info.bases,
                    "methods": dict(sorted(info.methods.items())),
                    "attr_types": dict(sorted(info.attr_types.items())),
                    "lock_attrs": sorted(info.lock_attrs),
                }
                for q, info in sorted(self.classes.items())
            },
        }


# -- module naming and imports ----------------------------------------------


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name, anchored at the outermost package directory.

    Walks up from the file while the directory holds an ``__init__.py``;
    the file ``src/repro/serve/cache.py`` becomes ``repro.serve.cache``.
    A file outside any package is just its stem.
    """
    parts = [path.stem] if path.name != "__init__.py" else []
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


def _import_aliases(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name -> canonical dotted name, relative imports resolved."""
    aliases: Dict[str, str] = {}
    pkg_parts = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{prefix}.{alias.name}"
    return aliases


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a ``Name``/``Attribute`` chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _raw_text(node: ast.AST) -> str:
    """Best-effort source spelling of a call target for messages."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append(f"{_raw_text(node.func)}()")
    else:
        parts.append("<expr>")
    return ".".join(reversed(parts))


def _is_lockish_expr(expr: ast.AST) -> bool:
    """Does a ``with`` context expression read as acquiring a lock?"""
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return name in _LOCK_CONSTRUCTORS
    name = None
    node = expr
    while isinstance(node, ast.Attribute):
        name = node.attr
        break
    if name is None and isinstance(expr, ast.Name):
        name = expr.id
    return name is not None and bool(_LOCKISH_RE.search(name))


def _is_lock_constructor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return name in _LOCK_CONSTRUCTORS


# -- the builder -------------------------------------------------------------


class _ModuleIndex:
    """Pass-1 view of one parsed module."""

    def __init__(self, module: str, path: str, tree: ast.Module, lines: List[str]):
        self.module = module
        self.path = path
        self.tree = tree
        self.lines = lines
        self.aliases = _import_aliases(tree, module)
        self.functions: Dict[str, ast.AST] = {}  # local name -> def node
        self.classes: Dict[str, ast.ClassDef] = {}  # local name -> class node


def build_callgraph(
    root: pathlib.Path, paths: Optional[Iterable[pathlib.Path]] = None
) -> CallGraph:
    """Build the call graph for every ``.py`` file under ``paths``.

    Args:
        root: directory relative posix paths are computed from (the lint
            root, so findings line up with the per-file engine's paths).
        paths: files or directories to analyze; defaults to ``root``.
    """
    root = root.resolve()
    files: List[pathlib.Path] = []
    for raw in paths if paths is not None else [root]:
        p = pathlib.Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    graph = CallGraph()
    indexes: List[_ModuleIndex] = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue  # the per-file engine reports unparsable files
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = resolved.as_posix()
        module = module_name_for(resolved)
        if module in graph.modules:
            continue  # duplicate module name: keep the first discovery
        index = _ModuleIndex(module, rel, tree, source.splitlines())
        graph.modules[module] = rel
        graph.sources[rel] = index.lines
        indexes.append(index)

    for index in indexes:
        _index_module(graph, index)
    for index in indexes:
        _link_module(graph, index)
    for index in indexes:
        _resolve_module(graph, index)
    return graph


def _index_module(graph: CallGraph, index: _ModuleIndex) -> None:
    """Pass 1a: register functions, classes, and methods."""
    for node in index.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{index.module}.{node.name}"
            index.functions[node.name] = node
            graph.functions[qual] = FunctionNode(
                qualname=qual,
                module=index.module,
                path=index.path,
                line=node.lineno,
                name=node.name,
                annotations=_def_annotations(index.lines, node),
            )
        elif isinstance(node, ast.ClassDef):
            index.classes[node.name] = node
            cq = f"{index.module}.{node.name}"
            info = ClassInfo(qualname=cq, module=index.module)
            graph.classes[cq] = info
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    mq = f"{cq}.{item.name}"
                    info.methods[item.name] = mq
                    graph.functions[mq] = FunctionNode(
                        qualname=mq,
                        module=index.module,
                        path=index.path,
                        line=item.lineno,
                        name=item.name,
                        class_name=node.name,
                        annotations=_def_annotations(index.lines, item),
                    )

def _link_module(graph: CallGraph, index: _ModuleIndex) -> None:
    """Pass 1b (all modules indexed): resolve bases and attribute types.

    This runs after *every* module's classes are registered, so a
    ``self.log = log`` with ``log: IngestLog`` types correctly no matter
    which file sorts first.
    """
    for name, node in index.classes.items():
        cq = f"{index.module}.{name}"
        info = graph.classes[cq]
        for base in node.bases:
            dotted = _dotted(base, index.aliases)
            if dotted is None:
                continue
            info.bases.append(_canonical_class(graph, index, dotted) or dotted)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _infer_attr_types(graph, index, info, item)


def _canonical_class(
    graph: CallGraph, index: _ModuleIndex, dotted: str
) -> Optional[str]:
    """Map a dotted name to a known class qualname (local or imported)."""
    if dotted in graph.classes:
        return dotted
    local = f"{index.module}.{dotted}"
    if local in graph.classes:
        return local
    return None


def _annotation_class(
    graph: CallGraph, index: _ModuleIndex, annotation: Optional[ast.AST]
) -> Optional[str]:
    """Resolve a parameter annotation to a known class, if possible."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # `from __future__ import annotations` stringizes nothing at the
        # AST level, but quoted annotations still appear as constants.
        name = annotation.value.strip()
        if name.isidentifier():
            dotted = index.aliases.get(name, name)
            return _canonical_class(graph, index, dotted)
        return None
    # Unwrap Optional[X] / "X | None" to X.
    if isinstance(annotation, ast.Subscript):
        base = _dotted(annotation.value, index.aliases)
        if base is not None and base.split(".")[-1] == "Optional":
            return _annotation_class(graph, index, annotation.slice)
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            resolved = _annotation_class(graph, index, side)
            if resolved is not None:
                return resolved
        return None
    dotted = _dotted(annotation, index.aliases)
    if dotted is None:
        return None
    return _canonical_class(graph, index, dotted)


def _infer_attr_types(
    graph: CallGraph,
    index: _ModuleIndex,
    info: ClassInfo,
    method: ast.AST,
) -> None:
    """Record ``self.x = ...`` attribute types and lock attributes."""
    params: Dict[str, Optional[str]] = {}
    args = method.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        params[arg.arg] = _annotation_class(graph, index, arg.annotation)
    for node in ast.walk(method):
        if isinstance(node, ast.AnnAssign):
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                cls = _annotation_class(graph, index, node.annotation)
                if cls is not None:
                    info.attr_types[target.attr] = cls
                elif node.value is not None and _is_lock_constructor(node.value):
                    info.lock_attrs.add(target.attr)
            continue
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            value = node.value
            # `x if cond else y`: either arm may carry the real type.
            candidates = (
                [value.body, value.orelse]
                if isinstance(value, ast.IfExp)
                else [value]
            )
            for cand in candidates:
                if _is_lock_constructor(cand):
                    info.lock_attrs.add(attr)
                    break
                if isinstance(cand, ast.Call):
                    dotted = _dotted(cand.func, index.aliases)
                    if dotted is not None:
                        cls = _canonical_class(graph, index, dotted)
                        if cls is not None:
                            info.attr_types[attr] = cls
                            break
                elif isinstance(cand, ast.Name) and cand.id in params:
                    cls = params[cand.id]
                    if cls is not None:
                        info.attr_types[attr] = cls
                        break


def _def_annotations(lines: List[str], node: ast.AST) -> Set[str]:
    """``# brs: <marker>`` annotations attached to a def (see module doc)."""
    candidates = range(max(1, node.lineno - 1), min(len(lines), node.lineno) + 1)
    for deco in getattr(node, "decorator_list", []):
        candidates = range(
            max(1, deco.lineno - 1), min(len(lines), node.lineno) + 1
        )
        break
    markers: Set[str] = set()
    for lineno in candidates:
        for match in _ANNOTATION_RE.finditer(lines[lineno - 1]):
            marker = match.group(1)
            if marker not in _NON_ANNOTATIONS:
                markers.add(marker)
    return markers


# -- pass 2: body resolution --------------------------------------------------


class _BodyResolver(ast.NodeVisitor):
    """Resolve one function body: calls, lock blocks, budget checks."""

    def __init__(
        self,
        graph: CallGraph,
        index: _ModuleIndex,
        node: FunctionNode,
        def_node: ast.AST,
        locals_env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.graph = graph
        self.index = index
        self.node = node
        self.def_node = def_node
        self.lock_stack: List[str] = []
        self.env: Dict[str, str] = dict(locals_env or {})  # var -> class qualname
        self.nested: Dict[str, str] = {}  # local name -> nested fn qualname
        args = def_node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            cls = _annotation_class(graph, index, arg.annotation)
            if cls is not None:
                self.env[arg.arg] = cls

    # -- lock identity ---------------------------------------------------

    def _lock_id(self, expr: ast.AST, line: int) -> str:
        if isinstance(expr, ast.Call):
            return f"{self.node.qualname}:{line}"
        parts: List[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        parts.reverse()
        if isinstance(node, ast.Name):
            root = node.id
            if root == "self" and self.node.class_name is not None:
                owner = f"{self.index.module}.{self.node.class_name}"
                return f"{owner}.{'.'.join(parts)}"
            if root in self.env and parts:
                return f"{self.env[root]}.{'.'.join(parts)}"
            dotted = self.index.aliases.get(root, root)
            if parts:
                return f"{dotted}.{'.'.join(parts)}"
            if root in self.index.aliases or dotted in self.graph.modules:
                return dotted
            # A bare local/module-level name: module-scope identity keeps
            # the same lock recognizable across functions of the module.
            return f"{self.index.module}.{root}"
        return f"{self.node.qualname}:{line}"

    # -- resolution helpers ----------------------------------------------

    def _resolve_target(self, func: ast.AST) -> Tuple[Optional[str], Optional[str], Optional[str]]:
        """``(callee, external, receiver)`` for a call target."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.nested:
                return self.nested[name], None, None
            if name in self.index.functions:
                return f"{self.index.module}.{name}", None, None
            if name in self.index.classes:
                return self._constructor(f"{self.index.module}.{name}"), None, None
            dotted = self.index.aliases.get(name)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            return None, name, None
        if isinstance(func, ast.Attribute):
            receiver = func.value
            method = func.attr
            recv_name = _raw_text(receiver)
            # self.m() / self.attr.m()
            if isinstance(receiver, ast.Name):
                root = receiver.id
                if root == "self" and self.node.class_name is not None:
                    cq = f"{self.index.module}.{self.node.class_name}"
                    resolved = self.graph.resolve_method(cq, method)
                    if resolved is not None:
                        return resolved, None, recv_name
                    return None, None, recv_name
                if root in self.env:
                    resolved = self.graph.resolve_method(self.env[root], method)
                    if resolved is not None:
                        return resolved, None, recv_name
                    return None, None, recv_name
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and self.node.class_name is not None
            ):
                cq = f"{self.index.module}.{self.node.class_name}"
                info = self.graph.classes.get(cq)
                attr_cls = info.attr_types.get(receiver.attr) if info else None
                if attr_cls is not None:
                    resolved = self.graph.resolve_method(attr_cls, method)
                    if resolved is not None:
                        return resolved, None, recv_name
                    return None, None, recv_name
            if (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"
                and self.node.class_name is not None
            ):
                cq = f"{self.index.module}.{self.node.class_name}"
                info = self.graph.classes.get(cq)
                for base in info.bases if info else []:
                    resolved = self.graph.resolve_method(base, method)
                    if resolved is not None:
                        return resolved, None, None
                return None, None, None
            dotted = _dotted(func, self.index.aliases)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            return None, None, recv_name
        return None, None, None

    def _resolve_dotted(self, dotted: str) -> Tuple[Optional[str], Optional[str], Optional[str]]:
        if dotted in self.graph.functions:
            return dotted, None, None
        if dotted in self.graph.classes:
            return self._constructor(dotted), None, None
        receiver = dotted.rsplit(".", 1)[0] if "." in dotted else None
        return None, dotted, receiver

    def _constructor(self, class_qualname: str) -> Optional[str]:
        return self.graph.resolve_method(class_qualname, "__init__")

    # -- visitors ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested_def(node)

    def _nested_def(self, node: ast.AST) -> None:
        """A nested def: its own node, bound locally, body deferred."""
        if node is self.def_node:
            for stmt in node.body:
                self.visit(stmt)
            return
        qual = f"{self.node.qualname}.{node.name}"
        self.nested[node.name] = qual
        nested = FunctionNode(
            qualname=qual,
            module=self.index.module,
            path=self.index.path,
            line=node.lineno,
            name=node.name,
            class_name=self.node.class_name,
            annotations=_def_annotations(self.index.lines, node),
        )
        self.graph.functions[qual] = nested
        resolver = _BodyResolver(self.graph, self.index, nested, node, self.env)
        resolver.nested.update(self.nested)
        resolver.resolve()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # deferred body; references inside are invisible (caveat)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        cls: Optional[str] = None
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func, self.index.aliases)
            if dotted is not None:
                cls = _canonical_class(self.graph, self.index, dotted)
        elif isinstance(value, ast.Name) and value.id in self.env:
            cls = self.env[value.id]
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self.node.class_name is not None
        ):
            info = self.graph.classes.get(
                f"{self.index.module}.{self.node.class_name}"
            )
            if info is not None:
                cls = info.attr_types.get(value.attr)
        if cls is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = cls
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with(node)

    def _with(self, node: ast.AST) -> None:
        acquired: List[str] = []
        for item in node.items:
            expr = item.context_expr
            if _is_lockish_expr(expr):
                lock_id = self._lock_id(expr, node.lineno)
                self.node.acquires.append(
                    LockAcquire(
                        lock_id=lock_id,
                        line=node.lineno,
                        col=node.col_offset,
                        held_locks=tuple(self.lock_stack),
                    )
                )
                acquired.append(lock_id)
            else:
                self.visit(expr)
        self.lock_stack.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.lock_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        callee, external, receiver = self._resolve_target(node.func)
        raw = _raw_text(node.func)
        # String-literal receivers (", ".join(x)) are never interesting.
        if not isinstance(node.func, ast.Attribute) or not isinstance(
            node.func.value, (ast.Constant, ast.JoinedStr)
        ):
            self.node.calls.append(
                CallSite(
                    raw=raw,
                    callee=callee,
                    external=external,
                    line=node.lineno,
                    col=node.col_offset,
                    held_locks=tuple(self.lock_stack),
                    receiver=receiver,
                )
            )
        if any(
            kw.arg == "budget" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            )
            for kw in node.keywords
        ):
            self.node.checks_budget = True
        # Function references passed as arguments: deferred-call edges.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref = self._function_ref(arg)
            if ref is not None:
                self.node.calls.append(
                    CallSite(
                        raw=_raw_text(arg),
                        callee=ref,
                        external=None,
                        line=node.lineno,
                        col=node.col_offset,
                        held_locks=(),
                        kind="ref",
                    )
                )
        for child in ast.iter_child_nodes(node):
            if child is not node.func or isinstance(child, ast.Call):
                self.visit(child)
        # The target expression itself may contain nested calls.
        if isinstance(node.func, ast.Attribute):
            self.visit(node.func.value)

    def _function_ref(self, arg: ast.AST) -> Optional[str]:
        """Resolve a bare function/method reference used as an argument."""
        if isinstance(arg, (ast.Call, ast.Lambda)):
            return None
        callee, _, _ = self._resolve_target(arg)
        return callee

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Budget discipline: `budget.expired()` style checks are detected
        # in visit_Call; `budget is not None` guards alone do not count.
        self.generic_visit(node)

    def resolve(self) -> None:
        """Walk the body, then derive the budget-check flag."""
        for stmt in self.def_node.body:
            self.visit(stmt)
        if not self.node.checks_budget:
            self.node.checks_budget = _mentions_budget_check(self.def_node)


def _mentions_budget_check(def_node: ast.AST) -> bool:
    """Does the body call into a budget (``budget.expired()``, ``Budget.of``)?"""
    for node in ast.walk(def_node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            names: List[str] = []
            while isinstance(value, ast.Attribute):
                names.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                names.append(value.id)
            if any("budget" in n.lower() for n in names):
                return True
            if isinstance(value, ast.Name) and value.id == "Budget":
                return True
        elif isinstance(func, ast.Name) and func.id == "Budget":
            return True
    return False


def _resolve_module(graph: CallGraph, index: _ModuleIndex) -> None:
    """Pass 2: resolve every function body in one module."""
    for name, def_node in index.functions.items():
        node = graph.functions[f"{index.module}.{name}"]
        _BodyResolver(graph, index, node, def_node).resolve()
    for cls_name, cls_node in index.classes.items():
        for item in cls_node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = graph.functions[f"{index.module}.{cls_name}.{item.name}"]
                _BodyResolver(graph, index, node, item).resolve()
