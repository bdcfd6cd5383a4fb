"""The project index every loomlint rule runs over.

One pass parses each Python file it is pointed at and records: the
file's dotted module name, its top-level functions and classes (with
their methods), the ``# loomlint: disable=<rule>`` suppression comments,
and an approximate call graph (good enough for this codebase's idioms:
``self.method()``, module functions, and calls through well-known
component attributes such as ``self.log`` / ``self._storage`` — see
:mod:`tools.loomlint.config`).

The analysis is deliberately conservative and *approximate*: it resolves
calls by structure and by the typed attribute map, never by whole-program
type inference.  Anything it cannot resolve it ignores, so false
positives stay rare; the cost is that exotic indirection (callables in
dicts, dynamic dispatch through untyped attributes) is invisible to it.
That trade-off suits an invariant checker that runs on every CI push.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from .config import (
    ATTR_TYPES,
    ENGINE_PATHS,
    GENERIC_METHOD_NAMES,
    LOCAL_TYPES,
    RULES,
)

_SLUG_TO_CODE = {slug: code for code, (slug, _) in RULES.items()}
_SUPPRESS_RE = re.compile(r"#\s*loomlint:\s*disable=([A-Za-z0-9_,\-]+)")

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Finding:
    """One rule finding at a source location."""

    path: str  # repo-relative, forward slashes
    line: int
    rule: str  # e.g. "LOOM101"
    symbol: str  # qualname of the function/module blamed
    message: str

    def render(self) -> str:
        slug = RULES[self.rule][0]
        return f"{self.path}:{self.line}: {self.rule} [{slug}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "slug": RULES[self.rule][0],
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class FunctionInfo:
    """One function or method definition in the analyzed tree."""

    qualname: str  # module.Class.name or module.name
    module: str
    class_name: Optional[str]
    name: str
    node: FunctionNode
    path: str
    #: Resolved callee qualnames.
    edges: Set[str] = field(default_factory=set)

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    base_names: List[str]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class SourceFile:
    path: str  # repo-relative
    module: str
    tree: ast.Module
    #: lineno -> rule codes suppressed on that line.
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: Codes suppressed for the entire file (header comment).
    file_suppressions: Set[str] = field(default_factory=set)


class ProjectIndex:
    """Parsed files plus class/function/call-graph indexes."""

    def __init__(self) -> None:
        #: repo-relative path -> file, in walk order.
        self.files: Dict[str, SourceFile] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: simple class name -> ClassInfos (a name may recur across modules)
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: function simple name -> FunctionInfos (for last-resort matching)
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, paths: Sequence[str], root: str) -> "ProjectIndex":
        """Index ``paths`` plus the verification engines under ``root``."""
        index = cls()
        engines = [os.path.join(root, path) for path in ENGINE_PATHS]
        for file_path in _iter_python_files([*paths, *filter(os.path.isfile, engines)]):
            index._add_file(file_path, root)
        for fn in index.functions.values():
            index._resolve_edges(fn)
        return index

    def _add_file(self, file_path: str, root: str) -> None:
        rel = os.path.relpath(os.path.abspath(file_path), root).replace(os.sep, "/")
        if rel in self.files:
            return
        with open(file_path, "r", encoding="utf-8") as f:
            source = f.read()
        sf = SourceFile(
            path=rel,
            module=_module_name(file_path),
            tree=ast.parse(source, filename=rel),
        )
        _scan_comments(sf, source.splitlines())
        self.files[rel] = sf
        for node in sf.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(sf, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{sf.module}.{node.name}",
                    module=sf.module,
                    name=node.name,
                    base_names=[terminal_name(b) or "" for b in node.bases],
                )
                self.classes[info.qualname] = info
                self.classes_by_name.setdefault(node.name, []).append(info)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.methods[item.name] = self._add_function(
                            sf, item, class_name=node.name
                        )

    def _add_function(
        self, sf: SourceFile, node: FunctionNode, class_name: Optional[str]
    ) -> FunctionInfo:
        scope = f"{sf.module}.{class_name}" if class_name else sf.module
        fn = FunctionInfo(
            qualname=f"{scope}.{node.name}",
            module=sf.module,
            class_name=class_name,
            name=node.name,
            node=node,
            path=sf.path,
        )
        self.functions[fn.qualname] = fn
        self.functions_by_name.setdefault(node.name, []).append(fn)
        return fn

    # ------------------------------------------------------------------
    # Call-graph approximation
    # ------------------------------------------------------------------
    def _resolve_edges(self, fn: FunctionInfo) -> None:
        """May-call edges out of ``fn``.  Nested defs belong to the
        enclosing function's behaviour (closures run on the same
        thread), so the walk does not skip them."""
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            targets: Iterable[FunctionInfo] = ()
            if isinstance(func, ast.Name):
                same_module = self.functions.get(f"{fn.module}.{func.id}")
                if same_module is not None:
                    targets = [same_module]
                else:
                    # Constructor call of a project class: edge to __init__.
                    targets = [
                        info.methods["__init__"]
                        for info in self.classes_by_name.get(func.id, ())
                        if "__init__" in info.methods
                    ]
            elif isinstance(func, ast.Attribute):
                targets = self._attribute_targets(fn, func)
            fn.edges.update(target.qualname for target in targets)

    def _attribute_targets(
        self, fn: FunctionInfo, func: ast.Attribute
    ) -> List[FunctionInfo]:
        method = func.attr
        receiver = terminal_name(func.value)
        if receiver in ("self", "cls") and fn.class_name is not None:
            return self.resolve_method([fn.class_name], method)
        if receiver is None:
            return []
        types = LOCAL_TYPES.get(receiver) or ATTR_TYPES.get(receiver)
        if types:
            return self.resolve_method(types, method)
        if method in GENERIC_METHOD_NAMES:
            return []
        # Last resort: unique-name match across the project.
        return [
            candidate
            for candidate in self.functions_by_name.get(method, ())
            if candidate.class_name is not None or candidate.module == fn.module
        ]

    def subclasses_of(self, class_name: str) -> List[ClassInfo]:
        """The classes named ``class_name`` plus all project subclasses."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        frontier = [class_name]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            out.extend(self.classes_by_name.get(name, ()))
            for info in self.classes.values():
                if name in info.base_names and info.name not in seen:
                    frontier.append(info.name)
        return out

    def resolve_method(self, class_names: Iterable[str], method: str) -> List[FunctionInfo]:
        """All definitions ``method`` could dispatch to for these classes."""
        found: List[FunctionInfo] = []
        for class_name in class_names:
            for info in self.subclasses_of(class_name):
                fn = self._lookup_in_class(info, method)
                if fn is not None and fn not in found:
                    found.append(fn)
        return found

    def _lookup_in_class(
        self, info: ClassInfo, method: str, depth: int = 0
    ) -> Optional[FunctionInfo]:
        if method in info.methods:
            return info.methods[method]
        if depth > 8:
            return None
        for base in info.base_names:
            for base_info in self.classes_by_name.get(base, ()):
                fn = self._lookup_in_class(base_info, method, depth + 1)
                if fn is not None:
                    return fn
        return None

    def match_functions(self, pattern: str) -> List[FunctionInfo]:
        """Functions named by a config pattern: an exact qualname, or
        ``module.Class.*`` for every method of a class."""
        if pattern.endswith(".*"):
            info = self.classes.get(pattern[:-2])
            return list(info.methods.values()) if info is not None else []
        fn = self.functions.get(pattern)
        return [fn] if fn is not None else []

    def enclosing_symbol(self, sf: SourceFile, lineno: int) -> str:
        """Qualname of the innermost indexed def spanning ``lineno``."""
        best: Optional[FunctionInfo] = None
        for fn in self.functions.values():
            if fn.path != sf.path:
                continue
            end = fn.node.end_lineno or fn.node.lineno
            if fn.node.lineno <= lineno <= end and (
                best is None or fn.node.lineno > best.node.lineno
            ):
                best = fn
        return best.qualname if best is not None else sf.module

    def suppressed(self, finding: Finding) -> bool:
        """Is ``finding`` covered by a disable comment on its line, on
        its function's ``def`` line, or in the file header?"""
        sf = self.files.get(finding.path)
        if sf is None:
            return False
        if finding.rule in sf.file_suppressions:
            return True
        if finding.rule in sf.suppressions.get(finding.line, ()):
            return True
        fn = self.functions.get(finding.symbol)
        return (
            fn is not None
            and fn.path == finding.path
            and finding.rule in sf.suppressions.get(fn.node.lineno, ())
        )


# ----------------------------------------------------------------------
# File walk, module names, comment scan
# ----------------------------------------------------------------------
def _iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path) and path.endswith(".py"):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)


def _module_name(file_path: str) -> str:
    """Dotted module name, derived by walking up through __init__.py dirs."""
    abs_path = os.path.abspath(file_path)
    parts = [os.path.splitext(os.path.basename(abs_path))[0]]
    directory = os.path.dirname(abs_path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        directory = os.path.dirname(directory)
    if parts[0] == "__init__":
        parts = parts[1:]
    return ".".join(reversed(parts))


def _scan_comments(sf: SourceFile, lines: Sequence[str]) -> None:
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes: Set[str] = set()
        for token in match.group(1).split(","):
            token = token.strip()
            code = _SLUG_TO_CODE.get(token, token.upper())
            if code in RULES:
                codes.add(code)
        if not codes:
            continue
        if line.strip().startswith("#") and lineno <= 5:
            sf.file_suppressions |= codes
        sf.suppressions.setdefault(lineno, set()).update(codes)


# ----------------------------------------------------------------------
# AST helpers shared by the rule modules
# ----------------------------------------------------------------------
def terminal_name(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted_name(node: ast.expr) -> Optional[str]:
    """`a.b.c` -> "a.b.c" for pure Name/Attribute chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def caught_names(handler: ast.ExceptHandler) -> Set[str]:
    """Exception class names a handler lists (empty for a bare except)."""
    if handler.type is None:
        return set()
    exprs = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {name for name in map(terminal_name, exprs) if name is not None}
