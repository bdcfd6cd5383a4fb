"""LOOM201-208: interprocedural view-lifetime (escape) analysis.

The zero-copy read tier hands out ``memoryview``s into storage that is
concurrently remapped, recycled, and truncated.  These rules prove, over
the plain AST, that no borrowed view outlives its validity window.  They
are the static half of a pair: :mod:`repro.core.viewguard` is the runtime
twin that poisons outstanding views under ``LOOMSAN=1``.

Two passes over the shared :class:`~tools.loomlint.index.ProjectIndex`:

1. **Summaries** (the interprocedural pass): for each function, compute to
   a fixpoint whether it can *return a borrow* (a view minted by a source
   inside it or by a callee) and which of its parameters flow to its
   return value (*passthrough*), plus whether its ``copy=`` parameter
   defaults to copying.  Call sites consult summaries, so a borrow minted
   three calls deep still taints the caller.
2. **Rules**: re-walk each function with an intraprocedural taint
   environment (names -> borrow records, each carrying its borrow site)
   and report LOOM201-208 findings.  Every finding names the borrow site
   (``file:line``) where the view was minted, not just where it escaped.

The taint domain is deliberately two-kinded: ``source`` borrows (minted
from a view source) drive every rule; ``param`` borrows (a parameter that
may be a view) exist only so summaries can model passthrough — a function
slicing a caller-supplied buffer is the *caller's* problem at the
caller's call site, not a finding inside the callee.  This keeps false
positives near zero on codec helpers that legitimately transform buffers
they do not own.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .config import (
    BRACKET_EXCEPTIONS,
    BUFFER_ATTR_NAMES,
    CONTAINER_CALLS,
    CONTRACT_LIFETIMES,
    COPY_KEYWORD,
    COPYING_CALLS,
    COPYING_METHODS,
    DAEMON_PATH_FRAGMENT,
    FROMBUFFER_NAMES,
    HANDOFF_CONSTRUCTORS,
    HANDOFF_METHODS,
    PUBLIC_EXEMPT_PREFIX,
    TAINT_PRESERVING_METHODS,
    VIEW_SOURCE_METHODS,
)
from .index import (
    Finding,
    FunctionInfo,
    FunctionNode,
    ProjectIndex,
    caught_names,
    terminal_name,
)


@dataclass(frozen=True)
class Borrow:
    """A value that may be (or contain) a borrowed view.

    ``kind`` is ``"source"`` for views minted by a view source and
    ``"param"`` for caller-supplied values (tracked only for summary
    passthrough, never reported directly).
    """

    site: str  # "path:line" of the mint
    line: int
    reason: str  # e.g. "read_view(...)" or "copy=False call"
    kind: str = "source"


@dataclass
class _Summary:
    """What a call site needs to know about its callee."""

    #: The signature has a ``copy`` parameter that defaults to True.
    copies_by_default: bool
    #: May return/yield a borrow minted inside (or below) this function.
    returns_borrow: bool = False
    #: Parameter names whose taint can flow to the return value.
    passthrough: Set[str] = field(default_factory=set)


def _summarize(index: ProjectIndex) -> Dict[str, _Summary]:
    """Iterate summary evaluation to a fixpoint (bounded)."""
    summaries = {
        fn.qualname: _Summary(copies_by_default=_copies_by_default(fn.node))
        for fn in index.functions.values()
    }
    for _ in range(12):
        changed = False
        for fn in index.functions.values():
            summary = summaries[fn.qualname]
            walker = _TaintWalker(index, summaries, fn, summary_only=True)
            walker.walk()
            if walker.returns_source_borrow and not summary.returns_borrow:
                summary.returns_borrow = True
                changed = True
            if not walker.returned_params <= summary.passthrough:
                summary.passthrough |= walker.returned_params
                changed = True
        if not changed:
            break
    return summaries


def _copies_by_default(node: FunctionNode) -> bool:
    """Does the signature have a ``copy`` parameter defaulting to True?"""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    unset: List[Optional[ast.expr]] = [None] * (len(positional) - len(args.defaults))
    for arg, default in zip(
        [*positional, *args.kwonlyargs], [*unset, *args.defaults, *args.kw_defaults]
    ):
        if arg.arg == COPY_KEYWORD:
            return isinstance(default, ast.Constant) and default.value is True
    return False


def _contains_await(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Await):
            return True
    return False


# ----------------------------------------------------------------------
# The per-function taint walker
# ----------------------------------------------------------------------
class _TaintWalker:
    """Walk one function body in statement order, propagating borrows.

    Runs in two modes: ``summary_only`` computes the interprocedural
    facts (does a source borrow reach the return? which params pass
    through?); the full mode additionally emits LOOM201-207 findings
    into ``self.findings``.  Loop bodies are walked twice so
    loop-carried taint reaches uses lexically before the assignment.
    """

    def __init__(
        self,
        index: ProjectIndex,
        summaries: Dict[str, _Summary],
        fn: FunctionInfo,
        summary_only: bool,
    ) -> None:
        self.index = index
        self.summaries = summaries
        self.fn = fn
        self.summary_only = summary_only
        self.env: Dict[str, Borrow] = {}
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, int, str]] = set()
        # Summary outputs.
        self.returns_source_borrow = False
        self.returned_params: Set[str] = set()
        # LOOM201: names that escaped a SnapshotRetry bracket.
        self.bracket_escapes: Dict[str, Borrow] = {}
        # LOOM204: tainted names live across an await.
        self.crossed: Dict[str, Borrow] = {}
        self.in_daemon = DAEMON_PATH_FRAGMENT in fn.path
        # Parameters start as param-kind borrows (for passthrough).
        for p in fn.params:
            self.env[p] = Borrow(
                site=f"{fn.path}:{fn.node.lineno}",
                line=fn.node.lineno,
                reason=f"parameter {p!r}",
                kind="param",
            )

    # -- entry ----------------------------------------------------------
    def walk(self) -> None:
        self._walk_body(self.fn.node.body)

    def _walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    # -- reporting ------------------------------------------------------
    def _report(
        self, rule: str, line: int, message: str, borrow: Borrow
    ) -> None:
        if self.summary_only:
            return
        if borrow.kind != "source":
            return
        key = (rule, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                path=self.fn.path,
                line=line,
                rule=rule,
                symbol=self.fn.qualname,
                message=message,
                borrow_site=borrow.site,
            )
        )

    # -- statements -----------------------------------------------------
    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are indexed and analyzed separately
        if isinstance(stmt, ast.ClassDef):
            return
        had_await = self.fn.is_async and _contains_await(stmt)
        if isinstance(stmt, ast.Assign):
            borrow = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, borrow, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                borrow = self._eval(stmt.value)
                self._assign(stmt.target, borrow, stmt)
        elif isinstance(stmt, ast.AugAssign):
            borrow = self._eval(stmt.value)
            self._check_write_through(stmt.target)
            # x += tainted keeps x tainted; x stays whatever it was else.
            if borrow is not None:
                self._assign(stmt.target, borrow, stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                borrow = self._eval(stmt.value)
                self._note_return(borrow, stmt.value.lineno, "return")
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                inner = value.value
                if inner is not None:
                    borrow = self._eval(inner)
                    self._note_return(borrow, value.lineno, "yield")
            else:
                self._eval(value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.While,)):
            self._eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.body)  # loop-carried taint, second pass
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            borrow = self._eval(stmt.iter)
            # Iterating a tainted container yields tainted elements.
            self._assign(stmt.target, borrow, stmt)
            self._walk_body(stmt.body)
            self._walk_body(stmt.body)  # loop-carried taint, second pass
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._walk_try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                borrow = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, borrow, stmt)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, (ast.Delete,)):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing to do.
        if had_await:
            # Everything tainted before the await is now suspect: the
            # coroutine was suspended, the writer may have moved on.
            for name, borrow in self.env.items():
                if borrow.kind == "source":
                    self.crossed[name] = borrow

    def _walk_try(self, stmt: ast.Try) -> None:
        is_bracket = any(
            caught_names(handler) & BRACKET_EXCEPTIONS for handler in stmt.handlers
        )
        before = dict(self.env)
        self._walk_body(stmt.body)
        for handler in stmt.handlers:
            self._walk_body(handler.body)
        self._walk_body(stmt.orelse)
        self._walk_body(stmt.finalbody)
        if is_bracket:
            # Names (re)minted inside the bracket must die inside it:
            # record them so later loads (outside the bracket) are
            # LOOM201.  Identity comparison, not membership, so a
            # loop-carried re-mint on a second walk is re-recorded.
            for name, borrow in self.env.items():
                if borrow.kind == "source" and before.get(name) is not borrow:
                    self.bracket_escapes[name] = borrow

    # -- assignment targets ---------------------------------------------
    def _assign(
        self,
        target: ast.expr,
        borrow: Optional[Borrow],
        stmt: ast.stmt,
    ) -> None:
        if isinstance(target, ast.Name):
            if borrow is not None:
                self.env[target.id] = borrow
            else:
                self.env.pop(target.id, None)
            # A reassignment clears the bracket/await bookkeeping.
            self.bracket_escapes.pop(target.id, None)
            self.crossed.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, borrow, stmt)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, borrow, stmt)
        elif isinstance(target, ast.Attribute):
            if borrow is not None and borrow.kind == "source":
                owner = target.value
                if isinstance(owner, ast.Name) and (
                    owner.id == "self" or owner.id in self.fn.params
                ):
                    self._report(
                        "LOOM202",
                        stmt.lineno,
                        f"borrowed view stored into attribute "
                        f"{owner.id}.{target.attr}, which outlives the "
                        f"view's validity window",
                        borrow,
                    )
        elif isinstance(target, ast.Subscript):
            self._check_write_through(target)
            if borrow is not None and borrow.kind == "source":
                container = target.value
                if self._container_escapes(container):
                    self._report(
                        "LOOM203",
                        stmt.lineno,
                        f"borrowed view stored into container "
                        f"{ast.unparse(container)!s}[...], which outlives "
                        f"the enclosing scope",
                        borrow,
                    )

    def _check_write_through(self, target: ast.expr) -> None:
        """LOOM207: subscript stores through a tainted name."""
        if not isinstance(target, ast.Subscript):
            return
        base = target.value
        borrow = self._eval(base) if not isinstance(base, ast.Name) else (
            self.env.get(base.id)
        )
        if borrow is not None and borrow.kind == "source":
            self._report(
                "LOOM207",
                target.lineno,
                f"write through borrowed view "
                f"{ast.unparse(base)!s}: log bytes are immutable "
                f"after publication",
                borrow,
            )

    def _container_escapes(self, container: ast.expr) -> bool:
        """Does this container outlive the function's scope?"""
        if isinstance(container, ast.Attribute):
            return True  # self.cache[...] / obj.cache[...]
        if isinstance(container, ast.Name):
            # Module-level or closure name: not a local, not a param.
            if container.id in self.fn.params:
                return True
            return container.id not in self._local_names()
        return False

    def _local_names(self) -> Set[str]:
        names: Set[str] = set(self.fn.params)

        def bound(target: ast.expr) -> None:
            # Only names the target *binds*: ``cache[k] = v`` and
            # ``obj.attr = v`` do not make ``cache``/``obj`` locals.
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    bound(element)
            elif isinstance(target, ast.Starred):
                bound(target.value)

        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bound(target)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                bound(node.target)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bound(node.target)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        bound(item.optional_vars)
        return names

    # -- returns / yields -----------------------------------------------
    def _note_return(
        self, borrow: Optional[Borrow], line: int, verb: str
    ) -> None:
        if borrow is None:
            return
        if borrow.kind == "param":
            for p in self.fn.params:
                if borrow.reason == f"parameter {p!r}":
                    self.returned_params.add(p)
            # Conservative: any param-kind borrow marks all params whose
            # env entry is this borrow.
            for name, b in self.env.items():
                if b is borrow and name in self.fn.params:
                    self.returned_params.add(name)
            return
        self.returns_source_borrow = True
        if self.summary_only:
            return
        # LOOM206: public API returning a borrow without a contract.
        if self.fn.name.startswith(PUBLIC_EXEMPT_PREFIX):
            return
        if self.fn.contract is not None:
            return
        self._report(
            "LOOM206",
            line,
            f"public API {verb}s a borrowed view without copy=True or a "
            f"'# loomflow: borrows=' contract on the def",
            borrow,
        )

    # -- expressions -----------------------------------------------------
    def _eval(self, expr: ast.expr) -> Optional[Borrow]:
        if isinstance(expr, ast.Name):
            borrow = self.env.get(expr.id)
            if borrow is not None and borrow.kind == "source":
                if expr.id in self.bracket_escapes:
                    self._report(
                        "LOOM201",
                        expr.lineno,
                        f"view {expr.id!r} created inside a SnapshotRetry "
                        f"validation bracket is used after the bracket",
                        borrow,
                    )
                if self.in_daemon and expr.id in self.crossed:
                    self._report(
                        "LOOM204",
                        expr.lineno,
                        f"view {expr.id!r} is used after an await: the "
                        f"bytes may have been recycled while suspended",
                        borrow,
                    )
            return borrow
        if isinstance(expr, ast.Attribute):
            inner = self._eval(expr.value)
            return inner  # record.payload on a tainted record stays tainted
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value)
            if isinstance(expr.slice, ast.expr):
                self._eval(expr.slice)
            return base  # slicing a view/container keeps the borrow
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            borrows = [self._eval(e) for e in expr.elts]
            return _first_source(borrows)
        if isinstance(expr, ast.Dict):
            borrows = [
                self._eval(v) for v in expr.values if v is not None
            ]
            for k in expr.keys:
                if k is not None:
                    self._eval(k)
            return _first_source(borrows)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return _first_source(
                [self._eval(expr.body), self._eval(expr.orelse)]
            )
        if isinstance(expr, ast.BoolOp):
            return _first_source([self._eval(v) for v in expr.values])
        if isinstance(expr, ast.NamedExpr):
            borrow = self._eval(expr.value)
            self._assign(expr.target, borrow, ast.Expr(value=expr))
            return borrow
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(expr)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, (ast.BinOp, ast.UnaryOp, ast.Compare)):
            for sub in ast.iter_child_nodes(expr):
                if isinstance(sub, ast.expr):
                    self._eval(sub)
            return None
        if isinstance(expr, (ast.JoinedStr, ast.FormattedValue)):
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name):
                    self._eval(sub)
            return None
        if isinstance(expr, ast.Lambda):
            return None
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            if expr.value is not None:
                borrow = self._eval(expr.value)
                self._note_return(borrow, expr.lineno, "yield")
            return None
        return None

    def _eval_comprehension(self, expr: ast.expr) -> Optional[Borrow]:
        saved = dict(self.env)
        borrow_out: Optional[Borrow] = None
        generators = getattr(expr, "generators", [])
        for gen in generators:
            borrow = self._eval(gen.iter)
            self._assign(gen.target, borrow, ast.Expr(value=expr))
            for cond in gen.ifs:
                self._eval(cond)
        if isinstance(expr, ast.DictComp):
            self._eval(expr.key)
            borrow_out = self._eval(expr.value)
        else:
            borrow_out = self._eval(expr.elt)  # type: ignore[attr-defined]
        self.env = saved
        return borrow_out

    # -- calls ------------------------------------------------------------
    def _eval_call(self, call: ast.Call) -> Optional[Borrow]:
        name = terminal_name(call.func)
        arg_borrows = [self._eval(a) for a in call.args]
        kw_borrows = [
            self._eval(kw.value) for kw in call.keywords if kw.value is not None
        ]
        receiver_borrow: Optional[Borrow] = None
        if isinstance(call.func, ast.Attribute):
            receiver_borrow = self._eval(call.func.value)
        tainted_arg = _first_source(arg_borrows + kw_borrows)

        # LOOM205: thread/queue handoffs in daemon code.
        if self.in_daemon and tainted_arg is not None:
            if name in HANDOFF_METHODS:
                self._report(
                    "LOOM205",
                    call.lineno,
                    f"borrowed view handed to another thread/task via "
                    f"{name}(...)",
                    tainted_arg,
                )
            elif name in HANDOFF_CONSTRUCTORS:
                self._report(
                    "LOOM205",
                    call.lineno,
                    f"borrowed view captured by {name}(...) escapes to "
                    f"another thread",
                    tainted_arg,
                )

        # LOOM203: container mutators on escaping containers.
        if (
            name in ("append", "add", "insert", "extend", "appendleft")
            and tainted_arg is not None
            and isinstance(call.func, ast.Attribute)
            and self._container_escapes(call.func.value)
        ):
            self._report(
                "LOOM203",
                call.lineno,
                f"borrowed view stored into container "
                f"{ast.unparse(call.func.value)!s}.{name}(...), which "
                f"outlives the enclosing scope",
                tainted_arg,
            )

        # Laundering calls produce owned bytes.
        if isinstance(call.func, ast.Name) and name in COPYING_CALLS:
            return None
        if name in COPYING_METHODS and isinstance(call.func, ast.Attribute):
            return None

        # View sources by method name.
        if name in VIEW_SOURCE_METHODS:
            return self._mint(call, f"{name}(...)")

        # memoryview()/frombuffer() over buffers.
        if name == "memoryview" and isinstance(call.func, ast.Name):
            if tainted_arg is not None:
                return tainted_arg
            if call.args and isinstance(call.args[0], ast.Attribute):
                if call.args[0].attr in BUFFER_ATTR_NAMES:
                    return self._mint(
                        call, f"memoryview({ast.unparse(call.args[0])!s})"
                    )
            return None
        if name in FROMBUFFER_NAMES:
            return tainted_arg

        # Taint-preserving methods on a tainted receiver.
        if name in TAINT_PRESERVING_METHODS and receiver_borrow is not None:
            return receiver_borrow

        # typing.cast(T, value) is the identity on the value's taint.
        if name == "cast" and call.args:
            return self._eval(call.args[-1])

        # Container conversions keep their argument's taint.
        if (
            isinstance(call.func, ast.Name)
            and name in CONTAINER_CALLS
            and tainted_arg is not None
        ):
            return tainted_arg

        # The copy= convention.
        copy_kw = next(
            (kw for kw in call.keywords if kw.arg == COPY_KEYWORD), None
        )
        if copy_kw is not None:
            if (
                isinstance(copy_kw.value, ast.Constant)
                and copy_kw.value.value is True
            ):
                return None  # explicit copy: owned bytes
            if (
                isinstance(copy_kw.value, ast.Constant)
                and copy_kw.value.value is False
            ):
                return self._mint(call, f"{name or 'call'}(copy=False)")
            # copy=<forwarded>: conservatively a borrow — some caller
            # will pass False.
            return self._mint(
                call, f"{name or 'call'}(copy={ast.unparse(copy_kw.value)!s})"
            )

        # Interprocedural: consult the callee's summary.
        callee = self.index.resolve_call(call, self.fn)
        if callee is not None:
            summary = self.summaries[callee.qualname]
            if summary.copies_by_default:
                # No copy= at this call site and the callee defaults to
                # copying: owned bytes.
                return None
            if summary.returns_borrow:
                return self._mint(
                    call, f"{callee.name}(...) returns a borrow"
                )
            if summary.passthrough:
                passed = self._args_for_params(call, callee)
                for param in summary.passthrough:
                    borrow = passed.get(param)
                    if borrow is not None and borrow.kind == "source":
                        return borrow
            return None

        # Unresolved constructor of an indexed class with a tainted arg:
        # the object carries the borrow (e.g. Record(payload=view)).
        if (
            name is not None
            and name in self.index.classes_by_name
            and tainted_arg is not None
        ):
            return tainted_arg
        return None

    def _mint(self, call: ast.Call, reason: str) -> Borrow:
        return Borrow(
            site=f"{self.fn.path}:{call.lineno}",
            line=call.lineno,
            reason=reason,
            kind="source",
        )

    def _args_for_params(
        self, call: ast.Call, callee: FunctionInfo
    ) -> Dict[str, Optional[Borrow]]:
        """Map callee parameter names to the borrows of the call's args."""
        mapping: Dict[str, Optional[Borrow]] = {}
        params = callee.params
        for param, arg in zip(params, call.args):
            mapping[param] = self._eval(arg)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                mapping[kw.arg] = self._eval(kw.value)
        return mapping


def _first_source(borrows: Sequence[Optional[Borrow]]) -> Optional[Borrow]:
    fallback: Optional[Borrow] = None
    for borrow in borrows:
        if borrow is None:
            continue
        if borrow.kind == "source":
            return borrow
        fallback = fallback or borrow
    return fallback


# ----------------------------------------------------------------------
# Contract validation (LOOM208)
# ----------------------------------------------------------------------
def _check_contracts(
    index: ProjectIndex, summaries: Dict[str, _Summary]
) -> List[Finding]:
    findings: List[Finding] = []
    for fn in index.functions.values():
        contract = fn.contract
        if contract is None:
            continue
        summary = summaries[fn.qualname]
        if contract.lifetime not in CONTRACT_LIFETIMES:
            findings.append(
                Finding(
                    path=fn.path,
                    line=contract.line,
                    rule="LOOM208",
                    symbol=fn.qualname,
                    message=(
                        f"unknown borrow lifetime "
                        f"{contract.lifetime!r} (expected one of: "
                        f"{', '.join(sorted(CONTRACT_LIFETIMES))})"
                    ),
                    borrow_site=f"{fn.path}:{contract.line}",
                )
            )
        elif not summary.returns_borrow and not summary.passthrough:
            findings.append(
                Finding(
                    path=fn.path,
                    line=contract.line,
                    rule="LOOM208",
                    symbol=fn.qualname,
                    message=(
                        "stale borrow contract: the analysis sees no "
                        "borrowed view reaching this function's return"
                    ),
                    borrow_site=f"{fn.path}:{contract.line}",
                )
            )
    return findings


def rule_borrows(index: ProjectIndex) -> List[Finding]:
    """All LOOM201-208 findings over the index."""
    summaries = _summarize(index)
    findings: List[Finding] = []
    for fn in index.functions.values():
        walker = _TaintWalker(index, summaries, fn, summary_only=False)
        walker.walk()
        findings.extend(walker.findings)
    findings.extend(_check_contracts(index, summaries))
    return findings
