"""LOOM101-116: Loom's concurrency and wire-protocol invariants.

Each rule is a function over the shared :class:`~tools.loomlint.index.
ProjectIndex` and enforces an invariant from the paper or from the
networked service's design; the descriptions in
:data:`tools.loomlint.config.RULES` cite the sections.
"""

from __future__ import annotations

import ast
import re
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .config import (
    ASYNC_EXEMPT_FACT_TOKENS,
    CLIENT_MODULE,
    CLOCK_EXEMPT_SUFFIXES,
    CONTRACT_DOCSTRINGS,
    CORE_PATH_FRAGMENT,
    DAEMON_MODULE_PREFIX,
    DEADLINE_PARAM,
    ENGINE_PATHS,
    FLUSH_CRITICAL_MODULES,
    FRAME_IO_METHODS,
    FUZZ_SCHEDULE_FIELDS,
    FUZZ_SCHEDULE_QUALNAME,
    HEADER_CHECKED_MODULES,
    HEADER_GUARD_EXCEPTIONS,
    HEADER_RECEIVER_NAMES,
    METRICS_PATH_FRAGMENTS,
    NONDETERMINISTIC_CALLS,
    NONDETERMINISTIC_MODULES,
    PAYLOAD_CALL_NAMES,
    PAYLOAD_RECEIVER_ATTRS,
    PAYLOAD_STORE_ATTRS,
    PROTOCOL_MODULE,
    PUBLISH_CALL_NAMES,
    PUBLISH_STORE_ATTRS,
    READER_ROOTS,
    RECORD_LOG_QUALNAME,
    REQUEST_CALL_NAME,
    RUNTIME_PACKAGE,
    SEQLOCK_STATE_ATTRS,
    SHADOW_LOG_QUALNAME,
    SHADOW_SURFACE,
    SHARD_STATE_ATTRS,
    SWALLOWABLE_EXCEPTIONS,
    TIMEOUT_CALL_NAME,
    TOOLS_PACKAGE,
    TRANSPORT_EXEMPT_SUFFIXES,
    WIRE_CONSTANT_NAMES,
    WIRE_STRUCT_FORMATS,
    YIELD_CALL_NAMES,
    YIELD_LABEL_PATTERN,
)
from .index import (
    Finding,
    FunctionInfo,
    ProjectIndex,
    SourceFile,
    caught_names,
    dotted_name,
    terminal_name,
)

#: Direct calls that block or touch durable IO (reader paths must not).
_BLOCKING_DOTTED = frozenset({"time.sleep", "os.fsync"})
_BLOCKING_METHODS = frozenset({"acquire", "wait"})
_QUEUE_METHODS = frozenset({"get", "put", "get_nowait", "put_nowait"})


class _BlockingVisitor(ast.NodeVisitor):
    """Collects the blocking facts found directly in one function body
    (nested defs included: closures run on the same thread)."""

    def __init__(self) -> None:
        #: (lineno, description)
        self.facts: List[Tuple[int, str]] = []

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            expr = item.context_expr
            name = terminal_name(expr)
            if name is not None and "lock" in name.lower():
                self.facts.append(
                    (expr.lineno, f"acquires lock `{ast.unparse(expr)}`")
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted = dotted_name(func)
        if dotted in _BLOCKING_DOTTED:
            self.facts.append((node.lineno, f"calls {dotted}()"))
        elif isinstance(func, ast.Name):
            if func.id == "open":
                self.facts.append((node.lineno, "opens a file"))
        elif isinstance(func, ast.Attribute):
            method = func.attr
            receiver = terminal_name(func.value)
            if method in _BLOCKING_METHODS:
                self.facts.append(
                    (node.lineno, f"calls blocking `{ast.unparse(func)}()`")
                )
            elif (
                method in _QUEUE_METHODS
                and receiver is not None
                and "queue" in receiver.lower()
            ):
                self.facts.append(
                    (node.lineno, f"blocking queue op `{ast.unparse(func)}()`")
                )
        self.generic_visit(node)


def _blocking_facts(fn: FunctionInfo) -> List[Tuple[int, str]]:
    visitor = _BlockingVisitor()
    visitor.visit(fn.node)
    return visitor.facts


def _in_core(path: str) -> bool:
    """repro/core/ plus the verification engines that moved out of it."""
    return CORE_PATH_FRAGMENT in path or path in ENGINE_PATHS


def _reader_roots(index: ProjectIndex) -> List[FunctionInfo]:
    roots: List[FunctionInfo] = []
    for pattern in READER_ROOTS:
        for fn in index.match_functions(pattern):
            if fn not in roots:
                roots.append(fn)
    return roots


def _blocking_reachable(
    index: ProjectIndex,
    roots: Iterable[FunctionInfo],
    follow: Callable[[FunctionInfo], bool] = lambda fn: True,
) -> Iterator[Tuple[FunctionInfo, str, List[Tuple[int, str]]]]:
    """Close ``roots`` over call edges into functions ``follow`` admits;
    yield each reached function that blocks directly as ``(fn, root,
    facts)``, in qualname order, ``root`` being the root that reached it."""
    parent: Dict[str, Optional[str]] = {}
    frontier: List[str] = []
    for root in roots:
        if root.qualname not in parent:
            parent[root.qualname] = None
            frontier.append(root.qualname)
    while frontier:
        qualname = frontier.pop()
        for callee in sorted(index.functions[qualname].edges):
            if callee not in parent and follow(index.functions[callee]):
                parent[callee] = qualname
                frontier.append(callee)
    for qualname in sorted(parent):
        facts = _blocking_facts(index.functions[qualname])
        if not facts:
            continue
        origin = qualname
        while (caller := parent[origin]) is not None:
            origin = caller
        yield index.functions[qualname], origin, facts


def rule_reader_blocking(index: ProjectIndex) -> List[Finding]:
    """LOOM101: no blocking primitive reachable from reader roots."""
    findings: List[Finding] = []
    for fn, root, facts in _blocking_reachable(index, _reader_roots(index)):
        via = (
            fn.qualname
            if root == fn.qualname
            else f"{fn.qualname} <- reachable via {root}"
        )
        for lineno, description in facts:
            findings.append(
                Finding(
                    path=fn.path,
                    line=lineno,
                    rule="LOOM101",
                    symbol=fn.qualname,
                    message=(
                        f"{description} on a reader path ({via}); readers "
                        f"must stay lock-free (paper sections 4.4-4.5)"
                    ),
                )
            )
    return findings


def rule_version_parity(index: ProjectIndex) -> List[Finding]:
    """LOOM102: `_version += 1` bumps pair up within each function."""
    findings: List[Finding] = []
    for fn in sorted(index.functions.values(), key=lambda f: (f.path, f.qualname)):
        node = fn.node
        bumps: List[int] = []
        assigns: List[int] = []
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.AugAssign)
                and isinstance(sub.target, ast.Attribute)
                and sub.target.attr == "_version"
            ):
                if isinstance(sub.op, ast.Add) and (
                    isinstance(sub.value, ast.Constant) and sub.value.value == 1
                ):
                    bumps.append(sub.lineno)
                else:
                    assigns.append(sub.lineno)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "_version":
                        assigns.append(sub.lineno)
        if fn.name != "__init__":
            for lineno in assigns:
                findings.append(
                    Finding(
                        path=fn.path,
                        line=lineno,
                        rule="LOOM102",
                        symbol=fn.qualname,
                        message=(
                            "seqlock version must only move via "
                            "`self._version += 1` (outside __init__); "
                            "arbitrary stores can skip the odd state"
                        ),
                    )
                )
        if not bumps:
            continue
        if len(bumps) % 2 != 0:
            findings.append(
                Finding(
                    path=fn.path,
                    line=bumps[0],
                    rule="LOOM102",
                    symbol=fn.qualname,
                    message=(
                        f"{len(bumps)} version bump(s) in one function: bumps "
                        f"must pair up (odd while mutating, back to even) "
                        f"within the same function"
                    ),
                )
            )
        first, last = min(bumps), max(bumps)
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Return, ast.Raise)) and first < sub.lineno < last:
                findings.append(
                    Finding(
                        path=fn.path,
                        line=sub.lineno,
                        rule="LOOM102",
                        symbol=fn.qualname,
                        message=(
                            "return/raise between version bumps could leave "
                            "the seqlock odd (mid-recycle) forever"
                        ),
                    )
                )
    return findings


def rule_publish_order(index: ProjectIndex) -> List[Finding]:
    """LOOM103: payload stores must precede publication in a function."""
    findings: List[Finding] = []
    for fn in sorted(index.functions.values(), key=lambda f: (f.path, f.qualname)):
        if not _in_core(fn.path):
            continue
        publish_events: List[Tuple[int, str]] = []
        payload_stores: List[Tuple[int, str]] = []
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Call):
                name = terminal_name(sub.func)
                if name in PUBLISH_CALL_NAMES:
                    publish_events.append((sub.lineno, f"{name}()"))
                elif name in PAYLOAD_CALL_NAMES and isinstance(sub.func, ast.Attribute):
                    receiver = terminal_name(sub.func.value)
                    if receiver in PAYLOAD_RECEIVER_ATTRS:
                        payload_stores.append((sub.lineno, f"{receiver}.{name}()"))
            elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    sub.targets
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr in PUBLISH_STORE_ATTRS:
                        publish_events.append((sub.lineno, f"store {target.attr}"))
                    elif target.attr in PAYLOAD_STORE_ATTRS:
                        payload_stores.append((sub.lineno, f"store {target.attr}"))
        if not publish_events or not payload_stores:
            continue
        first_publish = min(publish_events)
        for lineno, description in payload_stores:
            if lineno > first_publish[0]:
                findings.append(
                    Finding(
                        path=fn.path,
                        line=lineno,
                        rule="LOOM103",
                        symbol=fn.qualname,
                        message=(
                            f"payload store {description} after publication "
                            f"event {first_publish[1]} (line "
                            f"{first_publish[0]}); section 5.4 requires all "
                            f"data/index stores before the watermark moves"
                        ),
                    )
                )
    return findings


def _nondeterministic_calls(
    index: ProjectIndex, sf: SourceFile, rule: str, why: str
) -> Iterator[Finding]:
    for node in ast.walk(sf.tree):
        dotted = dotted_name(node.func) if isinstance(node, ast.Call) else None
        if dotted is None:
            continue
        head = dotted.split(".", 1)[0]
        if dotted in NONDETERMINISTIC_CALLS or head in NONDETERMINISTIC_MODULES:
            yield Finding(
                path=sf.path,
                line=node.lineno,
                rule=rule,
                symbol=index.enclosing_symbol(sf, node.lineno),
                message=f"nondeterministic call `{dotted}` in {why}",
            )


def rule_nondeterminism(index: ProjectIndex) -> List[Finding]:
    """LOOM104: wall-clock/randomness banned in core outside clock.py."""
    findings: List[Finding] = []
    for sf in index.files.values():
        if not _in_core(sf.path):
            continue
        if any(sf.path.endswith(suffix) for suffix in CLOCK_EXEMPT_SUFFIXES):
            continue
        findings.extend(
            _nondeterministic_calls(
                index,
                sf,
                "LOOM104",
                "core; all time flows through repro.core.clock so replay "
                "and recovery are reproducible (section 5.2)",
            )
        )
    return findings


def rule_metrics_clock(index: ProjectIndex) -> List[Finding]:
    """LOOM111: metrics-layer code takes time from repro.core.clock only.

    Same mechanics as LOOM104, applied to the loomscope consumer paths
    (``repro/scope/``): the registry that observes the deterministic data
    path must not smuggle wall-clock reads back into it.
    """
    findings: List[Finding] = []
    for sf in index.files.values():
        if not any(frag in sf.path for frag in METRICS_PATH_FRAGMENTS):
            continue
        findings.extend(
            _nondeterministic_calls(
                index,
                sf,
                "LOOM111",
                "the metrics layer; loomscope timestamps flow through "
                "repro.core.clock so self-observation replays like the "
                "data path it measures",
            )
        )
    return findings


def rule_exception_hygiene(index: ProjectIndex) -> List[Finding]:
    """LOOM105: no bare except; no swallowed storage errors in flush code."""
    findings: List[Finding] = []
    for sf in index.files.values():
        critical = sf.module in FLUSH_CRITICAL_MODULES
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            symbol = index.enclosing_symbol(sf, node.lineno)
            if node.type is None:
                findings.append(
                    Finding(
                        path=sf.path,
                        line=node.lineno,
                        rule="LOOM105",
                        symbol=symbol,
                        message="bare `except:` hides StorageError and "
                        "KeyboardInterrupt alike; name the exception",
                    )
                )
                continue
            if not critical:
                continue
            caught = caught_names(node)
            if not caught & SWALLOWABLE_EXCEPTIONS:
                continue
            if _handler_swallows(node):
                findings.append(
                    Finding(
                        path=sf.path,
                        line=node.lineno,
                        rule="LOOM105",
                        symbol=symbol,
                        message=(
                            f"handler for {'/'.join(sorted(caught))} in "
                            f"flush/recovery code discards the error; "
                            f"re-raise it, park it, or record a repair"
                        ),
                    )
                )
    return findings


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """True if the handler neither re-raises nor uses the caught error."""
    for sub in ast.walk(handler):
        if isinstance(sub, ast.Raise):
            return False
        if (
            handler.name is not None
            and isinstance(sub, ast.Name)
            and sub.id == handler.name
        ):
            return False
    return True


def rule_contract_docstrings(index: ProjectIndex) -> List[Finding]:
    """LOOM106: contract functions keep docstrings naming the contract."""
    findings: List[Finding] = []
    for qualname, keywords in sorted(CONTRACT_DOCSTRINGS.items()):
        fn = index.functions.get(qualname)
        if fn is None:
            # Only complain if the module itself was analyzed (running
            # loomlint on a subtree should not demand the whole project).
            module = qualname.rsplit(".", 2)[0]
            anchor = next(
                (sf for sf in index.files.values() if sf.module == module), None
            )
            if anchor is not None:
                findings.append(
                    Finding(
                        path=anchor.path,
                        line=1,
                        rule="LOOM106",
                        symbol=qualname,
                        message=(
                            f"contract function {qualname} is missing; "
                            f"renaming or deleting it silently drops a "
                            f"documented seqlock/watermark obligation"
                        ),
                    )
                )
            continue
        node = fn.node
        doc = ast.get_docstring(node) or ""
        lowered = doc.lower()
        if not doc or not any(k.lower() in lowered for k in keywords):
            want = " or ".join(f"'{k}'" for k in keywords)
            findings.append(
                Finding(
                    path=fn.path,
                    line=node.lineno,
                    rule="LOOM106",
                    symbol=fn.qualname,
                    message=(
                        f"docstring must document the concurrency contract "
                        f"(mention {want}); the docstring is the spec the "
                        f"schedule explorer and reviewers check against"
                    ),
                )
            )
    return findings


def rule_seqlock_mutation_visibility(index: ProjectIndex) -> List[Finding]:
    """LOOM107: seqlock-state stores are bracketed or carry a marker."""
    findings: List[Finding] = []
    for fn in sorted(index.functions.values(), key=lambda f: (f.path, f.qualname)):
        if not _in_core(fn.path) or fn.name == "__init__":
            continue
        stores: List[Tuple[int, str]] = []
        bumps: List[int] = []
        has_marker = False
        for sub in ast.walk(fn.node):
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in SEQLOCK_STATE_ATTRS
                    ):
                        stores.append((sub.lineno, target.attr))
                if (
                    isinstance(sub, ast.AugAssign)
                    and isinstance(sub.target, ast.Attribute)
                    and sub.target.attr == "_version"
                ):
                    bumps.append(sub.lineno)
            elif isinstance(sub, ast.Call):
                dotted = dotted_name(sub.func)
                if dotted is not None and dotted.startswith("yieldpoints."):
                    if dotted.split(".", 1)[1] in YIELD_CALL_NAMES:
                        has_marker = True
        if not stores or has_marker:
            continue
        bracket = (min(bumps), max(bumps)) if len(bumps) >= 2 else None
        for lineno, attr in stores:
            if bracket is not None and bracket[0] < lineno < bracket[1]:
                continue
            findings.append(
                Finding(
                    path=fn.path,
                    line=lineno,
                    rule="LOOM107",
                    symbol=fn.qualname,
                    message=(
                        f"store to seqlock-guarded `{attr}` is neither "
                        f"inside a version bracket nor in a function with "
                        f"a yield-point marker; the race detector cannot "
                        f"order a mutation it never observes"
                    ),
                )
            )
    return findings


def rule_sanitizer_isolation(index: ProjectIndex) -> List[Finding]:
    """LOOM108: nothing under src/repro imports the tooling package."""
    findings: List[Finding] = []
    for sf in index.files.values():
        if sf.module.split(".", 1)[0] != RUNTIME_PACKAGE:
            continue
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module or ""]
            else:
                continue
            for name in imported:
                if name.split(".", 1)[0] != TOOLS_PACKAGE:
                    continue
                findings.append(
                    Finding(
                        path=sf.path,
                        line=node.lineno,
                        rule="LOOM108",
                        symbol=sf.module,
                        message=(
                            f"runtime module imports `{name}`; the "
                            f"verification engines drive the runtime "
                            f"through the yieldpoints/viewguard hooks, "
                            f"never the other way round"
                        ),
                    )
                )
    return findings


def rule_shadow_totality(index: ProjectIndex) -> List[Finding]:
    """LOOM109: ShadowLog mirrors exactly the declared ingest surface."""
    findings: List[Finding] = []
    record_log = index.classes.get(RECORD_LOG_QUALNAME)
    shadow = index.classes.get(SHADOW_LOG_QUALNAME)
    if record_log is None or shadow is None:
        # Only meaningful when both sides were analyzed; linting a
        # subtree must not demand the whole project.
        return findings
    shadow_sf = next(
        (sf for sf in index.files.values() if sf.module == shadow.module), None
    )
    shadow_path = shadow_sf.path if shadow_sf is not None else "src"
    for name in SHADOW_SURFACE:
        if name not in record_log.methods:
            findings.append(
                Finding(
                    path=shadow_path,
                    line=1,
                    rule="LOOM109",
                    symbol=f"{RECORD_LOG_QUALNAME}.{name}",
                    message=(
                        f"ingest-surface method RecordLog.{name} is "
                        f"declared in SHADOW_SURFACE but missing from "
                        f"RecordLog; prune the surface list or restore "
                        f"the method"
                    ),
                )
            )
        if f"on_{name}" not in shadow.methods:
            findings.append(
                Finding(
                    path=shadow_path,
                    line=1,
                    rule="LOOM109",
                    symbol=f"{SHADOW_LOG_QUALNAME}.on_{name}",
                    message=(
                        f"shadow model is missing `on_{name}`: the "
                        f"differential oracles no longer cover "
                        f"RecordLog.{name}; the shadow API must stay "
                        f"total over the ingest surface"
                    ),
                )
            )
    surface = set(SHADOW_SURFACE)
    for method_name, fn in sorted(shadow.methods.items()):
        if not method_name.startswith("on_") or method_name == "on_event":
            continue
        if method_name[3:] not in surface:
            findings.append(
                Finding(
                    path=fn.path,
                    line=fn.node.lineno,
                    rule="LOOM109",
                    symbol=fn.qualname,
                    message=(
                        f"shadow mirror `{method_name}` has no "
                        f"corresponding entry in SHADOW_SURFACE; declare "
                        f"the surface method so the mapping stays total "
                        f"in both directions"
                    ),
                )
            )
    return findings


_YIELD_LABEL_RE = re.compile(YIELD_LABEL_PATTERN)


def rule_stable_schedule_alphabet(index: ProjectIndex) -> List[Finding]:
    """LOOM110: literal yield labels; FuzzSchedule serializes only its fields."""
    findings: List[Finding] = []
    for sf in index.files.values():
        if not _in_core(sf.path):
            continue
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or not dotted.startswith("yieldpoints."):
                continue
            if dotted.split(".", 1)[1] not in YIELD_CALL_NAMES:
                continue
            symbol = index.enclosing_symbol(sf, node.lineno)
            if not node.args:
                continue
            label = node.args[0]
            if not (isinstance(label, ast.Constant) and isinstance(label.value, str)):
                findings.append(
                    Finding(
                        path=sf.path,
                        line=node.lineno,
                        rule="LOOM110",
                        symbol=symbol,
                        message=(
                            f"yield-point label `{ast.unparse(label)}` is "
                            f"computed, not a string literal; recorded "
                            f"schedules can only replay against a stable "
                            f"label alphabet"
                        ),
                    )
                )
            elif not _YIELD_LABEL_RE.match(label.value):
                findings.append(
                    Finding(
                        path=sf.path,
                        line=node.lineno,
                        rule="LOOM110",
                        symbol=symbol,
                        message=(
                            f"yield-point label {label.value!r} does not "
                            f"match the dotted-identifier alphabet "
                            f"({YIELD_LABEL_PATTERN}); keep labels "
                            f"machine-stable"
                        ),
                    )
                )
    fuzz = index.classes.get(FUZZ_SCHEDULE_QUALNAME)
    if fuzz is not None:
        for method_name in ("to_json", "from_json"):
            fn = fuzz.methods.get(method_name)
            if fn is None:
                continue
            for sub in ast.walk(fn.node):
                if not isinstance(sub, ast.Dict):
                    continue
                for key in sub.keys:
                    if key is None:
                        rendered = "**<dynamic>"
                    elif isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        if key.value in FUZZ_SCHEDULE_FIELDS:
                            continue
                        rendered = repr(key.value)
                    else:
                        rendered = ast.unparse(key)
                    findings.append(
                        Finding(
                            path=fn.path,
                            line=sub.lineno,
                            rule="LOOM110",
                            symbol=fn.qualname,
                            message=(
                                f"FuzzSchedule wire format contains "
                                f"undeclared key {rendered}; the format "
                                f"is an API — extend FUZZ_SCHEDULE_FIELDS "
                                f"and bump FORMAT_VERSION instead"
                            ),
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# LOOM112-LOOM116: the networked service (repro.daemon)
# ----------------------------------------------------------------------
def _in_daemon(module: str) -> bool:
    return module == DAEMON_MODULE_PREFIX or module.startswith(
        DAEMON_MODULE_PREFIX + "."
    )


def rule_async_blocking(index: ProjectIndex) -> List[Finding]:
    """LOOM112: no blocking primitive reachable from asyncio handlers.

    Roots are every ``async def`` in repro.daemon; the closure follows
    call edges only *within* the daemon (executor-bound work is handed
    off through ``functools.partial``, which deliberately breaks the
    edge — that is the sanctioned escape hatch).  Non-blocking queue
    verbs (puts on the unbounded admission queue, ``*_nowait``) are
    exempt per :data:`~tools.loomlint.config.ASYNC_EXEMPT_FACT_TOKENS`.
    """
    findings: List[Finding] = []
    handlers = [
        fn for fn in index.functions.values() if fn.is_async and _in_daemon(fn.module)
    ]
    for fn, root, facts in _blocking_reachable(
        index, handlers, follow=lambda callee: _in_daemon(callee.module)
    ):
        via = (
            fn.qualname
            if root == fn.qualname
            else f"{root} -> ... -> {fn.qualname}"
        )
        # An *awaited* wait/acquire is cooperative, not blocking: it
        # parks this coroutine and yields the loop.  Exempt any fact on
        # a line whose call sits under an ``await``.
        awaited: Set[int] = set()
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Await):
                for inner in ast.walk(sub):
                    if isinstance(inner, ast.Call):
                        awaited.add(inner.lineno)
        for lineno, description in facts:
            if lineno in awaited:
                continue
            if any(tok in description for tok in ASYNC_EXEMPT_FACT_TOKENS):
                continue
            findings.append(
                Finding(
                    path=fn.path,
                    line=lineno,
                    rule="LOOM112",
                    symbol=fn.qualname,
                    message=(
                        f"{description} on an asyncio handler path ({via}); "
                        f"a blocked coroutine freezes every connection — "
                        f"run it on an executor thread under the deadline"
                    ),
                )
            )
    return findings


def rule_await_shard_state(index: ProjectIndex) -> List[Finding]:
    """LOOM113: async functions never touch shard worker state."""
    findings: List[Finding] = []
    for fn in sorted(
        index.functions.values(), key=lambda f: (f.path, f.qualname)
    ):
        if not fn.is_async:
            continue
        if not _in_daemon(fn.module):
            continue
        for sub in ast.walk(fn.node):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in SHARD_STATE_ATTRS
            ):
                kind = (
                    "mutates" if isinstance(sub.ctx, ast.Store) else "reads"
                )
                findings.append(
                    Finding(
                        path=fn.path,
                        line=sub.lineno,
                        rule="LOOM113",
                        symbol=fn.qualname,
                        message=(
                            f"async `{fn.name}` {kind} shard worker state "
                            f"`.{sub.attr}`; that state is owned by the "
                            f"synchronous admission path and the worker "
                            f"thread — an await here interleaves another "
                            f"connection into the critical section"
                        ),
                    )
                )
    return findings


def rule_deadline_propagation(index: ProjectIndex) -> List[Finding]:
    """LOOM114: deadlines thread through every client I/O call.

    Two obligations: (a) in the client module, every method that calls
    ``_request`` (other than ``_request`` itself) declares a
    ``deadline_s`` parameter and forwards it in the call; (b) anywhere
    outside the transports, a function doing raw ``send_frame``/
    ``recv_frame`` I/O also calls ``set_timeout`` — otherwise the socket
    default (block forever) is the effective deadline.
    """
    findings: List[Finding] = []
    for fn in sorted(
        index.functions.values(), key=lambda f: (f.path, f.qualname)
    ):
        if fn.module == CLIENT_MODULE and fn.name != REQUEST_CALL_NAME:
            request_calls = [
                sub
                for sub in ast.walk(fn.node)
                if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == REQUEST_CALL_NAME
            ]
            if request_calls:
                args = fn.node.args
                param_names = {
                    a.arg
                    for a in (
                        list(args.posonlyargs)
                        + list(args.args)
                        + list(args.kwonlyargs)
                    )
                }
                if DEADLINE_PARAM not in param_names:
                    findings.append(
                        Finding(
                            path=fn.path,
                            line=fn.node.lineno,
                            rule="LOOM114",
                            symbol=fn.qualname,
                            message=(
                                f"`{fn.name}` issues requests but takes no "
                                f"`{DEADLINE_PARAM}` parameter; callers "
                                f"cannot bound it"
                            ),
                        )
                    )
                for call in request_calls:
                    forwards = any(
                        kw.arg == DEADLINE_PARAM
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id == DEADLINE_PARAM
                        for kw in call.keywords
                    ) or any(
                        isinstance(arg, ast.Name) and arg.id == DEADLINE_PARAM
                        for arg in call.args
                    )
                    if not forwards:
                        findings.append(
                            Finding(
                                path=fn.path,
                                line=call.lineno,
                                rule="LOOM114",
                                symbol=fn.qualname,
                                message=(
                                    f"`{fn.name}` calls "
                                    f"{REQUEST_CALL_NAME}() without "
                                    f"forwarding `{DEADLINE_PARAM}`; the "
                                    f"caller's budget is silently replaced "
                                    f"by the client default"
                                ),
                            )
                        )
        if not _in_daemon(fn.module):
            continue
        if any(fn.path.endswith(sfx) for sfx in TRANSPORT_EXEMPT_SUFFIXES):
            continue
        io_calls: List[ast.Call] = []
        arms_timeout = False
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ):
                if sub.func.attr in FRAME_IO_METHODS:
                    io_calls.append(sub)
                elif sub.func.attr == TIMEOUT_CALL_NAME:
                    arms_timeout = True
        if io_calls and not arms_timeout:
            findings.append(
                Finding(
                    path=fn.path,
                    line=io_calls[0].lineno,
                    rule="LOOM114",
                    symbol=fn.qualname,
                    message=(
                        f"`{fn.name}` does raw frame I/O without arming "
                        f"{TIMEOUT_CALL_NAME}(); on a dead peer this "
                        f"blocks forever"
                    ),
                )
            )
    return findings


def rule_wire_constant_single_source(index: ProjectIndex) -> List[Finding]:
    """LOOM115: wire constants live in protocol.py, everyone else imports."""
    findings: List[Finding] = []
    for sf in sorted(index.files.values(), key=lambda s: s.path):
        if not _in_daemon(sf.module) or sf.module == PROTOCOL_MODULE:
            continue
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                is_struct = dotted in (
                    "struct.Struct",
                    "struct.pack",
                    "struct.unpack",
                    "struct.pack_into",
                    "struct.unpack_from",
                    "struct.calcsize",
                )
                if not is_struct or not node.args:
                    continue
                fmt = node.args[0]
                if (
                    isinstance(fmt, ast.Constant)
                    and isinstance(fmt.value, str)
                    and fmt.value in WIRE_STRUCT_FORMATS
                ):
                    findings.append(
                        Finding(
                            path=sf.path,
                            line=node.lineno,
                            rule="LOOM115",
                            symbol=index.enclosing_symbol(sf, node.lineno),
                            message=(
                                f"struct format {fmt.value!r} re-declares a "
                                f"wire framing layout; import the named "
                                f"constant from {PROTOCOL_MODULE} instead"
                            ),
                        )
                    )
        # Module-scope rebindings of the protocol constant names.
        for node in sf.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in WIRE_CONSTANT_NAMES
                ):
                    findings.append(
                        Finding(
                            path=sf.path,
                            line=node.lineno,
                            rule="LOOM115",
                            symbol=sf.module,
                            message=(
                                f"`{target.id}` is re-bound here; the "
                                f"single source of wire truth is "
                                f"{PROTOCOL_MODULE} — import it"
                            ),
                        )
                    )
    return findings


def _guards_header_errors(node: ast.Try) -> bool:
    return any(
        handler.type is None  # bare except guards (LOOM105 polices those)
        or caught_names(handler) & HEADER_GUARD_EXCEPTIONS
        for handler in node.handlers
    )


def _membership_test_on(test: ast.expr, receivers: FrozenSet[str]) -> bool:
    """Does ``test`` contain ``<key> in <receiver>`` for a header name?"""
    for sub in ast.walk(test):
        if not isinstance(sub, ast.Compare):
            continue
        for op, comparator in zip(sub.ops, sub.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                name = terminal_name(comparator)
                if name in receivers:
                    return True
    return False


def rule_header_validated(index: ProjectIndex) -> List[Finding]:
    """LOOM116: raw header subscripts only under a validation guard."""
    findings: List[Finding] = []

    def walk(fn: FunctionInfo, node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Try):
            safe = guarded or _guards_header_errors(node)
            for child in node.body:
                walk(fn, child, safe)
            for part in (node.handlers, node.orelse, node.finalbody):
                for child in part:
                    walk(fn, child, guarded)
            return
        if isinstance(node, ast.If):
            body_guarded = guarded or _membership_test_on(
                node.test, HEADER_RECEIVER_NAMES
            )
            walk(fn, node.test, guarded)
            for child in node.body:
                walk(fn, child, body_guarded)
            for child in node.orelse:
                walk(fn, child, guarded)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            comp_guarded = guarded or any(
                _membership_test_on(cond, HEADER_RECEIVER_NAMES)
                for gen in node.generators
                for cond in gen.ifs
            )
            for child in ast.iter_child_nodes(node):
                walk(fn, child, comp_guarded)
            return
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in HEADER_RECEIVER_NAMES
            and not guarded
        ):
            key = ast.unparse(node.slice)
            findings.append(
                Finding(
                    path=fn.path,
                    line=node.lineno,
                    rule="LOOM116",
                    symbol=fn.qualname,
                    message=(
                        f"raw subscript {node.value.id}[{key}] on a wire "
                        f"header outside a KeyError/TypeError/ValueError "
                        f"guard or membership test; a malformed frame "
                        f"becomes an unhandled exception here"
                    ),
                )
            )
        for child in ast.iter_child_nodes(node):
            walk(fn, child, guarded)

    for fn in sorted(
        index.functions.values(), key=lambda f: (f.path, f.qualname)
    ):
        if fn.module not in HEADER_CHECKED_MODULES:
            continue
        for stmt in fn.node.body:
            walk(fn, stmt, False)
    return findings


ALL_RULES = (
    rule_reader_blocking,
    rule_version_parity,
    rule_publish_order,
    rule_nondeterminism,
    rule_metrics_clock,
    rule_exception_hygiene,
    rule_contract_docstrings,
    rule_seqlock_mutation_visibility,
    rule_sanitizer_isolation,
    rule_shadow_totality,
    rule_stable_schedule_alphabet,
    rule_async_blocking,
    rule_await_shard_state,
    rule_deadline_propagation,
    rule_wire_constant_single_source,
    rule_header_validated,
)
