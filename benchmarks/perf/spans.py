"""Tracing from outside: timing wrappers around the program's public calls.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install`
resolves every entry of :data:`TARGETS` — a class method is patched on its
class, a function pulled in with ``from x import y`` is patched in the
module that calls it — and fails loudly when one no longer resolves, so a
rename in ``src/`` breaks the trace instead of reporting zeros.

A *span* has a name, start, end, parent span and the id of the benchmark
operation that caused it.  A layer's self time is its spans' duration
minus the part their child spans cover.  Functions called once per record
(kind ``"count"``; the index logs append and publish per record too) and
generators (kind ``"gen"``, timed per resume) take part in that
accounting but keep only a call count and a total, not one span object
per call.  Everything lives in memory until :meth:`Tracer.export`.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(span name, "module:attr" or "module:Class.attr", kind)``.
TARGETS: List[Tuple[str, str, str]] = [
    ("record.encode_batch_arrays", "repro.core.record_log:encode_batch_arrays", "span"),
    ("record.encode_record", "repro.core.record_log:encode_record", "count"),
    ("hybridlog.append_many", "repro.core.hybridlog:HybridLog.append_many", "count"),
    ("hybridlog.append", "repro.core.hybridlog:HybridLog.append", "count"),
    ("hybridlog.publish", "repro.core.hybridlog:HybridLog.publish", "count"),
    ("hybridlog.read", "repro.core.hybridlog:HybridLog.read", "count"),
    ("hybridlog.read_view", "repro.core.hybridlog:HybridLog.read_view", "span"),
    # A block flush is Storage.append_extent -> FileStorage.append; both
    # carry one name and the inner call folds into the outer span.
    ("storage.append", "repro.core.storage:Storage.append_extent", "span"),
    ("storage.append", "repro.core.storage:FileStorage.append", "span"),
    ("storage.sync", "repro.core.storage:FileStorage.sync", "span"),
    ("storage.read_view", "repro.core.storage:FileStorage.read_view", "span"),
    ("histogram.bins_of", "repro.core.histogram:HistogramSpec.bins_of", "span"),
    ("summary.add_records", "repro.core.summary:ChunkSummary.add_records", "span"),
    (
        "summary.add_indexed_values_array",
        "repro.core.summary:ChunkSummary.add_indexed_values_array",
        "span",
    ),
    ("summary.encode", "repro.core.summary:ChunkSummary.encode", "span"),
    ("chunk_index.append", "repro.core.chunk_index:ChunkIndex.append", "span"),
    (
        "chunk_index.summaries_in_time_range",
        "repro.core.chunk_index:ChunkIndex.summaries_in_time_range",
        "gen",
    ),
    (
        "timestamp_index.note_records",
        "repro.core.timestamp_index:TimestampIndex.note_records",
        "span",
    ),
    (
        "timestamp_index.first_record_after",
        "repro.core.timestamp_index:TimestampIndex.first_record_after",
        "span",
    ),
    ("record_log.push_many", "repro.core.record_log:RecordLog.push_many", "span"),
    ("record_log.push", "repro.core.record_log:RecordLog.push", "count"),
    ("record_log.region_columns", "repro.core.record_log:RecordLog.region_columns", "span"),
    ("record_log.read_record", "repro.core.record_log:RecordLog.read_record", "count"),
    ("record_log.migrate", "repro.core.record_log:RecordLog.migrate", "span"),
    ("snapshot.capture", "repro.core.snapshot:Snapshot.capture", "span"),
    # The operators are generators driven inside these three methods, so
    # the span sits on the method: self time is mask + UDF + materialise.
    ("operators.raw_scan", "repro.core.loom:Loom.scan", "span"),
    ("operators.indexed_scan", "repro.core.loom:Loom.scan_indexed", "span"),
    ("operators.indexed_aggregate", "repro.core.loom:Loom.aggregate", "span"),
    ("archive.encode_chunk_streams", "repro.core.archive:encode_chunk_streams", "span"),
    ("archive.append_chunk", "repro.core.archive:ArchiveLog.append_chunk", "span"),
    ("archive.read_chunk_bytes", "repro.core.archive:ArchiveLog.read_chunk_bytes", "count"),
    ("archive.decode_chunk_region", "repro.core.archive:decode_chunk_region", "span"),
    ("recovery.reopen", "repro.core.loom:Loom.open", "span"),
    ("protocol.pack_payloads", "repro.daemon.client:pack_payloads", "span"),
    ("protocol.encode_frame", "repro.daemon.client:encode_frame", "span"),
    ("protocol.encode_frame", "repro.daemon.server:encode_frame", "span"),
    ("protocol.split_frame", "repro.daemon.client:split_frame", "span"),
    ("protocol.split_frame", "repro.daemon.server:split_frame", "span"),
    ("protocol.unpack_payloads", "repro.daemon.server:unpack_payloads", "span"),
    ("protocol.result_to_wire", "repro.daemon.server:result_to_wire", "span"),
    ("protocol.result_from_wire", "repro.daemon.client:result_from_wire", "span"),
    ("transport.send_frame", "repro.daemon.transport:TcpTransport.send_frame", "span"),
    ("transport.recv_frame", "repro.daemon.transport:TcpTransport.recv_frame", "span"),
    ("client.ingest", "repro.daemon.client:LoomClient.ingest", "span"),
    ("server.admit", "repro.daemon.server:_Shard.admit", "span"),
    ("monitor.receive_batch", "repro.daemon.monitor:MonitoringDaemon.receive_batch", "span"),
]

#: Span names whose individual durations are kept (for a percentile).
KEEP_DURATIONS = frozenset({"client.ingest"})


class _ThreadState:
    """One thread's open-span stack and what it has closed so far."""

    __slots__ = ("ident", "stack", "totals", "spans", "durations")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        #: Open frames: ``[name, start_ns, child_ns, span_index]``.
        self.stack: List[List[Any]] = []
        #: name -> ``[self_ns, calls]``.
        self.totals: Dict[str, List[int]] = {}
        #: ``(name, start_ns, end_ns, parent_index, op)``; ``None`` while open.
        self.spans: List[Optional[Tuple[str, int, int, int, int]]] = []
        self.durations: Dict[str, List[int]] = {}


class Tracer:
    """Installs the wrappers, collects spans, and undoes the patching."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Id of the benchmark operation in flight; the load generator
        #: bumps it, spans copy it.
        self.op = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state: Optional[_ThreadState] = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, state: _ThreadState, name: str, record: bool) -> List[Any]:
        stack = state.stack
        if record:
            index = len(state.spans)
            state.spans.append(None)
        else:
            index = stack[-1][3] if stack else -1
        frame = [name, 0, 0, index]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _exit(
        self, state: _ThreadState, frame: List[Any], record: bool, calls: int = 1
    ) -> None:
        end = perf_counter_ns()
        stack = state.stack
        stack.pop()
        name, start, child_ns, index = frame
        duration = end - start
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0]
        total[0] += duration - child_ns
        total[1] += calls
        parent = -1
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        if record:
            state.spans[index] = (name, start, end, parent, self.op)
            if name in KEEP_DURATIONS:
                state.durations.setdefault(name, []).append(duration)

    def span(self, name: str) -> "_OpenSpan":
        """Context manager for a span opened by the benchmark itself."""
        return _OpenSpan(self, name)

    def add(self, name: str, self_ns: int, calls: int = 1) -> None:
        """Fold a duration measured by other means into a layer's totals."""
        total = self._state().totals.setdefault(name, [0, 0])
        total[0] += self_ns
        total[1] += calls

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable[..., Any], kind: str) -> Callable[..., Any]:
        record = kind == "span"
        state_of, enter, leave = self._state, self._enter, self._exit

        if kind == "gen":

            def traced_gen(*args: Any, **kwargs: Any) -> Any:
                iterator = fn(*args, **kwargs)
                calls = 1
                while True:
                    state = state_of()
                    frame = enter(state, name, False)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        leave(state, frame, False, calls)
                        return
                    leave(state, frame, False, calls)
                    calls = 0
                    yield item

            return traced_gen

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = enter(state, name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(state, frame, record)

        return traced

    def install(self, targets: Iterable[Tuple[str, str, str]] = TARGETS) -> None:
        for name, path, kind in targets:
            module_name, _, attr_path = path.partition(":")
            owner: Any = importlib.import_module(module_name)
            *holders, attr = attr_path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                raise LookupError(
                    f"trace target {path!r} ({name}) no longer exists; "
                    f"update benchmarks/perf/spans.py to follow the rename"
                )
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(name, raw.__func__, kind))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(name, raw.__func__, kind))
            else:
                patched = self._wrap(name, raw, kind)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """Totals, kept durations and closed spans of every thread."""
        totals: Dict[str, List[int]] = {}
        durations: Dict[str, List[int]] = {}
        spans: List[List[Any]] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (self_ns, calls) in state.totals.items():
                total = totals.setdefault(name, [0, 0])
                total[0] += self_ns
                total[1] += calls
            for name, values in state.durations.items():
                durations.setdefault(name, []).extend(values)
            for span in state.spans:
                if span is not None:
                    spans.append([state.ident, *span])
        return {
            "pid": os.getpid(),
            "totals": totals,
            "durations": durations,
            "spans": spans,
        }


class _OpenSpan:
    __slots__ = ("_tracer", "_name", "_state", "_frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._state = self._tracer._state()
        self._frame = self._tracer._enter(self._state, self._name, True)

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._exit(self._state, self._frame, True)


def merge_exports(exports: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine the bench process's export with the server child's."""
    totals: Dict[str, List[int]] = {}
    durations: Dict[str, List[int]] = {}
    processes = []
    for export in exports:
        for name, (self_ns, calls) in export["totals"].items():
            total = totals.setdefault(name, [0, 0])
            total[0] += self_ns
            total[1] += calls
        for name, values in export["durations"].items():
            durations.setdefault(name, []).extend(values)
        processes.append((export["pid"], export["spans"]))
    return {"totals": totals, "durations": durations, "processes": processes}


def write_chrome_trace(path: str, merged: Dict[str, Any], limit: int = 200_000) -> int:
    """Write spans as Chrome-trace JSON (``chrome://tracing``, Perfetto),
    at most ``limit`` per process so the file stays loadable; returns the
    number of events written.  Totals are never truncated."""
    starts = [span[2] for _, spans in merged["processes"] for span in spans]
    origin = min(starts) if starts else 0
    events = []
    for pid, spans in merged["processes"]:
        for tid, name, start, end, parent, op in spans[:limit]:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "args": {"op": op, "parent": parent},
                }
            )
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
    return len(events)
