"""A tiny CLI front-end over Loom's query operators (paper §3).

"In practice, engineers will typically use a front-end (e.g., a dashboard
or CLI) to instantiate query operators with appropriate parameters."
This module is that front-end: a line-oriented command language that
parses into the Figure 9 operators, designed for interactive drill-downs
and for scripting in the examples.

Command language (times accept ``10s`` / ``250ms`` / ``5m`` suffixes and
are relative to *now*, i.e. ``last 10s``):

=====================================================  ======================
``sources``                                            list sources
``count <source> last <dur>``                          record count
``agg <source> <index> <min|max|mean|sum> last <dur>`` distributive aggregate
``pct <source> <index> <p> last <dur>``                exact percentile
``scan <source> last <dur> [limit N]``                 newest-first raw scan
``where <source> <index> <lo>..<hi> last <dur>``       indexed range scan
``trace <query command>``                              run a query, show its
                                                       per-stage trace
``health``                                             introspection summary
``stats``                                              metrics registry dump
                                                       (Prometheus-style text)
``fsck <data_dir>``                                    offline integrity check
``recover <data_dir>``                                 fsck + repair torn tails
``archive``                                            cold-tier status
``archive run``                                        force a migration pass
``archive retention``                                  apply retention now
=====================================================  ======================

Query verbs run on the daemon's :class:`~repro.core.operators.QueryResult`
API, so every execution carries per-stage statistics; ``trace`` prefixes
any query verb (``trace pct app duration 99 last 10s``) and appends the
stage-by-stage account — summaries pruned, chunks scanned, bins walked —
to the output.

``fsck`` and ``recover`` operate on a persisted data directory (not the
live daemon): ``fsck`` is read-only and reports what a warm restart would
recover; ``recover`` additionally truncates torn or corrupt tails so the
directory is clean for :meth:`~repro.core.loom.Loom.open`.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.errors import LoomError
from ..core.operators import QueryResult
from ..core.recovery import CheckReport, check_data_dir
from .monitor import MonitoringDaemon

_DURATION = re.compile(r"^(\d+(?:\.\d+)?)(ns|us|ms|s|m|h|d)$")
_SCALE = {
    "ns": 1,
    "us": 1_000,
    "ms": 1_000_000,
    "s": 1_000_000_000,
    "m": 60 * 1_000_000_000,
    "h": 3600 * 1_000_000_000,
    "d": 86_400 * 1_000_000_000,
}


class CliError(LoomError):
    """A command could not be parsed or executed."""


def parse_duration(text: str) -> int:
    """Parse ``10s`` / ``250ms`` / ``1.5m`` into nanoseconds."""
    match = _DURATION.match(text)
    if not match:
        raise CliError(f"bad duration {text!r} (want e.g. 10s, 250ms, 5m)")
    return int(float(match.group(1)) * _SCALE[match.group(2)])


@dataclass
class CliResult:
    """One executed command's outcome.

    ``exit_code`` is the process exit status a scripting wrapper should
    report: health checks return 1 when any component is FAILED, so
    ``loom health`` composes with shell conditionals and liveness probes.
    """

    command: str
    text: str
    value: object = None
    exit_code: int = 0


class LoomCli:
    """Parses and executes query commands against a monitoring daemon."""

    def __init__(self, daemon: MonitoringDaemon) -> None:
        self.daemon = daemon

    # ------------------------------------------------------------------
    def execute(self, line: str) -> CliResult:
        tokens = shlex.split(line)
        if not tokens:
            raise CliError("empty command")
        verb = tokens[0]
        if verb == "trace":
            return self._trace(tokens)
        handler: Optional[Callable[[List[str]], CliResult]] = {
            "sources": self._sources,
            "count": self._count,
            "agg": self._agg,
            "pct": self._pct,
            "scan": self._scan,
            "where": self._where,
            "health": self._health,
            "stats": self._stats,
            "fsck": self._fsck,
            "recover": self._recover,
            "archive": self._archive,
        }.get(verb)
        if handler is None:
            raise CliError(f"unknown command {verb!r}")
        return handler(tokens)

    _TRACEABLE = ("count", "agg", "pct", "scan", "where")

    def _trace(self, tokens: List[str]) -> CliResult:
        """``trace <query command>`` — execute the wrapped query verb with
        stage tracing on and append the per-stage account to its output."""
        if len(tokens) < 2:
            raise CliError("usage: trace <query command>")
        inner = tokens[1:]
        if inner[0] not in self._TRACEABLE:
            raise CliError(
                f"cannot trace {inner[0]!r} "
                f"(traceable: {', '.join(self._TRACEABLE)})"
            )
        handler: Callable[..., CliResult] = {
            "count": self._count,
            "agg": self._agg,
            "pct": self._pct,
            "scan": self._scan,
            "where": self._where,
        }[inner[0]]
        return handler(inner, trace=True)

    # ------------------------------------------------------------------
    def _last_range(self, tokens: List[str], at: int) -> Tuple[int, int]:
        if len(tokens) < at + 2 or tokens[at] != "last":
            raise CliError("expected: ... last <duration>")
        now = self.daemon.clock.now()
        return max(0, now - parse_duration(tokens[at + 1])), now

    @staticmethod
    def _with_trace(text: str, result: QueryResult, trace: bool) -> str:
        """Append a query's per-stage trace to its rendered output."""
        if not trace or result.trace is None:
            return text
        return f"{text}\n-- trace ({result.source}) --\n{result.trace.format()}"

    def _sources(self, tokens: List[str]) -> CliResult:
        rows = []
        for name in self.daemon.source_names():
            handle = self.daemon.source(name)
            indexes = ", ".join(handle.indexes) or "-"
            rows.append(
                f"{name} (id {handle.source_id}): "
                f"{handle.records_received:,} records, indexes: {indexes}"
            )
        return CliResult("sources", "\n".join(rows) or "(no sources)", rows)

    def _count(self, tokens: List[str], trace: bool = False) -> CliResult:
        if len(tokens) < 4:
            raise CliError("usage: count <source> last <dur>")
        t_range = self._last_range(tokens, 2)
        result = self.daemon.scan(tokens[1], t_range, trace=trace)
        count = len(result.records or [])
        text = self._with_trace(f"{count:,} records", result, trace)
        return CliResult("count", text, count)

    def _agg(self, tokens: List[str], trace: bool = False) -> CliResult:
        if len(tokens) < 6:
            raise CliError("usage: agg <source> <index> <method> last <dur>")
        method = tokens[3]
        if method not in ("min", "max", "mean", "sum", "count"):
            raise CliError(f"bad method {method!r}")
        t_range = self._last_range(tokens, 4)
        result = self.daemon.aggregate(
            tokens[1], tokens[2], t_range, method, trace=trace
        )
        if result.value is None:
            return CliResult("agg", self._with_trace("no data", result, trace))
        text = self._with_trace(f"{method} = {result.value:,.3f}", result, trace)
        return CliResult("agg", text, result.value)

    def _pct(self, tokens: List[str], trace: bool = False) -> CliResult:
        if len(tokens) < 6:
            raise CliError("usage: pct <source> <index> <p> last <dur>")
        try:
            percentile = float(tokens[3])
        except ValueError:
            raise CliError(f"bad percentile {tokens[3]!r}")
        t_range = self._last_range(tokens, 4)
        result = self.daemon.aggregate(
            tokens[1], tokens[2], t_range, "percentile",
            percentile=percentile, trace=trace,
        )
        if result.value is None:
            return CliResult("pct", self._with_trace("no data", result, trace))
        text = self._with_trace(
            f"p{percentile:g} = {result.value:,.3f}", result, trace
        )
        return CliResult("pct", text, result.value)

    def _scan(self, tokens: List[str], trace: bool = False) -> CliResult:
        if len(tokens) < 4:
            raise CliError("usage: scan <source> last <dur> [limit N]")
        t_range = self._last_range(tokens, 2)
        limit = None
        if "limit" in tokens:
            limit = int(tokens[tokens.index("limit") + 1])
        result = self.daemon.scan(tokens[1], t_range, trace=trace)
        records = result.records or []
        if limit is not None:
            records = records[:limit]
        lines = [
            f"t={r.timestamp} {len(r.payload)}B payload" for r in records[:20]
        ]
        suffix = "" if len(records) <= 20 else f"\n... {len(records) - 20} more"
        text = self._with_trace("\n".join(lines) + suffix, result, trace)
        return CliResult("scan", text, records)

    def _health(self, tokens: List[str]) -> CliResult:
        info = self.daemon.introspect()
        names = self.daemon.source_name_map()
        footprint = info.footprint
        log_bytes = (
            footprint["record_log_bytes"]
            + footprint["chunk_index_bytes"]
            + footprint["timestamp_index_bytes"]
        )
        lines = [
            f"health: {info.health.value}",
            f"records: {info.total_records:,}",
            f"footprint: {log_bytes:,} log bytes "
            f"({footprint['finalized_chunks']} chunks)",
        ]
        if footprint.get("archived_chunks") or footprint.get("retention_floor"):
            lines.append(
                f"tiers: hot {footprint['hot_bytes']:,}B, cold "
                f"{footprint['cold_bytes_compressed']:,}B compressed "
                f"({footprint['archived_chunks']} chunks, "
                f"{footprint['retired_chunks']} retired), "
                f"retention floor {footprint['retention_floor']:,}"
            )
        for source in info.sources:
            name = names.get(source.source_id, f"source-{source.source_id}")
            state = "closed" if source.closed else "open"
            lines.append(
                f"  {name}: {source.record_count:,} records, "
                f"{source.bytes_ingested:,}B, "
                f"{len(source.index_ids)} indexes, {state}"
            )
        exit_code = 1 if info.health.value == "failed" else 0
        return CliResult("health", "\n".join(lines), info, exit_code=exit_code)

    def _stats(self, tokens: List[str]) -> CliResult:
        from ..scope.exposition import render_exposition

        snapshot = self.daemon.loom.metrics.snapshot()
        return CliResult("stats", render_exposition(snapshot), snapshot)

    @staticmethod
    def _render_check(report: CheckReport) -> List[str]:
        """Shared CheckReport rendering for the fsck/recover verbs."""
        lines = [
            f"{check.label}: {check.size_bytes:,}B"
            + ("" if check.present else " (absent)")
            for check in report.logs
            if check.present
        ]
        lines.extend(f"note: {finding}" for finding in report.findings)
        state = report.state
        if report.error is not None:
            lines.append(f"corrupt: {report.error}")
        elif state is not None:
            lines.append(
                f"ok: {state.total_records:,} records "
                f"({len(state.sources)} sources), "
                f"{len(state.summaries)} chunk summaries, "
                f"{len(state.timestamp_entries)} timestamp entries"
            )
            if state.archived_chunks or state.retired_chunks:
                lines.append(
                    f"cold tier: {state.archived_chunks} archived chunks "
                    f"({state.archive_compressed_bytes:,}B compressed), "
                    f"{state.retired_chunks} retired, "
                    f"retention floor {state.retention_floor:,}"
                )
        return lines

    def _fsck(self, tokens: List[str]) -> CliResult:
        if len(tokens) < 2:
            raise CliError("usage: fsck <data_dir>")
        report = check_data_dir(tokens[1], repair=False)
        return CliResult(
            "fsck",
            "\n".join(self._render_check(report)),
            report,
            exit_code=0 if report.ok else 1,
        )

    def _recover(self, tokens: List[str]) -> CliResult:
        if len(tokens) < 2:
            raise CliError("usage: recover <data_dir>")
        report = check_data_dir(tokens[1], repair=True)
        lines = list(report.repairs) or ["no repairs needed"]
        lines.extend(self._render_check(report))
        return CliResult(
            "recover",
            "\n".join(lines),
            report,
            exit_code=0 if report.ok else 1,
        )

    def _archive(self, tokens: List[str]) -> CliResult:
        """``archive`` (status), ``archive run``, ``archive retention``."""
        loom = self.daemon.loom
        if len(tokens) > 1 and tokens[1] == "run":
            migration = loom.migrate(force=True)
            text = (
                f"migrated {migration.chunks_migrated} chunks "
                f"({migration.records_migrated:,} records, "
                f"{migration.raw_bytes:,}B -> {migration.compressed_bytes:,}B); "
                f"cold boundary {migration.cold_boundary:,}"
            )
            return CliResult("archive", text, migration)
        if len(tokens) > 1 and tokens[1] == "retention":
            retention = loom.apply_retention()
            text = (
                f"retention floor {retention.floor_addr:,} ({retention.mode}): "
                f"{len(retention.dropped_chunk_ids)} chunks dropped, "
                f"{len(retention.kept_chunk_ids)} kept summary-only, "
                f"{retention.records_dropped:,} records dropped"
            )
            return CliResult("archive", text, retention)
        if len(tokens) > 1:
            raise CliError("usage: archive [run|retention]")
        footprint = loom.footprint()
        archive = loom.record_log.archive
        if archive is None:
            return CliResult("archive", "no cold tier configured", None)
        ratio = archive.compression_ratio
        text = (
            f"archived: {footprint['archived_chunks']} chunks "
            f"({footprint['retired_chunks']} retired)\n"
            f"cold: {footprint['cold_bytes_raw']:,}B raw -> "
            f"{footprint['cold_bytes_compressed']:,}B compressed "
            f"({ratio:.2f}x)\n"
            f"hot: {footprint['hot_bytes']:,}B above boundary "
            f"{footprint['recycled_upto']:,}\n"
            f"retention floor: {footprint['retention_floor']:,}"
        )
        return CliResult("archive", text, footprint)

    def _where(self, tokens: List[str], trace: bool = False) -> CliResult:
        if len(tokens) < 6:
            raise CliError("usage: where <source> <index> <lo>..<hi> last <dur>")
        bounds = tokens[3].split("..")
        if len(bounds) != 2:
            raise CliError("value range must look like 100..500 (or 100..inf)")
        lo = float(bounds[0]) if bounds[0] else float("-inf")
        hi = float(bounds[1]) if bounds[1] not in ("", "inf") else float("inf")
        t_range = self._last_range(tokens, 4)
        result = self.daemon.scan_indexed(
            tokens[1], tokens[2], t_range, (lo, hi), trace=trace
        )
        records = result.records or []
        text = self._with_trace(
            f"{len(records):,} records in [{lo}, {hi}]", result, trace
        )
        return CliResult("where", text, records)


# ----------------------------------------------------------------------
# Process entry point (`loom` console script): serve + remote health
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """``loom serve`` starts the networked service; ``loom health``
    probes one and exits non-zero when any shard is FAILED (or the
    server is unreachable), so both verbs compose with init systems and
    shell conditionals."""
    import argparse

    parser = argparse.ArgumentParser(prog="loom")
    sub = parser.add_subparsers(dest="verb", required=True)
    serve = sub.add_parser("serve", help="run the networked Loom service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7337)
    serve.add_argument("--shards", type=int, default=1)
    serve.add_argument(
        "--data-dir", default=None,
        help="persist shard logs under this directory (default: in-memory)",
    )
    serve.add_argument(
        "--archive", action="store_true",
        help="enable the compressed cold tier (background chunk migration)",
    )
    serve.add_argument(
        "--retention-horizon", default=None, metavar="DUR",
        help="retire archived chunks older than this (e.g. 24h); "
        "implies --archive",
    )
    serve.add_argument(
        "--retention-downsample", dest="keep_every", type=int, default=None,
        metavar="N",
        help="keep every Nth retired chunk's summary resident "
        "(default: drop retired chunks entirely)",
    )
    health = sub.add_parser("health", help="probe a running service")
    health.add_argument("--host", default="127.0.0.1")
    health.add_argument("--port", type=int, default=7337)
    health.add_argument("--deadline", type=float, default=2.0)
    args = parser.parse_args(argv)

    if args.verb == "serve":
        from ..core.config import LoomConfig, RetentionPolicy, TierConfig
        from .server import LoomServer, ServerConfig

        tier = None
        retention = None
        if args.archive or args.retention_horizon is not None:
            tier = TierConfig()
        if args.retention_horizon is not None:
            retention = RetentionPolicy(
                horizon_ns=parse_duration(args.retention_horizon),
                mode="downsample" if args.keep_every else "drop",
                keep_every=args.keep_every or 4,
            )
        loom_config = (
            LoomConfig(
                data_dir=args.data_dir,
                threaded_flush=True,
                tier=tier,
                retention=retention,
            )
            if args.data_dir or tier is not None
            else None
        )
        server = LoomServer(
            host=args.host,
            port=args.port,
            config=ServerConfig(shards=args.shards),
            loom_config=loom_config,
        )
        server.start()
        print(f"loom: serving {args.shards} shard(s) on {args.host}:{server.port}")
        try:
            while True:
                import time

                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
        return 0

    # health
    from ..core.errors import LoomError as _LoomError
    from .client import LoomClient

    client = LoomClient(
        args.host, args.port, deadline_s=args.deadline, circuit_threshold=0
    )
    try:
        detail = client.health_detail()
    except _LoomError as exc:
        print(f"loom: unreachable: {exc}")
        return 2
    finally:
        client.close()
    print(f"health: {detail.get('health')}")
    for shard in detail.get("shards", []):
        print(
            f"  shard {shard.get('shard')}: {shard.get('health')}, "
            f"queue depth {shard.get('queue_depth')}"
            + (" (shedding)" if shard.get("shedding") else "")
        )
    return 1 if detail.get("health") == "failed" else 0
