"""The Loom facade: the public API of paper Figure 9.

A :class:`Loom` instance is a library object embedded in a monitoring
daemon (paper Figure 4).  The daemon uses the *schema operators* to define
sources and histogram indexes, the *ingest operators* to push records, and
the *query operators* to scan and aggregate — exactly the surface of
Figure 9:

==============================================================  =========
``define_source(source_id)``                                    schema
``close_source(source_id)``                                     schema
``define_index(source_id, index_func, bins)``                   schema
``close_index(index_id)``                                       schema
``push(source_id, bytes)``                                      ingest
``push_many(source_id, payloads)``                              ingest
``sync(source_id)``                                             ingest
``scan(source_id, t_range, func)``                              query
``scan_indexed(source_id, index_id, t_range, v_range, func)``   query
``aggregate(source_id, index_id, t_range, method)``             query
==============================================================  =========

Queries linearize at snapshot creation (section 4.5); each query method
takes its own snapshot unless handed an explicit one, so a drill-down
sequence can pin a single consistent view across several operator calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import TracebackType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from .archive import MigrationReport, RetentionReport
from .clock import Clock, MonotonicClock
from .config import LoomConfig
from .errors import LoomError
from .histogram import HistogramSpec, IndexDefinition, IndexFunc
from .hybridlog import Health
from .metrics import Counter, MetricsRegistry, RegistrySnapshot
from .operators import (
    NEG_INF,
    POS_INF,
    QueryResult,
    QueryStats,
    QueryTrace,
    Records,
    bin_histogram,
    bin_values,
    indexed_aggregate,
    indexed_scan_batches,
    raw_scan_batches,
)
from .record import Record
from .record_log import RecordBatch, RecordLog
from .snapshot import Snapshot

TimeRange = Tuple[int, int]
ValueRange = Tuple[float, float]
RecordFunc = Callable[[Record], None]


@dataclass(frozen=True)
class SourceIntrospection:
    """One source's state in an :class:`Introspection` snapshot."""

    source_id: int
    record_count: int
    bytes_ingested: int
    first_timestamp: int
    last_timestamp: int
    closed: bool
    index_ids: Tuple[int, ...]


@dataclass(frozen=True)
class Introspection:
    """One consistent view of a Loom instance's own state.

    This is the unified introspection surface: the legacy accessors
    (:meth:`Loom.health`, :meth:`Loom.footprint`,
    :attr:`Loom.total_records`) are shorthands for individual fields of
    this snapshot.  ``metrics`` carries the full loomscope registry
    snapshot (per-instrument consistency; see
    :mod:`repro.core.metrics`).
    """

    health: Health
    total_records: int
    footprint: Dict[str, int]
    sources: Tuple[SourceIntrospection, ...]
    metrics: RegistrySnapshot


class Loom:
    """A single-host engine for capturing and querying high-frequency
    telemetry.

    Args:
        config: sizes and tunables; defaults are test-friendly scaled-down
            values (see :class:`~repro.core.config.LoomConfig`).
        clock: timestamp source.  Live deployments use the monotonic clock;
            workload replay uses a :class:`~repro.core.clock.VirtualClock`.
    """

    def __init__(
        self, config: Optional[LoomConfig] = None, clock: Optional[Clock] = None
    ) -> None:
        self._record_log = RecordLog(config=config, clock=clock or MonotonicClock())
        self._query_counters: Dict[str, Counter] = {}

    @classmethod
    def open(
        cls,
        config: Optional[LoomConfig] = None,
        clock: Optional[Clock] = None,
        repair: bool = True,
        verify: bool = True,
    ) -> "Loom":
        """Warm-restart a persisted instance from ``config.data_dir``.

        Rebuilds all live state — per-source record chains, counts, and
        both index mirrors — from the three persisted logs, then resumes
        appending at the persisted tail: records pushed after ``open``
        chain onto records pushed before the previous process died.

        With ``repair=True`` (the default), torn tails left by a crash
        (partial frames from an interrupted flush) are truncated away;
        genuine corruption below the tail still raises
        :class:`~repro.core.errors.CorruptionError`.  Records that were
        only in the in-memory staging blocks at crash time are lost —
        Loom persists to bound memory, not as a commit protocol
        (section 4.5) — but everything below the persisted watermark
        survives.

        Sources come back *closed*: call :meth:`define_source` for each
        source still in use to resume its chain.  Histogram indexes are
        user code and must be re-defined; they apply to new records only.
        """
        loom = cls.__new__(cls)
        loom._record_log = RecordLog.reopen(
            config=config, clock=clock, repair=repair, verify=verify
        )
        loom._query_counters = {}
        return loom

    # ------------------------------------------------------------------
    # Schema operators
    # ------------------------------------------------------------------
    def define_source(self, source_id: int) -> None:
        """Define a new source (Figure 9)."""
        self._record_log.define_source(source_id)

    def close_source(self, source_id: int) -> None:
        """Remove an existing source; its captured data remains queryable."""
        self._record_log.close_source(source_id)

    def define_index(
        self,
        source_id: int,
        index_func: IndexFunc,
        bins: Union[HistogramSpec, Sequence[float]],
    ) -> int:
        """Define a histogram index on a source; returns the index id.

        ``bins`` is either a prepared :class:`HistogramSpec` or a sequence
        of bin edges; Loom adds the two outlier bins itself (section 4.2).
        Indexing applies to records pushed from now on (section 5.3).
        """
        spec = bins if isinstance(bins, HistogramSpec) else HistogramSpec(bins)
        return self._record_log.define_index(source_id, index_func, spec)

    def close_index(self, index_id: int) -> None:
        """Remove an existing index (new chunks stop maintaining it)."""
        self._record_log.close_index(index_id)

    # ------------------------------------------------------------------
    # Data ingest operators
    # ------------------------------------------------------------------
    def push(self, source_id: int, data: bytes) -> int:
        """Write one record from a source; returns its log address."""
        return self._record_log.push(source_id, data)

    def push_many(self, source_id: int, payloads: Sequence[bytes]) -> List[int]:
        """Write a batch of records from one source; returns their addresses.

        The batched fast path is *columnar*: the whole batch is framed as
        numpy column vectors with one table-driven CRC pass and a single
        ``tobytes()``, landed with one hybrid-log append, histogram-binned
        with one ``searchsorted`` per index, folded into the active chunk
        summary with vectorized reductions, and published once.  All
        records in the batch share a single arrival timestamp (one clock
        read).  Use this when the daemon already has several records in
        hand — e.g. it drains an eBPF ring buffer or a socket in bursts;
        use :meth:`push` when records arrive (and must be timestamped) one
        at a time.
        """
        return self._record_log.push_many(source_id, payloads)

    def sync(self, source_id: Optional[int] = None) -> None:
        """Force everything ingested so far to be visible to queriers.

        ``source_id`` is validated for API fidelity with the paper's
        ``sync(source_id)``, but publication is *global*: the three logs
        share watermarks, so syncing one source makes every source's
        pending records queryable.  (A per-source sync is impossible here
        by construction — records of all sources interleave in one record
        log and a watermark is a single address bound.)
        """
        self._record_log.sync(source_id)

    # ------------------------------------------------------------------
    # Query operators (QueryResult API)
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Capture an explicit query snapshot (linearization point)."""
        return Snapshot.capture(self._record_log)

    def scan(
        self,
        source_id: int,
        t_range: TimeRange,
        func: Optional[RecordFunc] = None,
        snapshot: Optional[Snapshot] = None,
        trace: bool = False,
    ) -> QueryResult:
        """Scan a source in a time range, newest record first.

        With ``func`` given, applies it to each record and leaves
        ``result.records`` as ``None`` (the paper's streaming UDF form);
        otherwise the matching records land on the result as a lazy
        :class:`~repro.core.operators.Records` sequence over the scan's
        column batches.  ``trace=True`` attaches a per-stage
        :class:`QueryTrace`.
        """
        snap = snapshot or self.snapshot()
        stats = QueryStats()
        qtrace = QueryTrace() if trace else None
        self._note_query("scan")
        batches = raw_scan_batches(
            snap, source_id, t_range[0], t_range[1], stats=stats, trace=qtrace
        )
        return self._scan_result(batches, func, stats, qtrace, source_id)

    def scan_indexed(
        self,
        source_id: int,
        index_id: int,
        t_range: TimeRange,
        v_range: ValueRange = (NEG_INF, POS_INF),
        func: Optional[RecordFunc] = None,
        snapshot: Optional[Snapshot] = None,
        trace: bool = False,
    ) -> QueryResult:
        """Scan a source in a time and value range using an index.

        Surviving chunks are scanned columnar: header columns are decoded
        in bulk (one read per region), the source/time
        predicates run as one vectorized mask, and the value predicate
        runs on the survivors' value column; the only per-record Python
        work is the index function itself.
        """
        snap = snapshot or self.snapshot()
        index = self._check_index(source_id, index_id)
        stats = QueryStats()
        qtrace = QueryTrace() if trace else None
        self._note_query("scan_indexed")
        batches = indexed_scan_batches(
            snap, source_id, index, t_range[0], t_range[1],
            v_range[0], v_range[1], stats=stats, trace=qtrace,
        )
        return self._scan_result(batches, func, stats, qtrace, source_id)

    def aggregate(
        self,
        source_id: int,
        index_id: int,
        t_range: TimeRange,
        method: str,
        percentile: Optional[float] = None,
        snapshot: Optional[Snapshot] = None,
        trace: bool = False,
    ) -> QueryResult:
        """Aggregate a source in a time range using the specified method.

        ``method``: count/sum/min/max/mean, or ``percentile`` with the
        ``percentile`` argument in [0, 100] (exact, per section 4.3).
        The aggregate lands on ``result.value``; ``result.count`` is the
        number of records it covers.
        """
        snap = snapshot or self.snapshot()
        index = self._check_index(source_id, index_id)
        self._note_query("aggregate")
        return indexed_aggregate(
            snap, source_id, index, t_range[0], t_range[1], method,
            percentile=percentile, trace=QueryTrace() if trace else None,
        )

    def histogram(
        self,
        source_id: int,
        index_id: int,
        t_range: TimeRange,
        snapshot: Optional[Snapshot] = None,
    ) -> QueryResult:
        """Per-bin record counts of an index over a time range.

        This is phase 1 of the percentile algorithm as a first-class
        verb: chunks fully inside the range contribute their summary bin
        statistics without being read; straddling chunks and the active
        region are scanned.  The counts land on ``result.bins`` (bin
        index -> count).  The distributed coordinator merges these tiny
        histograms across shards to locate a global percentile's bin
        without moving raw data (paper section 8).
        """
        snap = snapshot or self.snapshot()
        index = self._check_index(source_id, index_id)
        stats = QueryStats()
        self._note_query("histogram")
        counts = bin_histogram(
            snap, source_id, index, t_range[0], t_range[1], stats=stats
        )
        return QueryResult(
            stats=stats,
            bins=counts,
            count=sum(counts.values()),
            source=str(source_id),
        )

    def bin_values(
        self,
        source_id: int,
        index_id: int,
        t_range: TimeRange,
        bin_idx: int,
        snapshot: Optional[Snapshot] = None,
    ) -> QueryResult:
        """Extract the index values of one histogram bin over a time range.

        Phase 2 of the distributed percentile: after :meth:`histogram`
        locates the bin containing the global rank, the coordinator
        fetches only that bin's raw values from each shard.  Values land
        on ``result.values`` in ascending order.  Bin membership is exact
        (half-open ``[lo, hi)`` per the spec), so a value equal to the
        bin's upper edge is excluded — it belongs to the next bin.
        """
        snap = snapshot or self.snapshot()
        index = self._check_index(source_id, index_id)
        stats = QueryStats()
        self._note_query("bin_values")
        values = bin_values(
            snap, source_id, index, t_range[0], t_range[1], bin_idx, stats=stats
        )
        return QueryResult(
            stats=stats,
            values=values,
            count=len(values),
            source=str(source_id),
        )

    def index_spec(self, source_id: int, index_id: int) -> HistogramSpec:
        """The histogram layout of an index (public accessor, so fleet
        tooling can verify layout agreement without reaching into the
        record log)."""
        return self._check_index(source_id, index_id).spec

    def _check_index(self, source_id: int, index_id: int) -> IndexDefinition:
        index = self._record_log.get_index(index_id)
        if index.source_id != source_id:
            raise LoomError(
                f"index {index_id} is defined on source {index.source_id}, "
                f"not {source_id}"
            )
        return index

    def _note_query(self, verb: str) -> None:
        """Count a query by verb (advisory: queries run on any thread)."""
        if not self._record_log.config.metrics_enabled:
            return
        # setdefault on __dict__ keeps this working for instances built
        # around a bare ``__new__`` (tests graft a record log directly).
        counters: Dict[str, Counter] = self.__dict__.setdefault(
            "_query_counters", {}
        )
        counter = counters.get(verb)
        if counter is None:
            counter = self._record_log.metrics.counter(
                "loom.query.total", "queries executed", labels={"verb": verb}
            )
            counters[verb] = counter
        counter.inc()

    @staticmethod
    def _scan_result(
        batches: Iterator[RecordBatch],
        func: Optional[RecordFunc],
        stats: QueryStats,
        trace: Optional[QueryTrace],
        source_id: int,
    ) -> QueryResult:
        """Drive a scan: stream its records through ``func``, or keep its
        batches as the result's lazy record sequence."""
        records = None
        if func is None:
            records = Records(batches)
        else:
            for batch in batches:
                for record in batch:
                    func(record)
        return QueryResult(
            stats=stats,
            records=records,
            count=stats.records_matched,
            trace=trace,
            source=str(source_id),
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def record_log(self) -> RecordLog:
        """The underlying record log (advanced use: ablations, benches)."""
        return self._record_log

    @property
    def clock(self) -> Clock:
        return self._record_log.clock

    @property
    def total_records(self) -> int:
        """Records ingested since creation.  Loom never drops data, so
        this equals the number of records pushed (``push`` calls plus
        the sizes of all ``push_many`` batches)."""
        return self._record_log.total_records

    def source_record_count(self, source_id: int) -> int:
        return self._record_log.get_source(source_id).record_count

    @property
    def metrics(self) -> MetricsRegistry:
        """The loomscope self-observation registry (always present; hot
        paths feed it only when ``config.metrics_enabled``)."""
        return self._record_log.metrics

    def introspect(self) -> Introspection:
        """One typed snapshot of this instance's own state.

        Unifies what used to be separate accessors — :meth:`health`,
        :meth:`footprint`, :attr:`total_records`, per-source counters —
        and adds the full metrics-registry snapshot, so daemons and CLIs
        read a single consistent object instead of poking N surfaces.
        """
        sources = tuple(
            SourceIntrospection(
                source_id=state.source_id,
                record_count=state.record_count,
                bytes_ingested=state.bytes_ingested,
                first_timestamp=state.first_timestamp,
                last_timestamp=state.last_timestamp,
                closed=state.closed,
                index_ids=tuple(state.index_ids),
            )
            for state in (
                self._record_log.get_source(sid)
                for sid in self._record_log.source_ids()
            )
        )
        return Introspection(
            health=self._record_log.health(),
            total_records=self._record_log.total_records,
            footprint=self.footprint(),
            sources=sources,
            metrics=self._record_log.metrics.snapshot(),
        )

    def health(self) -> "Health":
        """Aggregate flush-path health: HEALTHY, DEGRADED, or FAILED.

        DEGRADED means a flush recently failed and the retry path is
        active; FAILED means retries were exhausted — ``push`` raises
        :class:`~repro.core.errors.StorageError`, while queries over
        already-published data keep working.

        Shorthand for ``introspect().health``.
        """
        return self._record_log.health()

    def footprint(self) -> Dict[str, int]:
        """Approximate resource footprint: log sizes and staged bytes.

        Alongside the per-log totals, the per-tier keys split the record
        address space at the cold boundary: ``hot_bytes`` is what still
        lives in the hot record log, ``cold_bytes_raw`` the pre-compression
        size of everything migrated (and not yet retired), and
        ``cold_bytes_compressed`` what the archive actually holds on disk
        for it.  ``journal_bytes`` sums every sidecar frame journal.
        """
        log = self._record_log
        rl, ci, ti = (log.log, log.chunk_index.log, log.timestamp_index.log)
        journal_bytes = 0
        for hybrid in (rl, ci, ti):
            journal = hybrid.frame_journal
            if journal is not None:
                journal_bytes += journal.size
        archive = log.archive
        result = {
            "record_log_bytes": rl.tail_address,
            "chunk_index_bytes": ci.tail_address,
            "timestamp_index_bytes": ti.tail_address,
            "in_memory_bytes": rl.in_memory_bytes + ci.in_memory_bytes + ti.in_memory_bytes,
            "finalized_chunks": len(log.chunk_index),
            "timestamp_entries": log.timestamp_index.entry_count,
            "hot_bytes": rl.tail_address - log.cold_boundary,
            "cold_bytes_raw": 0,
            "cold_bytes_compressed": 0,
            "archive_log_bytes": 0,
            "archived_chunks": 0,
            "retired_chunks": 0,
            "recycled_upto": log.cold_boundary,
            "retention_floor": log.retention_floor,
            "journal_bytes": journal_bytes,
        }
        if archive is not None:
            result["cold_bytes_raw"] = archive.raw_bytes
            result["cold_bytes_compressed"] = archive.compressed_bytes
            result["archive_log_bytes"] = archive.size
            result["archived_chunks"] = archive.chunk_count
            result["retired_chunks"] = archive.retired_count
            result["journal_bytes"] = journal_bytes + archive.journal_size
        return result

    # ------------------------------------------------------------------
    # Cold tier: migration and retention
    # ------------------------------------------------------------------
    def migrate(self, force: bool = True) -> "MigrationReport":
        """Run one cold-tier migration pass (see :class:`TierConfig`).

        With ``force=True`` every finalized, persisted hot chunk is
        migrated regardless of the watermarks; ``force=False`` applies
        the configured hysteresis.  Requires ``LoomConfig(tier=...)``.
        """
        return self._record_log.migrate(force=force)

    def apply_retention(self, now: Optional[int] = None) -> "RetentionReport":
        """Retire archived chunks past the retention horizon.

        ``now`` overrides the clock reading the horizon is measured
        against (workload replay).  Requires a configured
        :class:`~repro.core.config.RetentionPolicy`.
        """
        return self._record_log.apply_retention(now=now)

    def close(self) -> None:
        """Publish all pending data and close the three logs."""
        self._record_log.close()

    def __enter__(self) -> "Loom":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()
