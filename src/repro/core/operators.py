"""Loom's query operators (paper section 4.3).

Three composable operators cover the paper's target query classes:

* :func:`raw_scan` — all records of a source in a time range, newest
  first, via the timestamp index and the source's back-pointer chain.
* :func:`indexed_scan` — records of a source in a time range *and* a value
  range of a histogram index.  The timestamp index narrows the chunk-index
  window; chunk summaries whose relevant bins are empty are skipped
  entirely; only the surviving chunks are scanned.
* :func:`indexed_aggregate` — distributive aggregates (count/sum/min/max/
  mean) computed from bin statistics, scanning only chunks that partially
  overlap the time range, and holistic aggregates (percentiles) computed by
  treating bin counts as a CDF and scanning only the chunks that contain
  records in the single bin where the target rank falls.

Every operator runs in the calling thread, touches a bounded amount of
memory, and reads through a :class:`~repro.core.snapshot.Snapshot`, so
queries impose no coordination on ingest (sections 3 and 4.4).

For the index-ablation experiment (paper Figure 16) the scan operators
accept ``use_time_index`` / ``use_chunk_index`` flags; disabling an index
layer falls back to exactly the extra scanning the paper describes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, overload

import numpy as np

from .chunk_index import STATE_RETIRED
from .errors import AddressError, LoomError
from .histogram import HistogramSpec, IndexDefinition
from .hybridlog import NULL_ADDRESS
from .record import Record
from .record_log import RecordBatch
from .snapshot import Snapshot
from .summary import BinStats, ChunkSummary, SourceChunkInfo

_U64_MAX = 2**64 - 1

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Aggregation methods accepted by :func:`indexed_aggregate`.
DISTRIBUTIVE_METHODS = ("count", "sum", "min", "max", "mean")


@dataclass
class QueryStats:
    """Work counters filled in by the operators (used by tests & benches)."""

    records_scanned: int = 0
    records_matched: int = 0
    #: Records decoded from the log on behalf of this query (chain walks
    #: plus region scans).  Kept here — not on the record log — because
    #: queries run on arbitrary threads and a shared counter would race.
    records_decoded: int = 0
    chunks_scanned: int = 0
    chunks_skipped: int = 0
    #: Archive chunks decompressed on behalf of this query (cold-tier
    #: cache misses).  Zero for queries answered from resident summaries
    #: or the hot log — the cold tier's "summaries first" guarantee.
    cold_chunks_decompressed: int = 0
    summaries_examined: int = 0
    summaries_aggregated: int = 0
    used_time_index: bool = False
    used_chunk_index: bool = False
    #: True when a fan-out query is missing at least one shard/node: the
    #: result covers only the shards that answered (graceful degradation;
    #: see :class:`repro.daemon.distributed.LoomCoordinator`).
    degraded: bool = False
    #: Names of the shards/nodes that did not contribute (down, timed
    #: out, or quarantined).  Empty for single-instance queries.
    missing_shards: List[str] = field(default_factory=list)

    def merge(self, other: "QueryStats") -> None:
        """Fold another query's counters into this one.

        Used by callers that accumulate work across several operator
        calls (one logical query, many aggregates or many nodes).
        """
        self.records_scanned += other.records_scanned
        self.records_matched += other.records_matched
        self.records_decoded += other.records_decoded
        self.chunks_scanned += other.chunks_scanned
        self.chunks_skipped += other.chunks_skipped
        self.cold_chunks_decompressed += other.cold_chunks_decompressed
        self.summaries_examined += other.summaries_examined
        self.summaries_aggregated += other.summaries_aggregated
        self.used_time_index = self.used_time_index or other.used_time_index
        self.used_chunk_index = self.used_chunk_index or other.used_chunk_index
        self.degraded = self.degraded or other.degraded
        for name in other.missing_shards:
            if name not in self.missing_shards:
                self.missing_shards.append(name)


@dataclass(frozen=True)
class TraceEvent:
    """One stage of a query's execution plan, in execution order."""

    stage: str
    detail: str = ""
    count: int = 0


@dataclass
class QueryTrace:
    """Ordered per-stage trace of one query.

    Requested via ``trace=True`` on the :class:`~repro.core.loom.Loom`
    query methods; carried on the returned
    :class:`QueryResult`.  Stages mirror the section 4.3 access pattern:
    ``seek`` (timestamp-index lookup), ``chain-walk`` (back-pointer
    traversal), ``summary-prune`` (candidate summaries examined vs.
    skipped by bin occupancy), ``chunk-scan`` / ``active-scan`` (regions
    actually read), ``cdf`` (percentile rank-to-bin resolution) and
    ``bin-scan`` (target-bin collection).
    """

    events: List[TraceEvent] = field(default_factory=list)

    def add(self, stage: str, detail: str = "", count: int = 0) -> None:
        self.events.append(TraceEvent(stage=stage, detail=detail, count=count))

    def stages(self) -> List[str]:
        return [event.stage for event in self.events]

    def format(self) -> str:
        """Human-readable rendering (one line per stage; CLI ``trace``)."""
        lines = []
        for event in self.events:
            line = f"{event.stage:>14}  count={event.count}"
            if event.detail:
                line += f"  {event.detail}"
            lines.append(line)
        return "\n".join(lines)


class Records(Sequence[Record]):
    """A scan's records, as a lazy sequence over its batches.

    ``len``, indexing (``[0]``, ``[-1]``, slices), iteration and equality
    with a list behave as they would on a ``List[Record]``; a
    :class:`Record` is built only when one is asked for, so a caller that
    looks at the count and the two ends of a large result pays for two
    records.
    """

    def __init__(self, batches: Iterable[RecordBatch]) -> None:
        self.batches = [batch for batch in batches if len(batch)]
        self._ends = list(accumulate(len(batch) for batch in self.batches))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    @overload
    def __getitem__(self, i: int) -> Record: ...

    @overload
    def __getitem__(self, i: slice) -> List[Record]: ...

    def __getitem__(self, i: "int | slice") -> "Record | List[Record]":
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("record index out of range")
        b = bisect_right(self._ends, i)
        batch = self.batches[b]
        return batch.record(i - self._ends[b] + len(batch))

    def __iter__(self) -> Iterator[Record]:
        for batch in self.batches:
            yield from batch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, Records)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Records({len(self)} records in {len(self.batches)} batches)"


@dataclass
class QueryResult:
    """Unified result of every Loom query verb.

    Scans fill :attr:`records` (``None`` when driven by a streaming
    ``func``), a :class:`Records` sequence unless a caller built the
    result from a plain list; aggregates fill :attr:`value`.
    :attr:`count` is the number of matched records either way.
    :attr:`stats` always carries the work counters, and :attr:`trace` the
    optional stage trace.  :attr:`source` is a display label for the
    queried source — the daemon resolves it to the source *name*; the
    core falls back to the numeric id.

    Two verb-specific payloads ride along for the distributed protocol
    (both ``None`` for ordinary scans/aggregates): :attr:`bins` carries a
    per-bin count histogram (the ``histogram`` verb — phase 1 of the
    coordinator's global-percentile merge), and :attr:`values` carries
    extracted index values (the ``bin_values`` verb — phase 2, fetching
    only the target bin's raw values).
    """

    stats: QueryStats
    records: Optional[Sequence[Record]] = None
    value: Optional[float] = None
    count: int = 0
    trace: Optional[QueryTrace] = None
    source: Optional[str] = None
    bins: Optional[Dict[int, int]] = None
    values: Optional[List[float]] = None


# ----------------------------------------------------------------------
# raw scan
# ----------------------------------------------------------------------
def raw_scan(
    snapshot: Snapshot,
    source_id: int,
    t_start: int,
    t_end: int,
    stats: Optional[QueryStats] = None,
    use_time_index: bool = True,
    trace: Optional[QueryTrace] = None,
) -> Iterator[Record]:
    """Yield a source's records with ``t_start <= timestamp <= t_end``,
    newest to oldest (:func:`raw_scan_batches`, one record at a time)."""
    for batch in raw_scan_batches(
        snapshot, source_id, t_start, t_end, stats, use_time_index, trace
    ):
        yield from batch


def raw_scan_batches(
    snapshot: Snapshot,
    source_id: int,
    t_start: int,
    t_end: int,
    stats: Optional[QueryStats] = None,
    use_time_index: bool = True,
    trace: Optional[QueryTrace] = None,
) -> Iterator[RecordBatch]:
    """A source's records with ``t_start <= timestamp <= t_end``, newest
    to oldest, in batches.

    The timestamp index names the most recent record at or after the end
    of the range, and the scan reads it: the seek, one pointer read that
    tells an empty window from a populated one.  From there the source's
    back-pointer chain says *where* the scan goes and the chunk summaries
    say *how*: a chunk in which the source is dense
    (:meth:`Snapshot.dense_region`) is decoded whole into columns and
    masked, and the walk resumes at the back-pointer of the oldest row it
    covered; through a chunk in which it is sparse the pointers are
    followed one record at a time.  With ``use_time_index=False`` the walk
    starts from the source's live chain head and follows pointers only, so
    cost grows with lookback distance — the paper's "no index" ablation.

    ``stats.records_scanned`` counts every row decoded on the way: all
    records of a region-decoded chunk, whatever their source, plus one per
    pointer read.  ``trace``, when given, receives stage events once the
    scan is driven to completion.
    """
    if stats is None:
        stats = QueryStats()
    if t_end < t_start or t_end < 0 or t_start > _U64_MAX:
        return
    address = snapshot.chain_head(source_id)
    if use_time_index:
        hit = snapshot.first_record_after(source_id, t_end)
        if hit is not None:
            address = hit[1]
        stats.used_time_index = True
        if trace is not None:
            trace.add(
                "seek",
                "timestamp index hit" if hit is not None else
                "timestamp index miss (walk from chain head)",
                count=1,
            )
    scanned, matched = stats.records_scanned, stats.records_matched
    chunk_size = snapshot.record_log.chunk_size
    #: Address of the last record (or start of the last region) the walk
    #: covered: a record boundary above ``address`` with none of the
    #: source's records in between, so a region step may stop there.
    ceiling = address
    #: Pointers are followed down to here before asking whether the next
    #: chunk is cheaper by region; the seek, and the step after a region,
    #: is always one pointer read.
    boundary = address
    region: Optional[Tuple[int, int]] = None
    while address != NULL_ADDRESS:
        if region is not None:
            batch, address = _walk_region(
                snapshot, region[0], min(region[1], ceiling),
                source_id, t_start, t_end, stats,
            )
            ceiling, boundary, region = region[0], address, None
        else:
            records: List[Record] = []
            for record in snapshot.iter_chain(source_id, start=address, stats=stats):
                stats.records_scanned += 1
                ceiling, address = record.address, record.prev_addr
                if record.timestamp < t_start:
                    address = NULL_ADDRESS
                    break
                if record.timestamp <= t_end:
                    records.append(record)
                if use_time_index and address < boundary:
                    region = snapshot.dense_region(source_id, address, t_start)
                    if region is not None:
                        break
                    boundary = address // chunk_size * chunk_size
            else:
                address = NULL_ADDRESS  # chain exhausted, or the retention floor
            batch = RecordBatch.from_records(source_id, records) if records else None
        if batch is not None:
            stats.records_matched += len(batch)
            yield batch
    if trace is not None:
        trace.add(
            "chain-walk",
            f"matched {stats.records_matched - matched}",
            count=stats.records_scanned - scanned,
        )


def _walk_region(
    snapshot: Snapshot,
    start: int,
    end: int,
    source_id: int,
    t_start: int,
    t_end: int,
    stats: QueryStats,
) -> Tuple[Optional[RecordBatch], int]:
    """One region step of the chain walk: the source's records in
    ``[start, end)``, newest first, exactly as following the back-pointers
    through them would select them (records newer than ``t_end`` skipped,
    the walk cut at the first one older than ``t_start``).  Returns the
    in-range batch and the address the chain continues at
    (``NULL_ADDRESS`` once the walk is over)."""
    try:
        columns = snapshot.region_columns(start, end, stats=stats)
    except AddressError:
        if start >= snapshot.record_log.retention_floor:
            raise
        stats.degraded = True  # retention advanced under the walk
        return None, NULL_ADDRESS
    assert columns is not None
    stats.records_scanned += len(columns)
    rows = np.flatnonzero(columns.source_ids == source_id)[::-1]
    timestamps = columns.timestamps[rows]
    resume = int(columns.prev_addrs[rows[-1]])
    older = np.flatnonzero(timestamps < np.uint64(max(t_start, 0)))
    if older.size:
        rows, timestamps, resume = rows[: older[0]], timestamps[: older[0]], NULL_ADDRESS
    rows = rows[timestamps <= np.uint64(min(t_end, _U64_MAX))]
    return (columns.batch(source_id, rows) if rows.size else None), resume


# ----------------------------------------------------------------------
# indexed range scan
# ----------------------------------------------------------------------
def indexed_scan(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    v_min: float = NEG_INF,
    v_max: float = POS_INF,
    stats: Optional[QueryStats] = None,
    use_time_index: bool = True,
    use_chunk_index: bool = True,
    trace: Optional[QueryTrace] = None,
) -> Iterator[Record]:
    """Yield records of ``source_id`` in the time range whose indexed value
    lies in ``[v_min, v_max]``, in ascending address (= arrival) order
    (:func:`indexed_scan_batches`, one record at a time)."""
    for batch in indexed_scan_batches(
        snapshot, source_id, index, t_start, t_end, v_min, v_max,
        stats, use_time_index, use_chunk_index, trace,
    ):
        yield from batch


def indexed_scan_batches(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    v_min: float = NEG_INF,
    v_max: float = POS_INF,
    stats: Optional[QueryStats] = None,
    use_time_index: bool = True,
    use_chunk_index: bool = True,
    trace: Optional[QueryTrace] = None,
) -> Iterator[RecordBatch]:
    """Records of ``source_id`` in the time range whose indexed value lies
    in ``[v_min, v_max]``, in ascending address (= arrival) order, one
    batch per scanned chunk.

    The three-step access pattern of section 4.3: the timestamp index
    narrows the summary window, summaries filter chunks by bin occupancy,
    and only surviving chunks (plus the unsummarized active region) are
    scanned.

    ``trace``, when given, receives stage events once the scan is driven
    to completion.
    """
    if stats is None:
        stats = QueryStats()
    if t_end < t_start:
        return
    relevant_bins = set(index.spec.bins_overlapping(v_min, v_max))
    regions: List[Tuple[int, int]] = []
    examined, skipped = stats.summaries_examined, stats.chunks_skipped
    for summary, _ in _candidate_summaries(
        snapshot, source_id, t_start, t_end, use_time_index, stats
    ):
        bins = summary.bins_for(source_id, index.index_id)
        if use_chunk_index:
            stats.used_chunk_index = True
        if use_chunk_index and not any(
            b in relevant_bins and bins[b].count > 0 for b in bins
        ):
            stats.chunks_skipped += 1
        elif not snapshot.record_log.chunk_index.is_scannable(summary.chunk_id):
            # Summary-only chunk: its raw bytes were dropped by retention,
            # so matching records cannot be materialized.
            stats.chunks_skipped += 1
            stats.degraded = True
        else:
            regions.append((summary.start_addr, summary.end_addr))
    stats.chunks_scanned += len(regions)
    if trace is not None:
        trace.add(
            "summary-prune",
            f"skipped {stats.chunks_skipped - skipped}",
            count=stats.summaries_examined - examined,
        )
        trace.add(
            "chunk-scan", f"value bins considered: {len(relevant_bins)}", count=len(regions)
        )
    active_start, active_end = snapshot.active_region()
    regions.append((active_start, active_end))
    for start, end in regions:
        batch = _scan_region(
            snapshot, start, end, source_id, index, t_start, t_end, v_min, v_max, stats
        )
        if batch is not None:
            yield batch
    if trace is not None:
        trace.add(
            "active-scan",
            f"bytes {active_end - active_start}",
            count=1 if active_end > active_start else 0,
        )


def _candidate_summaries(
    snapshot: Snapshot,
    source_id: int,
    t_start: int,
    t_end: int,
    use_time_index: bool,
    stats: QueryStats,
) -> Iterator[Tuple[ChunkSummary, SourceChunkInfo]]:
    """``(summary, the source's info in it)`` for every chunk holding
    records of the source inside the time range, in chunk order.  Every
    summary looked at counts once in ``stats.summaries_examined``; one
    without such records counts in ``stats.chunks_skipped``.

    With the time index this is a bisected window.  Without it, the query
    must discover the window by scanning summaries backward from the tail
    until it passes the range — cost proportional to lookback distance,
    which is the growth Figure 16 shows for the chunk-index-only ablation.
    """
    if t_end < t_start:
        return
    candidates: Iterable[ChunkSummary]
    if use_time_index:
        stats.used_time_index = True
        candidates = snapshot.summaries_in_time_range(t_start, t_end)
    else:
        collected: List[ChunkSummary] = []
        chunk_index = snapshot.record_log.chunk_index
        for i in range(snapshot.n_chunks - 1, -1, -1):
            summary = chunk_index.get(i)
            if chunk_index.state_at(i) == STATE_RETIRED or summary.t_min > t_end:
                stats.summaries_examined += 1
            elif summary.t_max < t_start:
                stats.summaries_examined += 1
                break
            else:
                collected.append(summary)  # counted below, as a candidate
        candidates = reversed(collected)
    for summary in candidates:
        stats.summaries_examined += 1
        info = summary.source_info(source_id)
        if info is None or info.t_min > t_end or info.t_max < t_start:
            stats.chunks_skipped += 1
        else:
            yield summary, info


def index_values(index: IndexDefinition, batch: RecordBatch) -> np.ndarray:
    """The indexed value of every row of ``batch``, as one float64 column.

    The one place the read path evaluates an index: the value predicate,
    the aggregate folds and the target-bin collection all consume this
    column.  The index is an opaque callable over payload bytes, so this
    is one call per row — the same ``np.fromiter`` the write side runs in
    ``push_many``.
    """
    return np.fromiter(map(index.index_func, batch.payloads()), np.float64, len(batch))


def _scan_region(
    snapshot: Snapshot,
    start: int,
    end: int,
    source_id: int,
    index: Optional[IndexDefinition],
    t_start: int,
    t_end: int,
    v_min: float,
    v_max: float,
    stats: QueryStats,
) -> Optional[RecordBatch]:
    """Scan ``[start, end)`` filtering by source, time, and value; returns
    the surviving rows in address order, or ``None`` when there are none.

    The source and time predicates are one vectorized mask over the
    region's header columns; the survivors' payloads are gathered once
    into an owned batch, and the value predicate runs on that batch's
    value column.  ``index=None`` skips the value predicate.
    """
    columns = snapshot.region_columns(start, end, stats=stats)
    if columns is None:
        return None
    stats.records_scanned += len(columns)
    if t_end < t_start or t_end < 0 or t_start > _U64_MAX:
        return None
    mask = columns.source_ids == source_id
    timestamps = columns.timestamps
    # The time bounds are compared as u64 (clamped into range) so the
    # comparison stays exact: mixed uint64/int comparisons would
    # round-trip through float64.
    if t_start > 0:
        mask &= timestamps >= np.uint64(t_start)
    mask &= timestamps <= np.uint64(min(t_end, _U64_MAX))
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return None
    batch = columns.batch(source_id, rows)
    if index is not None:
        values = index_values(index, batch)
        # Written as "not outside" so a NaN value passes any range, as it
        # does the scalar test ``value < v_min or value > v_max``.
        keep = ~((values < v_min) | (values > v_max))
        if not keep.all():
            if not keep.any():
                return None
            batch = batch.take(keep)
    stats.records_matched += len(batch)
    return batch


# ----------------------------------------------------------------------
# indexed aggregate
# ----------------------------------------------------------------------
class _StatsFold:
    """Distributive fold: one merged :class:`BinStats` over the range."""

    def __init__(self) -> None:
        self.total = BinStats()

    def bins(self, bins: Dict[int, BinStats]) -> None:
        for bin_stats in bins.values():
            self.total.merge(bin_stats)

    def values(self, values: np.ndarray, timestamps: np.ndarray) -> None:
        """Fold a scanned batch's value column, bit for bit as one
        ``BinStats.update`` per row would: the sum is a left-to-right
        accumulation seeded with the running sum, and the strict min/max
        comparisons are reductions except where a reduction cannot
        reproduce them (a NaN, which they never let in, or a ``-0.0``,
        whose tie with ``+0.0`` goes to whichever arrived first) — the
        same fallback rule as ``add_indexed_values_array``."""
        total = self.total
        if bool(np.isnan(values).any()) or bool(
            ((values == 0.0) & np.signbit(values)).any()
        ):
            for value, timestamp in zip(values.tolist(), timestamps.tolist()):
                total.update(value, timestamp)
            return
        if total.count == 0:
            total.t_min = int(timestamps[0])
        total.count += len(values)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, as floats do
            total.sum = float(np.cumsum(np.concatenate(((total.sum,), values)))[-1])
        total.min = min(total.min, float(values.min()))
        total.max = max(total.max, float(values.max()))
        total.t_max = int(timestamps[-1])


class _CountFold:
    """Histogram fold: per-bin record counts."""

    def __init__(self, spec: HistogramSpec) -> None:
        self.spec = spec
        self.counts: Dict[int, int] = {}

    def bins(self, bins: Dict[int, BinStats]) -> None:
        counts = self.counts
        for bin_idx, bin_stats in bins.items():
            counts[bin_idx] = counts.get(bin_idx, 0) + bin_stats.count

    def values(self, values: np.ndarray, timestamps: np.ndarray) -> None:
        self._count(self.spec.bins_of(values))

    def _count(self, bins: np.ndarray) -> None:
        counts = self.counts
        binned = np.bincount(bins)
        for bin_idx in np.flatnonzero(binned).tolist():
            counts[bin_idx] = counts.get(bin_idx, 0) + int(binned[bin_idx])


class _RetainFold(_CountFold):
    """Percentile fold: bin counts, with every scanned value column kept
    beside its bin column so collecting the target bin never re-reads a
    scanned region."""

    def __init__(self, spec: HistogramSpec) -> None:
        super().__init__(spec)
        self.retained: List[Tuple[np.ndarray, np.ndarray]] = []

    def values(self, values: np.ndarray, timestamps: np.ndarray) -> None:
        bins = self.spec.bins_of(values)
        self._count(bins)
        self.retained.append((bins, values))


def _fold_range(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    use_time_index: bool,
    use_chunk_index: bool,
    stats: QueryStats,
    trace: Optional[QueryTrace],
    fold: "_StatsFold | _CountFold",
) -> List[ChunkSummary]:
    """The summary walk every aggregate shares.

    Chunks whose records of the source lie fully inside the time range
    hand their bin statistics to ``fold.bins`` without being read; chunks
    straddling a range edge and the unsummarized active region are
    scanned, one ``fold.values`` per region that has matching records.
    Returns the summaries answered from bins (the candidates of a
    target-bin scan).
    """
    full_summaries: List[ChunkSummary] = []
    regions: List[Tuple[int, int]] = []
    for summary, info in _candidate_summaries(
        snapshot, source_id, t_start, t_end, use_time_index, stats
    ):
        # Judged on the *source's* time range within the chunk: when every
        # one of its records there is inside the query range, the chunk's
        # bin statistics answer for it without a scan.
        if use_chunk_index and t_start <= info.t_min and info.t_max <= t_end:
            stats.used_chunk_index = True
            stats.summaries_aggregated += 1
            full_summaries.append(summary)
            fold.bins(summary.bins_for(source_id, index.index_id))
        elif not snapshot.record_log.chunk_index.is_scannable(summary.chunk_id):
            # A summary-only chunk straddling the range edge cannot be
            # scanned for the exact in-range subset; its contribution is
            # omitted and the result flagged as degraded.
            stats.chunks_skipped += 1
            stats.degraded = True
        else:
            stats.chunks_scanned += 1
            regions.append((summary.start_addr, summary.end_addr))
    scanned = len(regions)
    active_start, active_end = snapshot.active_region()
    regions.append((active_start, active_end))
    for start, end in regions:
        batch = _scan_region(
            snapshot, start, end, source_id, None,
            t_start, t_end, NEG_INF, POS_INF, stats,
        )
        if batch is not None:
            fold.values(index_values(index, batch), batch.timestamps)
    if trace is not None:
        aggregated = len(full_summaries)
        trace.add(
            "summary-prune",
            f"aggregated from bins: {aggregated}",
            count=aggregated + scanned,
        )
        trace.add("chunk-scan", "straddling chunks", count=scanned)
        trace.add(
            "active-scan",
            f"bytes {active_end - active_start}",
            count=1 if active_end > active_start else 0,
        )
    return full_summaries


def _collect_bin(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    target_bin: int,
    fold: _RetainFold,
    full_summaries: List[ChunkSummary],
    stats: QueryStats,
    trace: Optional[QueryTrace],
) -> np.ndarray:
    """Exact values of one bin, ascending: what :func:`_fold_range`
    retained while scanning, plus a scan of each fully-covered chunk that
    has records in the bin."""
    spec = index.spec
    parts = [values[bins == target_bin] for bins, values in fold.retained]
    bin_scans = 0
    for summary in full_summaries:
        bin_stats = summary.bins_for(source_id, index.index_id).get(target_bin)
        if bin_stats is None or bin_stats.count == 0:
            stats.chunks_skipped += 1
            continue
        if not snapshot.record_log.chunk_index.is_scannable(summary.chunk_id):
            # Summary-only chunk: its target-bin values cannot be
            # materialized.  Stand in the bin's recorded mean for each of
            # them — count stays exact, the value stays inside the bin,
            # and the result is flagged approximate (degraded).
            stats.degraded = True
            stats.chunks_skipped += 1
            parts.append(np.full(bin_stats.count, bin_stats.sum / bin_stats.count))
            continue
        bin_scans += 1
        stats.chunks_scanned += 1
        batch = _scan_region(
            snapshot, summary.start_addr, summary.end_addr, source_id, None,
            t_start, t_end, NEG_INF, POS_INF, stats,
        )
        if batch is not None:
            values = index_values(index, batch)
            parts.append(values[spec.bins_of(values) == target_bin])
    collected = np.sort(np.concatenate(parts)) if parts else np.empty(0)
    if trace is not None:
        trace.add(
            "bin-scan",
            f"{len(collected)} values collected in target bin",
            count=bin_scans,
        )
    return collected


def indexed_aggregate(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    method: str,
    percentile: Optional[float] = None,
    use_time_index: bool = True,
    use_chunk_index: bool = True,
    stats: Optional[QueryStats] = None,
    trace: Optional[QueryTrace] = None,
) -> QueryResult:
    """Aggregate a source's indexed values over a time range.

    ``method`` is one of ``count``, ``sum``, ``min``, ``max``, ``mean``, or
    ``percentile`` (with ``percentile`` in [0, 100]).  Distributive methods
    come from bin statistics wherever a chunk lies fully inside the time
    range; chunks straddling a range edge are scanned.  Percentiles use the
    bin-counts-as-CDF strategy of section 4.3 and are *exact*: the returned
    value is the same order statistic a full sort would produce.

    The aggregate lands on ``result.value`` and the number of records it
    covers on ``result.count``.  A caller-supplied ``stats`` accumulates
    across calls (useful when one logical query issues several
    aggregates); otherwise a fresh :class:`QueryStats` is created.  Either
    way it is the ``result.stats``.  ``trace`` receives stage events
    (summary pruning, CDF resolution, bin scans).
    """
    if stats is None:
        stats = QueryStats()
    fold: "_StatsFold | _RetainFold"
    if method == "percentile":
        if percentile is None or not 0 <= percentile <= 100:
            raise LoomError("percentile method needs percentile in [0, 100]")
        fold = _RetainFold(index.spec)
    elif method in DISTRIBUTIVE_METHODS:
        fold = _StatsFold()
    else:
        raise LoomError(f"unknown aggregation method: {method!r}")
    full_summaries = _fold_range(
        snapshot, source_id, index, t_start, t_end,
        use_time_index, use_chunk_index, stats, trace, fold,
    )
    result = QueryResult(stats=stats, trace=trace, source=str(source_id))
    if isinstance(fold, _StatsFold):
        total = fold.total
        result.count = total.count
        if total.count:
            result.value = {
                "count": float(total.count),
                "sum": total.sum,
                "min": total.min,
                "max": total.max,
                "mean": total.sum / total.count,
            }[method]
        return result

    # Exact percentile via the CDF-over-bins strategy (section 4.3): the
    # walk established per-bin counts; locate the target bin from the
    # cumulative counts, then read only chunks with records in that bin.
    assert percentile is not None
    bin_counts = fold.counts
    total_count = sum(bin_counts.values())
    if total_count == 0:
        if trace is not None:
            trace.add("cdf", "empty range", count=0)
        return result
    # Rank of the percentile using the nearest-rank (inverted CDF)
    # definition: the smallest value with CDF >= p. numpy's
    # method="inverted_cdf" matches this, which the tests rely on.
    rank = max(1, math.ceil(percentile / 100.0 * total_count))
    cumulative = 0
    target_bin = None
    for bin_idx in sorted(bin_counts):
        if bin_counts[bin_idx] == 0:
            continue
        if cumulative + bin_counts[bin_idx] >= rank:
            target_bin = bin_idx
            break
        cumulative += bin_counts[bin_idx]
    assert target_bin is not None
    if trace is not None:
        trace.add(
            "cdf",
            f"rank {rank}/{total_count} falls in bin {target_bin}",
            count=len(bin_counts),
        )
    values = _collect_bin(
        snapshot, source_id, index, t_start, t_end, target_bin,
        fold, full_summaries, stats, trace,
    )
    k = rank - cumulative  # 1-based order statistic within the target bin
    assert 1 <= k <= len(values), (k, len(values), rank, cumulative)
    result.value = float(values[k - 1])
    result.count = total_count
    return result


def bin_histogram(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    use_time_index: bool = True,
    use_chunk_index: bool = True,
    stats: Optional[QueryStats] = None,
) -> Dict[int, int]:
    """Per-bin record counts for a source/index over a time range.

    This is pass 1 of the percentile algorithm exposed on its own: chunks
    fully inside the range contribute their bin statistics, straddling
    chunks and the active region are scanned.  The distributed coordinator
    (paper section 8) merges these histograms across nodes to locate a
    global percentile's bin without moving raw data.
    """
    if stats is None:
        stats = QueryStats()
    fold = _CountFold(index.spec)
    _fold_range(
        snapshot, source_id, index, t_start, t_end,
        use_time_index, use_chunk_index, stats, None, fold,
    )
    return fold.counts


def bin_values(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    bin_idx: int,
    stats: Optional[QueryStats] = None,
) -> List[float]:
    """Exact index values of one histogram bin over a time range, ascending.

    This is pass 2 of the percentile algorithm exposed on its own: after
    merged :func:`bin_histogram` counts locate the bin holding a global
    rank, the coordinator fetches only that bin's values from each node.
    Bin membership is exact (half-open ``[lo, hi)`` per the spec), so a
    value equal to the bin's upper edge belongs to the next bin.
    """
    if stats is None:
        stats = QueryStats()
    index.spec.bin_range(bin_idx)  # rejects an out-of-range bin
    fold = _RetainFold(index.spec)
    full_summaries = _fold_range(
        snapshot, source_id, index, t_start, t_end, True, True, stats, None, fold,
    )
    values: List[float] = _collect_bin(
        snapshot, source_id, index, t_start, t_end, bin_idx,
        fold, full_summaries, stats, None,
    ).tolist()
    return values
