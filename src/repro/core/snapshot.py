"""Query snapshots: Loom's linearization point (paper sections 4.4–4.5).

A query never coordinates with the writer.  Instead it begins by taking a
:class:`Snapshot` — a cheap, lock-free capture of:

* the record log's high **watermark** (exclusive address bound of
  queryable data);
* the number of finalized **chunk summaries** whose data lies entirely
  below that watermark (under-construction and not-yet-published summaries
  are invisible, per section 4.2);
* each source's published **chain head** (most recent queryable record).

All data that arrived before the snapshot is included in the query's view;
data arriving afterwards is not — this is the consistency guarantee of
section 4.5.  Reading record bytes through a snapshot goes through the
hybrid log's seqlock read path, so a block recycled mid-read transparently
falls back to persistent storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

from . import yieldpoints
from .errors import AddressError
from .hybridlog import NULL_ADDRESS
from .record import Record
from .record_log import RecordLog, RegionColumns
from .summary import ChunkSummary, SourceChunkInfo

if TYPE_CHECKING:  # typing-only import; avoids a cycle with operators
    from .operators import QueryStats

#: A chain walk decodes a chunk as columns when the source owns at least
#: one in this many of its records (see :meth:`Snapshot.dense_region`).
#: On a persisted log of 64 B payloads over four sources (2-vCPU Xeon,
#: CPython 3.11) a pointer read costs ~3.8 us and a column decode ~0.05 us
#: per record of any source, so decoding breaks even near one in 80;
#: one in 32 takes the decode only where it wins by at least ~2x.
DENSE_ONE_IN = 32
#: Most bytes one region step of a chain walk decodes at once.
MAX_RUN_BYTES = 1 << 20


@dataclass
class Snapshot:
    """An immutable view of a :class:`RecordLog` for one query."""

    record_log: RecordLog
    watermark: int
    n_chunks: int
    heads: Dict[int, int]
    created_at: int

    @classmethod
    def capture(cls, record_log: RecordLog) -> "Snapshot":
        """Take a snapshot (the linearization point of the query)."""
        watermark = record_log.log.watermark
        if yieldpoints.active:
            # Acquire edge for the happens-before model: a snapshot's view
            # is bounded by the watermark it loaded here.
            yieldpoints.note(
                "snapshot.capture", log=record_log.log, watermark=watermark
            )
        # Pin only summaries whose records are fully below the watermark;
        # a summary can reach the mirror an instant before the watermark
        # publication that covers it.  One bisection over the sorted
        # end-address mirror finds the count.
        n = record_log.chunk_index.count_covered(watermark)
        heads = {
            sid: record_log.get_source(sid).published_head
            for sid in record_log.source_ids()
        }
        return cls(
            record_log=record_log,
            watermark=watermark,
            n_chunks=n,
            heads=heads,
            created_at=record_log.clock.now(),
        )

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def read_record(
        self, address: int, stats: "Optional[QueryStats]" = None
    ) -> Record:
        """Read one record; it must start below the snapshot watermark."""
        return self.record_log.read_record(address, stats=stats)

    def chain_head(self, source_id: int) -> int:
        """Most recent queryable record address of a source (or NULL)."""
        return self.heads.get(source_id, NULL_ADDRESS)

    def iter_chain(
        self,
        source_id: int,
        start: Optional[int] = None,
        stats: "Optional[QueryStats]" = None,
    ) -> Iterator[Record]:
        """Walk a source's back-pointer chain, newest to oldest.

        ``start`` overrides the chain head (e.g. a timestamp-index hint);
        addresses at or above the watermark are skipped by walking past
        them until the chain dips below the watermark.  The walk ends at
        the retention floor: records retired by a retention pass are no
        longer materializable, so the chain's older tail is invisible.
        """
        address = self.chain_head(source_id) if start is None else start
        floor = self.record_log.retention_floor
        while address != NULL_ADDRESS and address >= self.watermark:
            # The hinted record is too new for this snapshot; records are
            # appended in address order so following the chain moves below
            # the watermark.
            record = self.record_log.read_record(address, stats=stats)
            address = record.prev_addr
        while address != NULL_ADDRESS:
            if address < floor:
                # The chain continues into retired history: the caller
                # drove the walk past the oldest materializable record,
                # so the answer is missing dropped records.
                if stats is not None:
                    stats.degraded = True
                break
            try:
                record = self.record_log.read_record(address, stats=stats)
            except AddressError:
                if address < self.record_log.retention_floor:
                    if stats is not None:
                        stats.degraded = True
                    break  # retention advanced under the walk
                raise
            yield record
            address = record.prev_addr

    def region_columns(
        self,
        start: int,
        end: int,
        stats: "Optional[QueryStats]" = None,
    ) -> "Optional[RegionColumns]":
        """Columnar decode of ``[start, min(end, watermark))``.

        Returns ``None`` when the region is empty.
        """
        end = min(end, self.watermark)
        if start >= end:
            return None
        return self.record_log.region_columns(start, end, stats=stats)

    # ------------------------------------------------------------------
    # Index access (bounded by the pinned chunk count)
    # ------------------------------------------------------------------
    def summaries_in_time_range(self, t_start: int, t_end: int) -> Iterator[ChunkSummary]:
        return self.record_log.chunk_index.summaries_in_time_range(
            t_start, t_end, limit=self.n_chunks
        )

    def dense_region(
        self, source_id: int, address: int, t_start: int
    ) -> Optional[Tuple[int, int]]:
        """Where a chain walk standing at ``address`` should decode a whole
        region in place of following back-pointers: ``(start, end)``, or
        ``None`` where the pointer walk is the cheaper way through.

        The resident chunk summary decides: a pointer read costs more
        than :data:`DENSE_ONE_IN` times a record's share of a column
        decode, so a chunk is decoded when the source owns at least that
        share of its records.  Earlier chunks join the region while they
        are adjacent, scannable, dense too and still reach ``t_start``, up
        to :data:`MAX_RUN_BYTES`.  The active region has no summary yet
        and is at most a chunk or so: it is always decoded.
        """
        log = self.record_log
        active_start, active_end = self.active_region()
        if address >= active_start:
            return active_start, active_end
        chunk_id = address // log.chunk_size
        info = self._dense_info(source_id, chunk_id)
        if info is None or address < log.retention_floor:
            return None
        start, end = info[0].start_addr, info[0].end_addr
        while end - start < MAX_RUN_BYTES:
            chunk_id -= 1
            info = self._dense_info(source_id, chunk_id)
            if (
                info is None
                or info[0].end_addr != start
                or info[1].t_max < t_start
                or not log.chunk_index.is_scannable(chunk_id)
            ):
                break
            start = info[0].start_addr
        return start, end

    def _dense_info(
        self, source_id: int, chunk_id: int
    ) -> "Optional[Tuple[ChunkSummary, SourceChunkInfo]]":
        """The pinned summary of ``chunk_id`` and the source's entry in it,
        if the source is dense there."""
        summary = self.record_log.chunk_index.summary_for_chunk(chunk_id, self.n_chunks)
        if summary is None:
            return None
        info = summary.source_info(source_id)
        if info is None or info.record_count * DENSE_ONE_IN < summary.record_count:
            return None
        return summary, info

    def active_region(self) -> Tuple[int, int]:
        """Address range ``[start, end)`` of queryable but unsummarized data.

        This is the "few megabytes of unindexed, in-memory data" the paper
        accepts scanning in exchange for coordination-free ingest.
        """
        start = self.record_log.active_region_start(self.n_chunks)
        return start, self.watermark

    def first_record_after(
        self, source_id: int, timestamp: int
    ) -> Optional[Tuple[int, int]]:
        """Timestamp-index seek hint, filtered to this snapshot's view.

        Hits below the retention floor point at retired records; they are
        dropped so callers fall back to the chain walk (which itself
        stops at the floor).
        """
        hit = self.record_log.timestamp_index.first_record_after(source_id, timestamp)
        if (
            hit is not None
            and hit[1] < self.watermark
            and hit[1] >= self.record_log.retention_floor
        ):
            return hit
        return None
