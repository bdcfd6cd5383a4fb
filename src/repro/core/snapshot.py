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
from .chunk_index import STATE_RETIRED
from .errors import AddressError
from .hybridlog import NULL_ADDRESS
from .record import Record
from .record_log import RecordLog, RegionColumns
from .summary import ChunkSummary

if TYPE_CHECKING:  # typing-only import; avoids a cycle with operators
    from .operators import QueryStats


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

    def region_columns(  # loomflow: borrows=snapshot
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

    def all_summaries(self) -> Iterator[ChunkSummary]:
        """All pinned, non-retired summaries in chunk order."""
        for i in range(self.n_chunks):
            if self.record_log.chunk_index.state_at(i) == STATE_RETIRED:
                continue
            yield self.record_log.chunk_index.get(i)

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

    def chunk_id_window(self, t_start: int, t_end: int) -> Optional[Tuple[int, int]]:
        return self.record_log.timestamp_index.chunk_id_window(t_start, t_end)
