"""The record log and Loom's write path (paper sections 4.2, 5.4).

The record log is the bottom layer of Loom's storage hierarchy: a hybrid
log holding every raw record from every source, interleaved in arrival
order.  Records from one source are threaded into a back-pointer chain.
The log is divided into fixed-size *chunks* — the units of sparse indexing.

This module implements the carefully ordered write path of paper
section 5.4.  For each pushed record, the writer:

1. takes an internal timestamp (monotonic arrival time);
2. appends the framed record to the record log;
3. if the record starts a new chunk, finalizes the previous chunk's
   summary, appends it to the chunk index, and writes a CHUNK entry to the
   timestamp index;
4. updates the *active* chunk summary (per-source info plus one histogram
   bin update per index defined on the source) — the active summary is
   never visible to queries;
5. periodically writes a RECORD entry to the timestamp index;
6. publishes the new high watermarks of the record log, chunk index, and
   timestamp index, in that order.

Step 6's ordering is what makes the lock-free read path safe: any index
entry a reader can see refers only to record-log bytes already below the
record log's watermark.
"""

from __future__ import annotations

import os
import struct
from binascii import crc32
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import viewguard
from .archive import (
    ArchiveLog,
    ChunkMigrator,
    MigrationReport,
    RetentionReport,
    encode_region,
)
from .chunk_index import ChunkIndex
from .clock import Clock, MonotonicClock, VirtualClock
from .config import LoomConfig, TierConfig
from .errors import (
    AddressError,
    ClosedError,
    CorruptionError,
    LoomError,
    UnknownIndexError,
    UnknownSourceError,
)
from .histogram import HistogramSpec, IndexDefinition, IndexFunc
from .hybridlog import Health, HybridLog, NULL_ADDRESS
from .metrics import Counter, Gauge, Histogram, LogScope, MetricsRegistry, PhaseTimer
from .record import (
    BODY_DTYPE,
    BODY_SIZE,
    HEADER_SIZE,
    Record,
    decode_header,
    decode_header_crc,
    encode_batch_arrays,
    encode_record,
    record_crc,
    verify_record_bytes,
)
from .storage import open_storage
from .summary import ChunkSummary
from .timestamp_index import KIND_CHUNK, TimestampIndex

if TYPE_CHECKING:  # typing-only imports; avoid cycles with operators/recovery
    from .operators import QueryStats
    from .recovery import RecoveredState

#: A u32 record-header field: the source id at offset 0, or the length
#: at offset 20 (sid u32 + ts u64 + prev u64 precede it); the region
#: offset walk reads lengths without decoding whole headers.
_U32 = struct.Struct("<I")

#: The per-record header columns of :class:`RegionColumns`, in field order.
_ROW_COLUMNS = ("source_ids", "timestamps", "prev_addrs", "lengths")


@dataclass
class RegionColumns:
    """Decoded header columns for one contiguous record-log region.

    The columnar read-side counterpart of ``encode_batch_arrays``: every
    record in the region as parallel numpy vectors, with payload ``i`` at
    ``buffer[payload_starts[i] : payload_starts[i] + lengths[i]]``.  On
    the hot tier ``buffer`` is the region itself, headers included (a
    zero-copy storage view when the mmap read tier served it); on the
    cold tier it is the archive frame's owned payload blob.  Operators
    filter on the columns and touch Python per record only for survivors.
    """

    start: int
    source_ids: np.ndarray
    timestamps: np.ndarray
    prev_addrs: np.ndarray
    lengths: np.ndarray
    #: Address of each record relative to ``start``.
    offsets: np.ndarray
    #: Byte offset of each record's payload within ``buffer``.
    payload_starts: np.ndarray
    buffer: "bytes | memoryview"

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def addresses(self) -> np.ndarray:
        """Logical record-log address of each record."""
        return self.offsets + self.start

    @property
    def extent(self) -> int:
        """Bytes from ``start`` to the end of the last record."""
        if not len(self):
            return 0
        return int(self.offsets[-1]) + HEADER_SIZE + int(self.lengths[-1])

    def payload_view(self, i: int) -> "bytes | memoryview":
        """Record ``i``'s payload, sliced in place from the region buffer."""
        off = int(self.payload_starts[i])
        return self.buffer[off : off + int(self.lengths[i])]

    def between(self, start: int, end: int) -> "RegionColumns":
        """The records at addresses in ``[start, end)``, over the same
        buffer (no row when ``start`` is not a record boundary)."""
        lo, hi = np.searchsorted(self.offsets, (start - self.start, end - self.start))
        if lo == 0 and hi == len(self) and start == self.start:
            return self
        rows = slice(lo, hi)
        return RegionColumns(
            start, self.source_ids[rows], self.timestamps[rows], self.prev_addrs[rows],
            self.lengths[rows], self.offsets[rows] - (start - self.start),
            self.payload_starts[rows], self.buffer,
        )

    @classmethod
    def concat(cls, parts: Sequence["RegionColumns"]) -> "RegionColumns":
        """Adjacent regions as one, over one owned copy of their buffers."""
        if len(parts) == 1:
            return parts[0]
        buffers = [viewguard.unwrap(part.buffer) for part in parts]
        bases = np.cumsum([0] + [len(b) for b in buffers[:-1]]).tolist()
        start = parts[0].start
        return cls(
            start,
            *(np.concatenate([getattr(p, name) for p in parts]) for name in _ROW_COLUMNS),
            np.concatenate([p.offsets + (p.start - start) for p in parts]),
            np.concatenate([p.payload_starts + base for p, base in zip(parts, bases)]),
            b"".join(buffers),
        )

    def batch(self, source_id: int, rows: np.ndarray) -> "RecordBatch":
        """The records at ``rows`` as an owned batch, in ``rows`` order.

        This is where a scan stops borrowing: the payloads are copied out
        of the region buffer once, so the batch survives the region being
        truncated, recycled by a migration pass or evicted from the
        archive cache.
        """
        raw = np.frombuffer(viewguard.unwrap(self.buffer), np.uint8)
        bounds, blob = gather_payloads(
            raw, self.payload_starts[rows], self.lengths[rows]
        )
        return RecordBatch(
            source_id=source_id,
            timestamps=self.timestamps[rows],
            addresses=self.offsets[rows] + self.start,
            prev_addrs=self.prev_addrs[rows],
            bounds=bounds,
            blob=blob,
        )


def gather_payloads(
    raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, bytes]:
    """Copy ``raw[starts[i] : starts[i] + lengths[i]]`` for every ``i`` into
    one owned blob; returns ``(bounds, blob)`` with payload ``i`` at
    ``blob[bounds[i] : bounds[i + 1]]``.

    Equal lengths (telemetry records are fixed-size per source) are one
    row gather over a sliding window of the buffer; mixed lengths build
    the byte index with a repeat.
    """
    n = len(starts)
    bounds = np.zeros(n + 1, np.int64)
    np.cumsum(lengths, out=bounds[1:])
    total = int(bounds[-1])
    if total == 0:
        return bounds, b""
    width = total // n
    if bool((lengths == width).all()):
        return bounds, sliding_window_view(raw, width)[starts].tobytes()
    index = np.repeat(starts - bounds[:-1], lengths) + np.arange(total)
    return bounds, raw[index].tobytes()


def decode_region(
    buffer: "bytes | memoryview", start: int, verify: bool = False
) -> RegionColumns:
    """Decode the record headers in ``buffer``, whose first byte is the
    record at address ``start``, into columns over ``buffer``.

    Queries, migration and recovery all read stored records through this
    one decoder.  Its rows are the whole records the buffer holds: a torn
    tail is simply not a row (compare :attr:`RegionColumns.extent` with
    the bytes read to see one).  For fixed-size records the header
    offsets are one ``arange`` and one strided copy takes every header;
    otherwise a Python walk over the length fields finds them.  With
    ``verify`` each row is then CRC-checked in address order, raising
    :class:`CorruptionError` at the first bad address.
    """
    # C-level consumers (frombuffer, struct) need the raw buffer; the
    # unwrap checks the view was not poisoned before decoding starts.
    raw_buffer = viewguard.unwrap(buffer)
    size = len(raw_buffer)
    raw = np.frombuffer(raw_buffer, np.uint8)
    unpack_u32 = _U32.unpack_from
    headers: Optional[np.ndarray] = None
    if size >= HEADER_SIZE:
        first_len = unpack_u32(raw_buffer, 20)[0]
        stride = HEADER_SIZE + first_len
        if size % stride == 0:
            # Fixed-size fast path, validated inductively: offset 0 is a
            # header; if its length is ``first_len`` the next header is at
            # ``stride``; requiring every candidate's length field to
            # equal ``first_len`` proves every candidate is a real header.
            # The candidates are the rows of the region seen as a
            # ``stride``-wide table, so one strided copy takes them all.
            table = np.ascontiguousarray(raw.reshape(-1, stride)[:, :BODY_SIZE])
            if bool((table.view(BODY_DTYPE)["len"] == first_len).all()):
                headers = table
                offsets = np.arange(0, size, stride, dtype=np.int64)
    if headers is None:
        offs: List[int] = []
        pos = 0
        while pos + HEADER_SIZE <= size:
            length = unpack_u32(raw_buffer, pos + 20)[0]
            if pos + HEADER_SIZE + length > size:
                break
            offs.append(pos)
            pos += HEADER_SIZE + length
        offsets = np.array(offs, dtype=np.int64)
        headers = raw[(offsets[:, None] + np.arange(BODY_SIZE)).ravel()].reshape(-1, BODY_SIZE)
    if verify:
        # A damaged length field fails its own record's CRC, so rows the
        # walk found past it are never the ones reported.
        view = memoryview(raw_buffer)
        crcs = raw[(offsets[:, None] + np.arange(BODY_SIZE, HEADER_SIZE)).ravel()].view("<u4")
        lengths = headers.view(BODY_DTYPE)["len"].ravel()
        for pos, length, stored in zip(offsets.tolist(), lengths.tolist(), crcs.tolist()):
            body_crc = crc32(view[pos : pos + BODY_SIZE])
            if crc32(view[pos + HEADER_SIZE : pos + HEADER_SIZE + length], body_crc) != stored:
                raise CorruptionError(
                    f"record at address {start + pos} fails its CRC "
                    f"(source_id={unpack_u32(raw_buffer, pos)[0]}, length={length})",
                    address=start + pos,
                )
    # The column arrays are handed to callers: freeze them (before
    # taking the struct view, so the view inherits read-onlyness) so
    # nobody can mutate what look like private scratch arrays.
    payload_starts = offsets + HEADER_SIZE
    for frozen in (headers, offsets, payload_starts):
        frozen.flags.writeable = False
    bodies = headers.view(BODY_DTYPE).ravel()
    return RegionColumns(
        start, *(bodies[name] for name in BODY_DTYPE.names), offsets, payload_starts, buffer
    )


@dataclass
class RecordBatch:
    """Rows of one source that survived a scan's predicates, as columns.

    The unit of the read path: operators filter, fold and serialise
    batches, and a :class:`~repro.core.record.Record` exists only when a
    caller asks for one.  Everything here is owned: the payloads were
    copied out of the scanned region into ``blob`` once.
    """

    source_id: int
    timestamps: np.ndarray
    addresses: np.ndarray
    prev_addrs: np.ndarray
    #: Payload ``i`` is ``blob[bounds[i] : bounds[i + 1]]``.
    bounds: np.ndarray
    blob: bytes

    @classmethod
    def from_records(cls, source_id: int, records: Sequence[Record]) -> "RecordBatch":
        """Batch form of records decoded one at a time (the pointer walk)."""
        bounds = np.zeros(len(records) + 1, np.int64)
        np.cumsum([len(r.payload) for r in records], out=bounds[1:])
        return cls(
            source_id=source_id,
            timestamps=np.array([r.timestamp for r in records], np.uint64),
            addresses=np.array([r.address for r in records], np.uint64),
            prev_addrs=np.array([r.prev_addr for r in records], np.uint64),
            bounds=bounds,
            blob=b"".join(bytes(r.payload) for r in records),
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def payloads(self) -> List[bytes]:
        """Every payload, in row order."""
        blob = self.blob
        bounds = self.bounds.tolist()
        return [blob[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def record(self, i: int) -> Record:
        return Record(
            source_id=self.source_id,
            timestamp=int(self.timestamps[i]),
            prev_addr=int(self.prev_addrs[i]),
            payload=self.blob[int(self.bounds[i]) : int(self.bounds[i + 1])],
            address=int(self.addresses[i]),
        )

    def __iter__(self) -> Iterator[Record]:
        source_id = self.source_id
        for timestamp, prev_addr, payload, address in zip(
            self.timestamps.tolist(),
            self.prev_addrs.tolist(),
            self.payloads(),
            self.addresses.tolist(),
        ):
            yield Record(source_id, timestamp, prev_addr, payload, address)

    def take(self, rows: np.ndarray) -> "RecordBatch":
        """The rows selected by an index or boolean array, in that order."""
        starts = self.bounds[:-1][rows]
        bounds, blob = gather_payloads(
            np.frombuffer(self.blob, np.uint8), starts, self.bounds[1:][rows] - starts
        )
        return RecordBatch(
            source_id=self.source_id,
            timestamps=self.timestamps[rows],
            addresses=self.addresses[rows],
            prev_addrs=self.prev_addrs[rows],
            bounds=bounds,
            blob=blob,
        )


@dataclass
class SourceState:
    """Writer-side state for one defined source."""

    source_id: int
    #: Address of the most recent record (chain head), NULL if none yet.
    last_addr: int = NULL_ADDRESS
    #: Chain head as of the last watermark publication; what readers use.
    published_head: int = NULL_ADDRESS
    record_count: int = 0
    bytes_ingested: int = 0
    first_timestamp: int = 0
    last_timestamp: int = 0
    closed: bool = False
    #: Indexes currently active on this source.
    index_ids: List[int] = field(default_factory=list)


class RecordLog:
    """The record log plus both index logs, driven by one writer.

    This class owns all three hybrid logs and the schema state (sources and
    indexes).  :class:`repro.core.loom.Loom` wraps it with the public API
    of paper Figure 9.
    """

    def __init__(
        self,
        config: Optional[LoomConfig] = None,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or LoomConfig()
        self.clock = clock or MonotonicClock()
        cfg = self.config

        # The loomscope registry always exists (introspection surfaces
        # rely on it); cfg.metrics_enabled gates only the hot-path
        # instrumentation, so the benchmark's ``metrics.overhead_pct``
        # compares the instrumented and uninstrumented write paths on the
        # same build.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        instrumented = cfg.metrics_enabled

        def _scope(log_name: str) -> Optional[LogScope]:
            if not instrumented:
                return None
            return LogScope(self.metrics, log_name)

        self.log = HybridLog(
            storage=open_storage(cfg.record_log_path()),
            block_size=cfg.record_block_size,
            threaded_flush=cfg.threaded_flush,
            frame_journal=open_storage(cfg.record_log_journal_path()),
            flush_retries=cfg.flush_retries,
            flush_backoff=cfg.flush_backoff,
            scope=_scope("record"),
        )
        self.chunk_index = ChunkIndex(
            storage=open_storage(cfg.chunk_index_path()),
            block_size=cfg.index_block_size,
            threaded_flush=cfg.threaded_flush,
            frame_journal=open_storage(cfg.chunk_index_journal_path()),
            flush_retries=cfg.flush_retries,
            flush_backoff=cfg.flush_backoff,
            scope=_scope("chunk_index"),
        )
        self.timestamp_index = TimestampIndex(
            storage=open_storage(cfg.timestamp_index_path()),
            block_size=cfg.timestamp_block_size,
            record_interval=cfg.timestamp_interval,
            threaded_flush=cfg.threaded_flush,
            frame_journal=open_storage(cfg.timestamp_index_journal_path()),
            flush_retries=cfg.flush_retries,
            flush_backoff=cfg.flush_backoff,
            scope=_scope("timestamp_index"),
        )
        self.chunk_size = cfg.chunk_size
        self._sources: Dict[int, SourceState] = {}
        self._indexes: Dict[int, IndexDefinition] = {}
        self._next_index_id = 1
        self._active_summary = ChunkSummary(chunk_id=0, start_addr=0, end_addr=0)
        self._records_since_publish = 0
        self._closed = False
        self.total_records = 0
        #: Speculative read size (header + typical payload); configurable
        #: so deployments with larger records keep single-read decodes.
        self._inline_read = cfg.inline_read_size
        #: CRC-check records as they are decoded from the log.
        self._verify_on_read = cfg.verify_on_read

        # Ingest instruments, held as direct references so the hot path
        # never does a registry lookup.  All of these are written only
        # by the single writer thread (exact, not advisory).  ``None``
        # when metrics are disabled; the push paths branch once.
        self._m_records: Optional[Counter] = None
        self._m_bytes: Optional[Counter] = None
        self._m_batches: Optional[Counter] = None
        self._m_batch_latency: Optional[Histogram] = None
        self._m_encode_phase: Optional[PhaseTimer] = None
        self._m_publishes: Optional[Counter] = None
        self._m_chunks: Optional[Counter] = None
        if instrumented:
            m = self.metrics
            self._m_records = m.counter(
                "loom.ingest.records_total", "records ingested (push + batches)"
            )
            self._m_bytes = m.counter(
                "loom.ingest.bytes_total", "payload bytes ingested"
            )
            self._m_batches = m.counter(
                "loom.ingest.batches_total", "push_many batches ingested"
            )
            self._m_batch_latency = m.histogram(
                "loom.ingest.batch_latency_ns",
                help="wall time of one push_many batch",
                sample_window=256,
            )
            # One reusable PhaseTimer: the encode+append phase of the most
            # recent batch lands in a single gauge, not per-record samples.
            self._m_encode_phase = m.phase("loom.ingest.batch_encode_ns")
            self._m_publishes = m.counter(
                "loom.publish.total", "watermark publications"
            )
            self._m_chunks = m.counter(
                "loom.chunks.finalized_total", "chunk summaries finalized"
            )

        # ---- cold tier -----------------------------------------------
        # Built when a tier policy is configured or an archive log
        # already exists on disk: reopening a previously tiered instance
        # keeps its cold data readable even without a tier in the config
        # (migration then stays manual).
        self._cold_boundary = 0
        self._retention_floor = 0
        self.archive: Optional[ArchiveLog] = None
        self.migrator: Optional[ChunkMigrator] = None
        self._auto_migrate = False
        #: The corruption that stopped auto-migration, if any.
        self.migration_error: Optional[CorruptionError] = None
        self._m_migration_errors: Optional[Counter] = None
        self._m_migrations: Optional[Counter] = None
        self._m_migrated_chunks: Optional[Counter] = None
        self._m_migrated_raw: Optional[Counter] = None
        self._m_migrated_compressed: Optional[Counter] = None
        self._g_compression: Optional[Gauge] = None
        self._m_cold_read_ns: Optional[Histogram] = None
        self._m_retired_chunks: Optional[Counter] = None
        archive_path = cfg.archive_log_path()
        if cfg.tier is not None or (
            archive_path is not None and os.path.exists(archive_path)
        ):
            tier = cfg.tier if cfg.tier is not None else TierConfig(auto_migrate=False)
            decompress_counter: Optional[Counter] = None
            if instrumented:
                m = self.metrics
                self._m_migrations = m.counter(
                    "loom.archive.migrations_total", "migration passes committed"
                )
                self._m_migration_errors = m.counter(
                    "loom.archive.migration_errors_total",
                    "auto-migration passes that found a damaged hot record",
                )
                self._m_migrated_chunks = m.counter(
                    "loom.archive.chunks_migrated_total",
                    "chunks compacted into the cold tier",
                )
                self._m_migrated_raw = m.counter(
                    "loom.archive.bytes_raw_total",
                    "raw record bytes migrated to the archive",
                )
                self._m_migrated_compressed = m.counter(
                    "loom.archive.bytes_compressed_total",
                    "compressed bytes written to the archive",
                )
                self._g_compression = m.gauge(
                    "loom.archive.compression_ratio",
                    "raw/compressed ratio of the archive log",
                )
                self._m_cold_read_ns = m.histogram(
                    "loom.archive.cold_read_ns",
                    help="latency of cold-range materializations",
                    sample_window=256,
                )
                self._m_retired_chunks = m.counter(
                    "loom.retention.chunks_dropped_total",
                    "chunks fully retired by retention",
                )
                decompress_counter = m.counter(
                    "loom.archive.decompressions_total",
                    "archive chunk decompressions (cache misses)",
                )
            self.archive = ArchiveLog.open(
                open_storage(archive_path),
                open_storage(cfg.archive_journal_path()),
                decompress_counter=decompress_counter,
            )
            self._cold_boundary = self.archive.recycled_upto
            self._retention_floor = self.archive.retention_floor
            storage = self.log.storage
            if self._cold_boundary > 0:
                # The archived prefix is cold-authoritative from the first
                # read: arm the storage boundary so stale addresses below
                # it raise instead of serving possibly-reclaimed bytes.
                storage.recycle_prefix(
                    min(self._cold_boundary, storage.size),
                    "archived prefix restored at reopen",
                )
            self.migrator = ChunkMigrator(self, tier)
            self._auto_migrate = tier.auto_migrate

    # ------------------------------------------------------------------
    # Schema operations
    # ------------------------------------------------------------------
    def define_source(self, source_id: int) -> SourceState:
        """Register a new source id (paper API ``define_source``)."""
        if self._closed:
            raise ClosedError("record log is closed")
        existing = self._sources.get(source_id)
        if existing is not None and not existing.closed:
            raise ValueError(f"source {source_id} already defined")
        if existing is not None:
            # Reopening a closed source resumes its chain.  Its indexes
            # were deactivated by close_source and must not come back:
            # drop any id no longer registered so a stale ``index_ids``
            # entry cannot resurrect a closed index.
            existing.index_ids = [
                index_id for index_id in existing.index_ids if index_id in self._indexes
            ]
            existing.closed = False
            return existing
        state = SourceState(source_id=source_id)
        self._sources[source_id] = state
        return state

    def close_source(self, source_id: int) -> None:
        """Stop accepting records for a source; its data stays queryable."""
        state = self._sources.get(source_id)
        if state is None:
            raise UnknownSourceError(source_id)
        state.closed = True
        for index_id in list(state.index_ids):
            self.close_index(index_id)
        # close_index removed each id above; clear defensively so a later
        # define_source reopen always starts with no active indexes.
        state.index_ids.clear()

    def define_index(
        self, source_id: int, index_func: IndexFunc, spec: HistogramSpec
    ) -> int:
        """Register a histogram index on a source; returns its index id.

        Indexing starts with the *next* record pushed: older data is not
        re-indexed (paper section 5.3), so the new index accelerates only
        queries over data that arrives after this call.
        """
        state = self._sources.get(source_id)
        if state is None or state.closed:
            raise UnknownSourceError(source_id)
        index_id = self._next_index_id
        self._next_index_id += 1
        definition = IndexDefinition(
            index_id=index_id, source_id=source_id, index_func=index_func, spec=spec
        )
        self._indexes[index_id] = definition
        state.index_ids.append(index_id)
        return index_id

    def close_index(self, index_id: int) -> None:
        """Deactivate an index.  Existing summaries keep its bins; new
        chunks stop recording them.  Queries may no longer use the id."""
        definition = self._indexes.pop(index_id, None)
        if definition is None:
            raise UnknownIndexError(index_id)
        state = self._sources.get(definition.source_id)
        if state is not None and index_id in state.index_ids:
            state.index_ids.remove(index_id)

    def get_index(self, index_id: int) -> IndexDefinition:
        definition = self._indexes.get(index_id)
        if definition is None:
            raise UnknownIndexError(index_id)
        return definition

    def get_source(self, source_id: int) -> SourceState:
        state = self._sources.get(source_id)
        if state is None:
            raise UnknownSourceError(source_id)
        return state

    def source_ids(self) -> List[int]:
        return list(self._sources.keys())

    # ------------------------------------------------------------------
    # Ingest (single writer thread)
    # ------------------------------------------------------------------
    def push(self, source_id: int, payload: bytes) -> int:
        """Ingest one record; returns its record-log address.

        This is the paper's ``push(source_id, bytes)`` and implements the
        full section 5.4 write path described in the module docstring.
        """
        if self._closed:
            raise ClosedError("record log is closed")
        state = self._sources.get(source_id)
        if state is None or state.closed:
            raise UnknownSourceError(source_id)

        timestamp = self.clock.now()
        framed = encode_record(source_id, timestamp, state.last_addr, payload)
        address = self.log.append(framed)

        chunk_id = address // self.chunk_size
        if chunk_id > self._active_summary.chunk_id:
            self._finalize_active_chunk(timestamp, chunk_id, address)

        summary = self._active_summary
        summary.add_record(source_id, timestamp, address)
        for index_id in state.index_ids:
            definition = self._indexes[index_id]
            value = definition.index_func(payload)
            summary.add_indexed_value(
                source_id, index_id, definition.spec.bin_of(value), value, timestamp
            )

        self.timestamp_index.maybe_note_record(source_id, timestamp, address)

        state.last_addr = address
        state.record_count += 1
        state.bytes_ingested += len(payload)
        if state.record_count == 1:
            state.first_timestamp = timestamp
        state.last_timestamp = timestamp
        self.total_records += 1
        if self._m_records is not None and self._m_bytes is not None:
            self._m_records.inc()
            self._m_bytes.inc(len(payload))

        self._records_since_publish += 1
        if self._records_since_publish >= self.config.publish_interval:
            self._publish()
        return address

    def push_many(self, source_id: int, payloads: Sequence[bytes]) -> List[int]:
        """Ingest a batch of records for one source; returns their addresses.

        Semantically equivalent to ``[push(source_id, p) for p in payloads]``
        except that the whole batch shares one arrival timestamp (a single
        clock read), producing byte-identical log contents, chain
        back-pointers, chunk summaries, and timestamp-index entries as the
        per-record loop would under a frozen clock.  The costs the loop
        pays per record — framing allocation, bounds-checked append, chunk
        boundary check, summary dict lookups, timestamp-index interval
        check, watermark publication — are paid once per batch (or once
        per occupied chunk for the summary work), which is where the
        batched path's throughput advantage comes from.

        The section 5.4 ordering invariant is preserved: all record bytes
        land in the record log before any index entry describing them, and
        publication (step 6) still happens after all bookkeeping, so a
        reader can never observe an index entry pointing above the record
        log's watermark.
        """
        if self._closed:
            raise ClosedError("record log is closed")
        state = self._sources.get(source_id)
        if state is None or state.closed:
            raise UnknownSourceError(source_id)
        n = len(payloads)
        if n == 0:
            return []
        batch_latency = self._m_batch_latency
        batch_started = (
            self.metrics.clock.now() if batch_latency is not None else 0
        )

        timestamp = self.clock.now()
        base = self.log.tail_address
        encode_phase = self._m_encode_phase
        if encode_phase is not None:
            with encode_phase:
                buffer, addrs_arr = encode_batch_arrays(
                    source_id, timestamp, state.last_addr, payloads, base
                )
                self.log.append_many(buffer, count=n)
        else:
            buffer, addrs_arr = encode_batch_arrays(
                source_id, timestamp, state.last_addr, payloads, base
            )
            self.log.append_many(buffer, count=n)
        addresses = addrs_arr.tolist()

        # Columnar index maintenance: every UDF is evaluated once over the
        # whole batch, bins are assigned with one searchsorted per index,
        # and the fold into the active summary is vectorized per segment.
        # The UDF itself stays a per-payload Python call (it is arbitrary
        # user code over raw bytes); everything downstream of it is columns.
        index_defs = [self._indexes[index_id] for index_id in state.index_ids]
        index_columns: List[Tuple[IndexDefinition, np.ndarray, np.ndarray]] = []
        for definition in index_defs:
            func = definition.index_func
            values = np.fromiter((func(p) for p in payloads), np.float64, n)
            index_columns.append(
                (definition, definition.spec.bins_of(values), values)
            )

        # Segment the batch at chunk boundaries: a batch may span chunks,
        # and the per-record path finalizes the active chunk the moment a
        # record lands in a new one.  Splitting at those boundaries
        # reproduces the exact same CHUNK-entry-before-RECORD-entries
        # ordering in the timestamp-index log.  Boundaries fall where the
        # chunk-id column steps, found with one vectorized diff.
        chunk_ids = addrs_arr // self.chunk_size
        seg_starts = [0]
        if chunk_ids[0] != chunk_ids[-1]:
            seg_starts += (np.flatnonzero(np.diff(chunk_ids)) + 1).tolist()
        for i, seg_start in enumerate(seg_starts):
            seg_end = seg_starts[i + 1] if i + 1 < len(seg_starts) else n
            seg_chunk = int(chunk_ids[seg_start])
            if seg_chunk > self._active_summary.chunk_id:
                self._finalize_active_chunk(timestamp, seg_chunk, addresses[seg_start])
            seg_addresses = addresses[seg_start:seg_end]
            summary = self._active_summary
            summary.add_records(source_id, timestamp, seg_addresses)
            for definition, bins, values in index_columns:
                summary.add_indexed_values_array(
                    source_id,
                    definition.index_id,
                    bins[seg_start:seg_end],
                    values[seg_start:seg_end],
                    timestamp,
                )
            self.timestamp_index.note_records(
                source_id, timestamp, addrs_arr[seg_start:seg_end]
            )

        state.last_addr = addresses[-1]
        if state.record_count == 0:
            state.first_timestamp = timestamp
        state.record_count += n
        state.bytes_ingested += len(buffer) - n * HEADER_SIZE
        state.last_timestamp = timestamp
        self.total_records += n
        if self._m_records is not None and self._m_bytes is not None:
            # Per-batch instrumentation: a handful of adds amortized
            # over the whole batch, which is what keeps the instrumented
            # path within the ``metrics.overhead_pct`` budget.
            self._m_records.inc(n)
            self._m_bytes.inc(len(buffer) - n * HEADER_SIZE)
            if self._m_batches is not None:
                self._m_batches.inc()

        self._records_since_publish += n
        if self._records_since_publish >= self.config.publish_interval:
            self._publish()
        if batch_latency is not None:
            batch_latency.observe(float(self.metrics.clock.now() - batch_started))
        return addresses

    def _finalize_active_chunk(
        self, timestamp: int, new_chunk_id: int, new_record_addr: int
    ) -> None:
        """Seal the active chunk summary and open one for ``new_chunk_id``."""
        summary = self._active_summary
        summary.end_addr = new_record_addr
        self._active_summary = ChunkSummary(
            chunk_id=new_chunk_id, start_addr=new_record_addr, end_addr=new_record_addr
        )
        if summary.record_count == 0:
            return
        self.chunk_index.append(summary)
        self.timestamp_index.note_chunk(timestamp, summary.chunk_id)
        if self._m_chunks is not None:
            self._m_chunks.inc()
        if self._auto_migrate and self.migrator is not None:
            # Opportunistic migration from the writer thread; the
            # hysteresis inside run_once makes this a cheap no-op until
            # the high watermark is crossed.  Deliberately not routed
            # through self.migrate() so the sanitizer's shadow wrapper
            # never fires in the middle of a push.  A damaged hot record
            # must not fail ingest: the error is parked, auto-migration
            # stops, and a manual migrate() raises it again.
            try:
                self.migrator.run_once()
            except CorruptionError as exc:
                self._auto_migrate = False
                self.migration_error = exc
                if self._m_migration_errors is not None:
                    self._m_migration_errors.inc()

    def _publish(self) -> None:
        """Make recent writes queryable: record log, chunk index, then
        timestamp index (the section 5.4 ordering)."""
        self.log.publish()
        self.chunk_index.publish()
        self.timestamp_index.publish()
        for state in self._sources.values():
            state.published_head = state.last_addr
        self._records_since_publish = 0
        if self._m_publishes is not None:
            self._m_publishes.inc()

    def sync(self, source_id: Optional[int] = None) -> None:
        """Force queryability of everything ingested so far (paper ``sync``).

        ``source_id`` is accepted for API fidelity; publication is global
        because the three logs share watermarks.
        """
        if source_id is not None:
            self.get_source(source_id)
        self._publish()

    def health(self) -> Health:
        """Aggregate flush-path health across the three hybrid logs.

        The worst individual state wins: one FAILED log makes the whole
        instance FAILED (ingest touches all three logs, so it cannot make
        progress), while reads over published data keep working.
        """
        return max(
            (
                self.log.health,
                self.chunk_index.log.health,
                self.timestamp_index.log.health,
            ),
            key=lambda h: h.severity,
        )

    def close(self) -> None:
        """Publish, then close all logs (each fsyncs its storage)."""
        if self._closed:
            return
        self._publish()
        self._closed = True
        self.log.close()
        self.chunk_index.close()
        self.timestamp_index.close()
        if self.archive is not None:
            self.archive.sync()
            self.archive.close()

    # ------------------------------------------------------------------
    # Warm restart
    # ------------------------------------------------------------------
    @classmethod
    def reopen(
        cls,
        config: Optional[LoomConfig] = None,
        clock: Optional[Clock] = None,
        repair: bool = True,
        verify: bool = True,
    ) -> "RecordLog":
        """Reopen a persisted instance and resume appending at its tail.

        Runs :func:`~repro.core.recovery.recover` over the persisted logs
        (with ``repair=True`` — the default — torn tails left by a crash
        are truncated to the last complete frame; corruption below the
        tail still raises :class:`CorruptionError`), then rebuilds all
        writer-side state: per-source chains and counts, the chunk-index
        and timestamp-index mirrors, and the active chunk summary.  The
        hybrid logs map their staging blocks at the persisted tail, so the
        next ``push`` appends exactly where the previous process stopped
        and back-pointer chains span the restart.

        Index *definitions* (UDFs) are code, not data — they cannot be
        recovered and must be re-defined by the daemon after reopen; they
        index records pushed from then on, as always (section 5.3).
        """
        from .recovery import recover_data_dir  # recovery imports this module

        cfg = config or LoomConfig()
        if cfg.data_dir is None:
            raise LoomError("reopen requires a data_dir (persistent logs)")
        # The registry outlives recovery: its phase gauges describe what
        # the reopen cost, and the new instance adopts it so introspection
        # sees recovery and steady-state metrics side by side.  Recovery
        # verifies/repairs the raw files before any hybrid log maps its
        # staging blocks at the persisted tail.
        registry = MetricsRegistry()
        state = recover_data_dir(
            cfg,
            verify=verify,
            repair=repair,
            metrics=registry if cfg.metrics_enabled else None,
        )
        log = cls(config=cfg, clock=clock, metrics=registry)
        if cfg.metrics_enabled:
            with registry.phase("loom.recovery.phase_ns", labels={"phase": "restore"}):
                log._restore(state)
        else:
            log._restore(state)
        return log

    def _restore(self, state: "RecoveredState") -> None:
        """Adopt a :class:`RecoveredState` into this (fresh) instance."""
        # Timestamps must keep increasing across the restart so the sorted
        # index mirrors stay bisectable.  A monotonic clock on the same
        # boot already guarantees this; a virtual clock is fast-forwarded.
        max_ts = 0
        for source in state.sources.values():
            if source.last_timestamp > max_ts:
                max_ts = source.last_timestamp
        if isinstance(self.clock, VirtualClock) and self.clock.now() < max_ts:
            self.clock.set(max_ts)

        for sid, rec in state.sources.items():
            self._sources[sid] = SourceState(
                source_id=sid,
                last_addr=rec.last_addr,
                published_head=rec.last_addr,
                record_count=rec.record_count,
                bytes_ingested=rec.bytes_ingested,
                first_timestamp=rec.first_timestamp,
                last_timestamp=rec.last_timestamp,
                # Restored sources start closed: the daemon re-defines the
                # ones it still uses, and define_source resumes the chain.
                closed=True,
            )
        self.total_records = state.total_records

        self.chunk_index.restore(state.summaries, state.summary_states or None)
        self.timestamp_index.restore(
            state.timestamp_entries, state.records_since_ts_entry
        )
        # Old histogram-index ids live on inside persisted summaries; new
        # definitions must not collide with them.
        max_index_id = 0
        for summary in state.summaries:
            for _sid, iid in summary.bins:
                if iid > max_index_id:
                    max_index_id = iid
        self._next_index_id = max_index_id + 1

        # Heal timestamp-index CHUNK entries lost with an unflushed block:
        # entries are appended in chunk order, so the missing ones are
        # exactly the suffix of summaries past the restored entry count.
        # Retired summaries were dropped from state.summaries but their
        # CHUNK events still count toward the restored entry total.
        chunk_events = sum(
            1 for _, kind, _, _ in state.timestamp_entries if kind == KIND_CHUNK
        )
        for summary in state.summaries[max(0, chunk_events - state.retired_chunks):]:
            self.timestamp_index.note_chunk(summary.t_max, summary.chunk_id)

        # Re-finalize chunks whose summaries were lost in memory: cut the
        # unsummarized tail where its chunk id steps; every group except
        # the last is a complete chunk (its successor's first record
        # proves it ended) and is folded in one columnar pass.  Re-built
        # summaries carry per-source info but no histogram bins — the
        # UDFs are gone, matching define_index's forward-only contract.
        tail = state.unsummarized_tail
        addrs = tail["addr"]
        chunk_ids = (addrs // self.chunk_size).astype(np.int64)
        firsts = np.flatnonzero(np.diff(chunk_ids, prepend=-1)).tolist()
        for lo, hi in zip(firsts, firsts[1:] + [len(tail)]):
            start = int(addrs[lo])
            last = hi == len(tail)
            summary = ChunkSummary.from_rows(
                start // self.chunk_size,
                start,
                start if last else int(addrs[hi]),
                tail["sid"][lo:hi],
                tail["ts"][lo:hi],
                addrs[lo:hi],
            )
            if last:
                self._active_summary = summary
            else:
                self.chunk_index.append(summary)
                self.timestamp_index.note_chunk(summary.t_max, summary.chunk_id)
        if not firsts:
            start = state.covered_addr
            self._active_summary = ChunkSummary(
                chunk_id=start // self.chunk_size, start_addr=start, end_addr=start
            )
        self._publish()

    # ------------------------------------------------------------------
    # Read-side primitives (used by operators via snapshots)
    # ------------------------------------------------------------------
    def read_record(
        self, address: int, stats: "Optional[QueryStats]" = None
    ) -> Record:
        """Decode the record whose header starts at ``address``.

        ``stats``, when given, receives per-query decode accounting; the
        record log itself keeps no read-side counters because reads run on
        arbitrary query threads and the writer-owned counters must stay
        single-threaded.
        """
        if stats is not None:
            stats.records_decoded += 1
        if address >= self._cold_boundary:
            try:
                return self._read_hot_record(address)
            except AddressError:
                # A migration pass recycled this prefix between the
                # boundary check and the storage read; the archive is
                # authoritative for it now.
                if address >= self._cold_boundary:
                    raise
        return self._read_cold_record(address, stats)

    def _read_hot_record(self, address: int) -> Record:
        data = self.log.read_upto(address, self._inline_read)
        source_id, timestamp, prev_addr, length = decode_header(data)
        if HEADER_SIZE + length <= len(data):
            payload = data[HEADER_SIZE : HEADER_SIZE + length]
        else:
            payload = self.log.read(address + HEADER_SIZE, length)
        if self._verify_on_read and (
            record_crc(data[:BODY_SIZE], payload) != decode_header_crc(data)
        ):
            raise CorruptionError(
                f"record at address {address} fails its CRC on read "
                f"(source_id={source_id}, length={length})",
                address=address,
            )
        return Record(
            source_id=source_id,
            timestamp=timestamp,
            prev_addr=prev_addr,
            payload=payload,
            address=address,
        )

    def _read_cold_record(
        self, address: int, stats: "Optional[QueryStats]"
    ) -> Record:
        """One record from its archived chunk's cached columns, found by
        a ``searchsorted`` over the chunk's offsets (an address off a
        record boundary is an :class:`AddressError`).  The frame's CRC
        was checked on inflate, so no per-read CRC pass is needed."""
        columns = self._cold_columns(address, address + 1, stats)
        if len(columns) == 0:
            raise AddressError(
                f"address {address} is not a record boundary of its archived chunk"
            )
        return Record(
            source_id=int(columns.source_ids[0]),
            timestamp=int(columns.timestamps[0]),
            prev_addr=int(columns.prev_addrs[0]),
            payload=bytes(columns.payload_view(0)),  # already owned bytes
            address=address,
        )

    def _cold_columns(
        self, start: int, end: int, stats: "Optional[QueryStats]"
    ) -> RegionColumns:
        """Columns of the archived records in ``[start, end)``: the
        covering chunks' cached columns, sliced and concatenated.  They
        are owned, so no later migration or retention pass can
        invalidate them."""
        archive = self.archive
        if archive is None or start < self._retention_floor:
            raise AddressError(
                f"region [{start}, {end}) is not archived (retention floor "
                f"{self._retention_floor})"
            )
        hist = self._m_cold_read_ns
        started = self.metrics.clock.now() if hist is not None else 0
        parts: List[RegionColumns] = []
        address = start
        while address < end:
            entry = archive.entry_for_address(address)
            if entry is None:
                raise AddressError(f"address {address} is not covered by the archive")
            chunk = archive.read_chunk_bytes(entry.chunk_id, stats)
            parts.append(chunk.between(address, min(end, entry.end_addr)))
            address = entry.end_addr
        if hist is not None:
            hist.observe(float(self.metrics.clock.now() - started))
        return RegionColumns.concat(parts)

    def iter_records_between(  # loomflow: borrows=scan
        self,
        start: int,
        end: int,
        copy: bool = True,
        stats: "Optional[QueryStats]" = None,
    ) -> Iterator[Record]:
        """Sequentially decode records in ``[start, end)``.

        ``start`` must be a record boundary; ``end`` must be a record
        boundary at or below the watermark (chunk summaries provide such
        boundaries).  The whole region is fetched with one log read and
        decoded from the buffer — the chunk-scan fast path (sequential
        I/O amortized over the chunk, as the paper's design intends).

        With ``copy=False`` each record's payload is a ``memoryview``
        slice of the region buffer instead of an owned ``bytes`` copy.
        The buffer is immutable for the lifetime of the views, so this is
        safe — but callers that retain payloads beyond the scan (or hand
        them to users) must take the default copying mode.

        This is the reference decoder: queries scan through
        :meth:`region_columns`, and the sanitizer and the equivalence
        tests hold its columns to the records yielded here.

        When the region is fully persisted the region buffer itself is a
        zero-copy storage view (no bulk read copy at all); otherwise one
        log read fetches it.
        """
        if end <= start:
            return
        size = end - start
        buffer, is_view = self._region_buffer(start, end, stats)
        view = buffer if is_view else memoryview(buffer)
        offset = 0
        verify = self._verify_on_read
        # Header decodes need a raw buffer (struct consumers); under the
        # view-lifetime guard each unwrap re-checks that the region view
        # was not poisoned by a concurrent truncate/recycle.
        unwrap = viewguard.unwrap
        while offset < size:
            if stats is not None:
                stats.records_decoded += 1
            raw = unwrap(buffer)
            source_id, timestamp, prev_addr, length = decode_header(raw, offset)
            if verify and not verify_record_bytes(raw, offset, length):
                raise CorruptionError(
                    f"record at address {start + offset} fails its CRC on "
                    f"read (source_id={source_id}, length={length})",
                    address=start + offset,
                )
            payload_start = offset + HEADER_SIZE
            if copy:
                payload = bytes(view[payload_start : payload_start + length])
            else:
                payload = view[payload_start : payload_start + length]
            yield Record(
                source_id=source_id,
                timestamp=timestamp,
                prev_addr=prev_addr,
                payload=payload,
                address=start + offset,
            )
            offset += HEADER_SIZE + length

    def region_columns(  # loomflow: borrows=storage
        self,
        start: int,
        end: int,
        stats: "Optional[QueryStats]" = None,
    ) -> Optional[RegionColumns]:
        """Decode all records in ``[start, end)`` into columns.

        The vectorized counterpart of :meth:`iter_records_between` for
        filtering scans, on either tier: :meth:`_hot_columns` above the
        cold boundary, :meth:`_cold_columns` below it, and both
        concatenated (owned) for a straddling region.  A read that races
        a migration pass retries against the advanced boundary.  Returns
        ``None`` when the region is empty.
        """
        if end <= start:
            return None
        while True:
            boundary = self._cold_boundary
            try:
                if start < boundary:
                    columns = self._cold_columns(start, min(end, boundary), stats)
                    if end > boundary:
                        columns = RegionColumns.concat([columns, self._hot_columns(boundary, end)])
                else:
                    columns = self._hot_columns(start, end)
                break
            except AddressError:
                if self._cold_boundary == boundary:
                    raise
        if stats is not None:
            stats.records_decoded += len(columns)
        return columns

    def _hot_columns(  # loomflow: borrows=storage
        self, start: int, end: int
    ) -> RegionColumns:
        """The hot region ``[start, end)`` through :func:`decode_region`:
        one bulk fetch, zero-copy via the mmap tier when possible.  Under
        ``verify_on_read`` every record is CRC-checked."""
        size = end - start
        buffer = self.log.read_view(start, size) or self.log.read(start, size)
        return decode_region(buffer, start, self._verify_on_read)

    def _region_buffer(  # loomflow: borrows=storage
        self, start: int, end: int, stats: "Optional[QueryStats]"
    ) -> "Tuple[bytes | memoryview, bool]":
        """Fetch ``[start, end)`` as one buffer for the reference decoder.

        Returns ``(buffer, is_view)``.  Hot regions come zero-copy from
        the mmap tier when possible.  Archived records are re-framed one
        by one from their chunk columns (:func:`encode_region`) into an
        *owned* buffer (outside the borrow rules), with the hot suffix of
        a straddling region appended via a copying read.  Only
        :meth:`iter_records_between` comes here: queries read columns.  A
        read that races a migration pass retries against the advanced
        boundary.
        """
        while True:
            boundary = self._cold_boundary
            try:
                if start >= boundary:
                    region = self.log.read_view(start, end - start)
                    if region is not None:
                        return region, True
                    return self.log.read(start, end - start), False
                cold_end = min(end, boundary)
                cold = encode_region(self._cold_columns(start, cold_end, stats))
                hot = self.log.read(cold_end, end - cold_end) if end > cold_end else b""
                return cold + hot, False
            except AddressError:
                if self._cold_boundary == boundary:
                    raise

    # ------------------------------------------------------------------
    # Cold tier: migration and retention
    # ------------------------------------------------------------------
    @property
    def cold_boundary(self) -> int:
        """Hot/cold split: addresses below it are archive-authoritative."""
        return self._cold_boundary

    @property
    def retention_floor(self) -> int:
        """Addresses below it were retired by retention (unreadable)."""
        return self._retention_floor

    def commit_migration(self, boundary: int) -> None:
        """Publish a ratified migration boundary (migrator-only).

        Called after the archive's ``RECYCLE`` frame is durable.  The
        GIL-atomic boundary store redirects readers to the archive first;
        recycling the hot prefix then poisons outstanding zero-copy views
        (they raise :class:`~repro.core.errors.StaleViewError` on touch)
        and reclaims the memory behind them.
        """
        if boundary <= self._cold_boundary:
            return
        self._cold_boundary = boundary
        self.log.storage.recycle_prefix(
            min(boundary, self.log.storage.size),
            "chunks migrated to the cold tier",
        )

    def note_migration(
        self, chunks: int, records: int, raw: int, compressed: int
    ) -> None:
        """Fold one committed migration pass into the loomscope instruments."""
        if self._m_migrations is not None:
            self._m_migrations.inc()
        if self._m_migrated_chunks is not None:
            self._m_migrated_chunks.inc(chunks)
        if self._m_migrated_raw is not None:
            self._m_migrated_raw.inc(raw)
        if self._m_migrated_compressed is not None:
            self._m_migrated_compressed.inc(compressed)
        if self._g_compression is not None and self.archive is not None:
            self._g_compression.set(self.archive.compression_ratio)

    def migrate(self, force: bool = True) -> MigrationReport:
        """Run one migration pass now (tiered-storage API).

        ``force`` migrates every eligible chunk — finalized and fully
        persisted; chunks still in staging blocks stay hot — otherwise
        the tier's watermark hysteresis applies.
        """
        if self._closed:
            raise ClosedError("record log is closed")
        migrator = self.migrator
        if migrator is None:
            raise LoomError(
                "no cold tier configured (pass LoomConfig(tier=TierConfig(...)))"
            )
        return migrator.run_once(force=force)

    def apply_retention(self, now: Optional[int] = None) -> RetentionReport:
        """Retire archived chunks past the retention horizon.

        Only *archived* chunks are eligible (the hot log is never
        retention's concern: migrate first).  The floor advances
        monotonically over a prefix of the address space; with mode
        ``"downsample"``, every ``keep_every``-th chunk keeps its summary
        resident (``SUMMARY_ONLY`` — distributive aggregates and
        histograms retain downsampled coverage) while all raw archive
        data below the floor is dropped.  Lifetime per-source ingest
        counts are *not* decremented; visibility is enforced at the
        query layer.

        Commit order: the chunk-index mirror is flipped first (readers
        stop materializing the chunks), then the ``RETIRE`` frame is
        persisted and fsynced, then the floor is published to readers.
        """
        if self._closed:
            raise ClosedError("record log is closed")
        archive = self.archive
        policy = self.config.retention
        if archive is None or policy is None:
            raise LoomError(
                "no retention policy configured "
                "(pass LoomConfig(retention=RetentionPolicy(...)))"
            )
        cutoff_ts = (now if now is not None else self.clock.now()) - policy.horizon_ns
        floor = self._retention_floor
        new_floor = floor
        dropped: List[int] = []
        kept: List[int] = []
        records_dropped = 0
        for entry in archive.entries():
            if entry.retired:
                continue
            summary = self.chunk_index.summary_for_chunk(entry.chunk_id)
            if summary is None or summary.t_max >= cutoff_ts:
                break
            new_floor = entry.end_addr
            if (
                policy.mode == "downsample"
                and entry.chunk_id % policy.keep_every == 0
            ):
                kept.append(entry.chunk_id)
            else:
                dropped.append(entry.chunk_id)
                records_dropped += summary.record_count
        if new_floor <= floor:
            return RetentionReport(
                floor_addr=floor,
                mode=policy.mode,
                keep_every=policy.keep_every,
                dropped_chunk_ids=(),
                kept_chunk_ids=(),
                records_dropped=0,
            )
        self.chunk_index.retire_below(new_floor, frozenset(kept))
        archive.append_retire(new_floor, policy.mode, policy.keep_every)
        archive.sync()
        self._retention_floor = new_floor
        if self._m_retired_chunks is not None:
            self._m_retired_chunks.inc(len(dropped))
        return RetentionReport(
            floor_addr=new_floor,
            mode=policy.mode,
            keep_every=policy.keep_every,
            dropped_chunk_ids=tuple(dropped),
            kept_chunk_ids=tuple(kept),
            records_dropped=records_dropped,
        )

    def active_region_start(self, n_finalized_chunks: int) -> int:
        """Record-log address where unsummarized ("active") data begins,
        given a pinned count of finalized chunk summaries."""
        if n_finalized_chunks == 0:
            return 0
        return self.chunk_index.get(n_finalized_chunks - 1).end_addr
