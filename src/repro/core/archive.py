"""Cold tier: the compressed archive log and the chunk migrator.

At millions of users the record log cannot stay uncompressed forever, yet
Loom's summary-first query model means cold bytes should almost never be
touched: ``indexed_aggregate`` keeps answering from resident chunk
summaries, and only a scan that must materialize raw records from a cold
range pays a decompression.  This module implements that trade
(DESIGN.md §15):

* **Codec** — one archive frame per migrated chunk, encoded from the
  chunk's hot columns.  The 28-byte record headers become columns
  (source ids, delta-of-delta zigzag timestamps, back-pointer deltas,
  payload lengths), varint-packed in one whole-array pass and
  zlib-compressed; payloads are concatenated into a separate blob,
  byte-transposed when every record in the chunk has the same payload
  width (a shuffle filter: fixed-width telemetry payloads compress far
  better column-of-bytes-wise), and zlib-compressed.  Decoding yields
  the chunk's :class:`~repro.core.record_log.RegionColumns` directly,
  with whole-array numpy over the varint streams, so queries filter a
  cold chunk exactly as they filter a hot one and no record is
  re-framed.  The byte-identical region (CRCs included) is rebuilt from
  those columns only for the reference decoder (:func:`encode_region`).
* **Archive log** — an append-only file of CRC-framed entries with the
  same sidecar frame-journal scheme as the hot logs.  ``DATA`` frames
  carry one compressed chunk; a ``RECYCLE`` frame *ratifies* all data
  frames before it and advances the recycled boundary (the hot prefix
  below it may be reclaimed); ``RETIRE`` frames persist retention
  decisions.  A crash between data frames and their recycle frame leaves
  an unratified suffix that reopen truncates: the hot chunk stays
  authoritative, nothing is lost or duplicated.
* **Migrator** — moves finalized, fully persisted chunks whose records
  pass their CRCs into the archive with watermark hysteresis, then
  recycles the hot prefix they came from.

Reader-path discipline: decompressed chunk reads are reachable from
query threads (``RecordLog.read_record`` is a loomlint LOOM101 reader
root), so this module's read side takes no locks — the chunk cache uses
only GIL-atomic dict operations and tolerates racy evictions.  A frame
damaged after it was ratified surfaces as a typed
:class:`~repro.core.errors.CorruptionError` naming the chunk's start
address, never as a bare ``zlib.error`` or ``IndexError``.
"""

from __future__ import annotations

import struct
import threading
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import takewhile
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .errors import AddressError, CorruptionError
from .hybridlog import FRAME_ENTRY, trim_journal
from .metrics import Counter
from .record import HEADER_SIZE, encode_record
from .storage import Storage

if TYPE_CHECKING:  # avoid an import cycle: record_log imports this module
    from .config import TierConfig
    from .operators import QueryStats
    from .record_log import RecordLog, RegionColumns
    from .summary import ChunkSummary

__all__ = [
    "ArchiveLog",
    "ArchiveEntry",
    "ArchiveScan",
    "ChunkMigrator",
    "MigrationReport",
    "RetentionReport",
    "encode_chunk_streams",
    "decode_chunk_region",
    "decode_frame",
    "encode_region",
]

#: Archive frame header: kind, flags, a, b, c, record_count, raw_len,
#: header_stream_len, payload_stream_len, crc32(streams).  Field meaning
#: by kind — DATA: a=chunk_id, b=start_addr, c=end_addr; RECYCLE:
#: b=recycled_upto; RETIRE: flags=mode, a=keep_every, b=floor_addr.
FRAME_HEADER = struct.Struct("<IIQQQIIIII")

KIND_DATA = 1
KIND_RECYCLE = 2
KIND_RETIRE = 3

#: DATA flag: the payload blob was byte-transposed before compression.
FLAG_TRANSPOSED = 1

RETIRE_DROP = 1
RETIRE_DOWNSAMPLE = 2

_RETIRE_MODES = {"drop": RETIRE_DROP, "downsample": RETIRE_DOWNSAMPLE}

_NULL = 0xFFFF_FFFF_FFFF_FFFF

#: zlib level for both streams of every ``DATA`` frame.
COMPRESSION_LEVEL = 6

#: Decoded chunks kept in the read cache (each the chunk's columns over
#: its owned payload blob: about one ``chunk_size`` of memory).
CACHE_CHUNKS = 4

#: Longest LEB128 varint a u64 column can need.
_MAX_VARINT = 10

#: Bit offset of each 7-bit group of a varint.
_GROUP_SHIFTS = np.arange(0, 7 * _MAX_VARINT, 7, dtype=np.uint64)

#: Smallest value needing 2, 3, ... 10 varint bytes.
_VARINT_LIMITS = np.uint64(1) << _GROUP_SHIFTS[1:]


# ----------------------------------------------------------------------
# Chunk codec
# ----------------------------------------------------------------------
def _leb128(values: np.ndarray) -> bytes:
    """The LEB128 varints of a u64 array, back to back: each value's
    7-bit groups are one row of a table, continuation bits set on all
    but its last, and a row-major mask keeps each row's own width."""
    widths = 1 + np.searchsorted(_VARINT_LIMITS, values, side="right")
    rank = np.arange(int(widths.max()))
    groups = ((values[:, None] >> _GROUP_SHIFTS[rank]) & np.uint64(0x7F)).astype(np.uint8)
    groups[rank < widths[:, None] - 1] |= 0x80
    return groups[rank < widths[:, None]].tobytes()


def encode_chunk_streams(columns: "RegionColumns") -> Tuple[bytes, bytes, int, int]:
    """Split a chunk's columns into compressible streams, the exact
    inverse of :func:`decode_chunk_region`.

    Returns ``(header_stream, payload_blob, record_count, flags)``, both
    uncompressed.  The header stream is one LEB128 pass over the column
    ``[n, source ids, first timestamp, zigzagged delta-of-deltas, back
    pointers (0 for NULL, else address - prev_addr), payload lengths]``.
    Delta-of-deltas are taken mod 2^64 and zigzagged as i64, which the
    decoder inverts mod 2^64, so any u64 timestamps round-trip.  Equal
    non-zero payload widths byte-transpose the blob (``FLAG_TRANSPOSED``)
    so same-position bytes of consecutive records become runs.
    """
    from .record_log import gather_payloads  # record_log imports this module

    n = len(columns)
    timestamps = columns.timestamps
    dod = np.diff(np.diff(timestamps), prepend=np.uint64(0))
    zigzag = (dod << np.uint64(1)) ^ (np.uint64(0) - (dod >> np.uint64(63)))
    prev = columns.prev_addrs
    backs = np.where(prev == _NULL, np.uint64(0), columns.addresses.astype(np.uint64) - prev)
    lengths = columns.lengths
    stream = _leb128(
        np.concatenate(
            ([np.uint64(n)], columns.source_ids, timestamps[:1], zigzag, backs, lengths),
            dtype=np.uint64,
        )
    )
    raw = np.frombuffer(columns.buffer, np.uint8)
    width = int(lengths[0]) if n else 0
    if width and bool((lengths == width).all()):
        # The rows tile the buffer from its first byte, so equal widths
        # make it an (n, stride) table: the transposed blob is one
        # strided copy of its payload columns.
        table = raw[: n * (HEADER_SIZE + width)].reshape(n, -1)
        return stream, table[:, HEADER_SIZE:].T.tobytes(), n, FLAG_TRANSPOSED
    _bounds, blob = gather_payloads(raw, columns.payload_starts, lengths)
    return stream, blob, n, 0


def decode_chunk_region(
    header_stream: bytes,
    payload_blob: bytes,
    start_addr: int,
    record_count: int,
    raw_len: int,
    flags: int,
) -> "RegionColumns":
    """The chunk's records as columns over its owned, un-transposed
    payload blob, decoded whole-array from the streams.

    Varint terminators are the bytes below ``0x80``, and each value is
    one ``np.add.reduceat`` of its shifted 7-bit groups.  Timestamps are
    the first value plus two ``cumsum``s of the un-zigzagged
    delta-of-deltas (u64 arithmetic wraps exactly as the original values
    did); offsets are a ``cumsum`` of ``HEADER_SIZE + length``; each back
    pointer is ``address - back``.  Raises :class:`CorruptionError` when
    the stream is not ``1 + 4n`` well-formed varints or disagrees with
    the frame header.
    """
    from .record_log import RegionColumns  # record_log imports this module

    n = record_count
    raw = np.frombuffer(header_stream, np.uint8)
    ends = np.flatnonzero(raw < 0x80)
    starts = np.concatenate(([0], ends[:-1] + 1))
    widths = ends - starts + 1
    if len(ends) != 1 + 4 * n or ends[-1] != len(raw) - 1 or widths.max() > _MAX_VARINT:
        raise CorruptionError(
            f"archive header stream is not {1 + 4 * n} varints", address=start_addr
        )
    shifts = 7 * (np.arange(len(raw)) - np.repeat(starts, widths))
    low = np.add.reduceat((raw & 0x7F).astype(np.uint64) << shifts.astype(np.uint64), starts)
    lengths = low[1 + 3 * n :].astype(np.uint32)
    sizes = lengths + np.int64(HEADER_SIZE)
    if low[0] != n or sizes.sum() != raw_len or lengths.sum() != len(payload_blob):
        raise CorruptionError(
            f"archive streams disagree with their frame ({n} records, {raw_len} bytes)",
            address=start_addr,
        )
    zigzag = low[2 + n : 1 + 2 * n]
    # A 10-byte varint's bits past 63 are its last group's; bit 64 of a
    # zigzagged delta-of-delta is bit 63 of its half.
    bit64 = (widths[2 + n : 1 + 2 * n] == _MAX_VARINT) & (raw[ends[2 + n : 1 + 2 * n]] >> 1)
    dod = ((zigzag >> 1) | (bit64.astype(np.uint64) << 63)) ^ (np.uint64(0) - (zigzag & 1))
    offsets = np.cumsum(sizes) - sizes
    backs = low[1 + 2 * n : 1 + 3 * n]
    if flags & FLAG_TRANSPOSED and n > 0:
        payload_blob = (
            np.frombuffer(payload_blob, np.uint8).reshape(int(lengths[0]), n).T.tobytes()
        )
    columns = (
        low[1 : 1 + n].astype(np.uint32),
        np.cumsum(np.concatenate((low[1 + n : 2 + n], np.cumsum(dod)))),
        np.where(backs == 0, np.uint64(_NULL), offsets.astype(np.uint64) + start_addr - backs),
        lengths,
        offsets,
        np.cumsum(lengths, dtype=np.int64) - lengths,
    )
    for column in columns:
        column.flags.writeable = False
    return RegionColumns(start_addr, *columns, buffer=bytes(payload_blob))


# ----------------------------------------------------------------------
# Archive log
# ----------------------------------------------------------------------
@dataclass(eq=False)
class ArchiveEntry:
    """Directory entry for one archived chunk (one ``DATA`` frame)."""

    chunk_id: int
    start_addr: int
    end_addr: int
    record_count: int
    frame_addr: int
    header_len: int
    payload_len: int
    raw_len: int
    flags: int
    #: The frame's stored ``crc32(streams)``, checked on every inflate.
    crc: int
    retired: bool = False

    @property
    def compressed_len(self) -> int:
        return self.header_len + self.payload_len


def decode_frame(storage: Storage, entry: ArchiveEntry) -> "RegionColumns":
    """Read one ``DATA`` frame, check its stream CRC, inflate and decode
    it.  A CRC mismatch, a stream that does not inflate or a malformed
    varint stream is a :class:`CorruptionError` at the chunk's start."""
    where = f"archive frame at {entry.frame_addr} (chunk {entry.chunk_id})"
    streams = memoryview(
        storage.read(entry.frame_addr + FRAME_HEADER.size, entry.compressed_len)
    )
    if zlib.crc32(streams) != entry.crc:
        raise CorruptionError(f"{where} fails its stream CRC", address=entry.start_addr)
    try:
        header_stream = zlib.decompress(streams[: entry.header_len])
        payload_blob = zlib.decompress(streams[entry.header_len :])
    except zlib.error as exc:
        raise CorruptionError(
            f"{where} does not inflate: {exc}", address=entry.start_addr
        ) from exc
    return decode_chunk_region(
        header_stream,
        payload_blob,
        entry.start_addr,
        entry.record_count,
        entry.raw_len,
        entry.flags,
    )


def encode_region(columns: "RegionColumns") -> bytes:
    """The byte-identical record-log region behind ``columns``, every
    record re-framed through :func:`~repro.core.record.encode_record`.
    Only the reference decoder (``RecordLog.iter_records_between``)
    reads archived records as bytes; queries read the columns."""
    rows = zip(
        columns.source_ids.tolist(), columns.timestamps.tolist(), columns.prev_addrs.tolist()
    )
    return b"".join(encode_record(*row, columns.payload_view(i)) for i, row in enumerate(rows))


@dataclass
class ArchiveScan:
    """Result of walking an archive log's frames from address zero."""

    entries: List[ArchiveEntry] = field(default_factory=list)
    recycled_upto: int = 0
    retention_floor: int = 0
    retention_mode: int = 0
    retention_keep_every: int = 1
    #: End of the *ratified* prefix: everything past it is an orphaned
    #: suffix (data frames with no covering RECYCLE, or a torn tail) that
    #: reopen truncates — the hot log stays authoritative for it.
    ratified_end: int = 0
    #: End of the last structurally valid frame (>= ratified_end).
    valid_end: int = 0
    findings: List[str] = field(default_factory=list)

    @property
    def ratified_entries(self) -> List[ArchiveEntry]:
        return [e for e in self.entries if e.frame_addr < self.ratified_end]


def scan_archive_frames(storage: Storage) -> ArchiveScan:
    """Walk every self-describing frame; stop at the first torn/corrupt one.

    Pure read — the caller decides whether to truncate the unratified
    suffix (``ArchiveLog.open`` and ``recover`` both do).
    """
    scan = ArchiveScan()
    size = storage.size
    pos = 0
    while pos + FRAME_HEADER.size <= size:
        header = storage.read(pos, FRAME_HEADER.size)
        kind, flags, a, b, c, count, raw_len, hdr_len, pay_len, crc = (
            FRAME_HEADER.unpack(header)
        )
        frame_end = pos + FRAME_HEADER.size + hdr_len + pay_len
        if kind not in (KIND_DATA, KIND_RECYCLE, KIND_RETIRE) or frame_end > size:
            scan.findings.append(
                f"archive: torn or invalid frame at {pos} (kind={kind})"
            )
            break
        if kind == KIND_DATA:
            streams = storage.read(pos + FRAME_HEADER.size, hdr_len + pay_len)
            if zlib.crc32(streams) != crc:
                scan.findings.append(f"archive: stream CRC mismatch at {pos}")
                break
            scan.entries.append(
                ArchiveEntry(
                    chunk_id=a,
                    start_addr=b,
                    end_addr=c,
                    record_count=count,
                    frame_addr=pos,
                    header_len=hdr_len,
                    payload_len=pay_len,
                    raw_len=raw_len,
                    flags=flags,
                    crc=crc,
                )
            )
        elif kind == KIND_RECYCLE:
            scan.recycled_upto = max(scan.recycled_upto, b)
            scan.ratified_end = frame_end
        else:  # KIND_RETIRE
            scan.retention_floor = max(scan.retention_floor, b)
            scan.retention_mode = flags
            scan.retention_keep_every = max(1, a)
            scan.ratified_end = frame_end
        pos = frame_end
    scan.valid_end = pos
    if scan.valid_end > scan.ratified_end:
        scan.findings.append(
            f"archive: {scan.valid_end - scan.ratified_end} unratified bytes "
            f"past {scan.ratified_end} (hot log stays authoritative)"
        )
    for entry in scan.entries:
        if entry.frame_addr < scan.ratified_end:
            entry.retired = entry.start_addr < scan.retention_floor
    return scan


class ArchiveLog:
    """Append-only compressed chunk store with a sidecar frame journal.

    Single-writer (the migrator / retention enforcer); the read side
    (:meth:`read_chunk_bytes`, :meth:`entry_for_address`) is lock-free
    and may be called from any query thread.
    """

    def __init__(
        self,
        storage: Storage,
        journal: Storage,
        decompress_counter: Optional[Counter] = None,
    ) -> None:
        self._storage = storage
        self._journal = journal
        self._decompress_counter = decompress_counter
        self._entries: List[ArchiveEntry] = []
        self._starts: List[int] = []
        self._by_chunk: Dict[int, ArchiveEntry] = {}
        self._cache: Dict[int, "RegionColumns"] = {}
        self.recycled_upto = 0
        self.retention_floor = 0
        self.retention_mode = 0
        self.retention_keep_every = 1
        self.raw_bytes = 0
        self.compressed_bytes = 0

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def open(
        cls,
        storage: Storage,
        journal: Storage,
        decompress_counter: Optional[Counter] = None,
    ) -> "ArchiveLog":
        """Load an archive log, truncating any unratified suffix.

        Data frames past the last ``RECYCLE``/``RETIRE`` frame were never
        ratified — their chunks are still hot-authoritative — so dropping
        them loses nothing and keeps the append position consistent.
        """
        log = cls(storage, journal, decompress_counter=decompress_counter)
        scan = scan_archive_frames(storage)
        if storage.size > scan.ratified_end:
            storage.truncate(scan.ratified_end)
        trim_journal(journal, scan.ratified_end)
        log.recycled_upto = scan.recycled_upto
        log.retention_floor = scan.retention_floor
        log.retention_mode = scan.retention_mode
        log.retention_keep_every = scan.retention_keep_every
        for entry in scan.ratified_entries:
            log._admit(entry)
        return log

    def _admit(self, entry: ArchiveEntry) -> None:
        self._entries.append(entry)
        self._starts.append(entry.start_addr)
        self._by_chunk[entry.chunk_id] = entry
        self.raw_bytes += entry.raw_len
        self.compressed_bytes += entry.compressed_len

    def sync(self) -> None:
        self._storage.sync()
        self._journal.sync()

    def close(self) -> None:
        self._storage.close()
        self._journal.close()

    # -- write side (migrator / retention only) --------------------------
    def _append_frame(
        self,
        kind: int,
        flags: int,
        a: int,
        b: int,
        c: int,
        count: int,
        raw_len: int,
        header_stream: bytes,
        payload_stream: bytes,
    ) -> Tuple[int, int]:
        """Append one frame; returns its address and its stream CRC."""
        crc = zlib.crc32(payload_stream, zlib.crc32(header_stream))
        frame = (
            FRAME_HEADER.pack(
                kind,
                flags,
                a,
                b,
                c,
                count,
                raw_len,
                len(header_stream),
                len(payload_stream),
                crc,
            )
            + header_stream
            + payload_stream
        )
        address = self._storage.append(frame)
        self._journal.append(
            FRAME_ENTRY.pack(address, len(frame), zlib.crc32(frame))
        )
        return address, crc

    def append_chunk(
        self, chunk_id: int, start_addr: int, end_addr: int, columns: "RegionColumns"
    ) -> ArchiveEntry:
        """Compress and append one chunk, decoded as ``columns``, as a
        ``DATA`` frame.  Records that do not tile ``[start_addr,
        end_addr)`` exactly are a :class:`CorruptionError`."""
        raw_len = end_addr - start_addr
        if columns.extent != raw_len:
            raise CorruptionError(
                f"chunk {chunk_id}'s records do not tile [{start_addr}, {end_addr})",
                address=start_addr + columns.extent,
            )
        header_stream, payload_blob, count, flags = encode_chunk_streams(columns)
        header_comp = zlib.compress(header_stream, COMPRESSION_LEVEL)
        payload_comp = zlib.compress(payload_blob, COMPRESSION_LEVEL)
        frame_addr, crc = self._append_frame(
            KIND_DATA,
            flags,
            chunk_id,
            start_addr,
            end_addr,
            count,
            raw_len,
            header_comp,
            payload_comp,
        )
        entry = ArchiveEntry(
            chunk_id=chunk_id,
            start_addr=start_addr,
            end_addr=end_addr,
            record_count=count,
            frame_addr=frame_addr,
            header_len=len(header_comp),
            payload_len=len(payload_comp),
            raw_len=raw_len,
            flags=flags,
            crc=crc,
        )
        self._admit(entry)
        return entry

    def discard_from(self, frame_addr: int) -> None:
        """Drop the unratified ``DATA`` frames from ``frame_addr`` on (a
        migration pass that failed part-way), as reopen would."""
        while self._entries and self._entries[-1].frame_addr >= frame_addr:
            entry = self._entries.pop()
            self._starts.pop()
            del self._by_chunk[entry.chunk_id]
            self.raw_bytes -= entry.raw_len
            self.compressed_bytes -= entry.compressed_len
        self._storage.truncate(frame_addr)
        trim_journal(self._journal, frame_addr)

    def append_recycle(self, upto: int) -> None:
        """Ratify all preceding data frames and persist the boundary."""
        self._append_frame(KIND_RECYCLE, 0, 0, upto, 0, 0, 0, b"", b"")
        self.recycled_upto = max(self.recycled_upto, upto)

    def append_retire(self, floor_addr: int, mode: str, keep_every: int) -> None:
        """Persist a retention decision (monotonic floor advance)."""
        self._append_frame(
            KIND_RETIRE,
            _RETIRE_MODES[mode],
            keep_every,
            floor_addr,
            0,
            0,
            0,
            b"",
            b"",
        )
        self.retention_floor = max(self.retention_floor, floor_addr)
        self.retention_mode = _RETIRE_MODES[mode]
        self.retention_keep_every = keep_every
        for entry in self._entries:
            if entry.start_addr < self.retention_floor:
                entry.retired = True
                self._cache.pop(entry.chunk_id, None)

    # -- read side (lock-free; reachable from query threads) -------------
    @property
    def chunk_count(self) -> int:
        return len(self._entries)

    @property
    def retired_count(self) -> int:
        return sum(1 for entry in self._entries if entry.retired)

    @property
    def size(self) -> int:
        return self._storage.size

    @property
    def journal_size(self) -> int:
        return self._journal.size

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 0.0
        return self.raw_bytes / self.compressed_bytes

    def entries(self) -> List[ArchiveEntry]:
        return list(self._entries)

    def entry_for_address(self, address: int) -> Optional[ArchiveEntry]:
        i = bisect_right(self._starts, address) - 1
        if i < 0:
            return None
        entry = self._entries[i]
        if address >= entry.end_addr:
            return None
        return entry

    def read_chunk_bytes(
        self, chunk_id: int, stats: "Optional[QueryStats]" = None
    ) -> "RegionColumns":
        """One archived chunk's :class:`~repro.core.record_log.RegionColumns`
        (cached): read-only arrays over its owned payload blob.  A cache
        miss is :func:`decode_frame`.
        ``stats``, when given, receives per-query cold-decompression
        accounting (cache hits do not count).

        The name predates the columns.  It stays because every chunk
        lookup, hit or miss, is one call here, and the benchmark's
        ``archive.read_chunk_bytes`` span and cache-hit ratio count
        exactly those calls.
        """
        entry = self._by_chunk.get(chunk_id)
        if entry is None:
            raise AddressError(f"chunk {chunk_id} is not archived")
        if entry.retired:
            raise AddressError(f"chunk {chunk_id} was retired by retention")
        cached = self._cache.get(chunk_id)
        if cached is not None:
            return cached
        columns = decode_frame(self._storage, entry)
        if stats is not None:
            stats.cold_chunks_decompressed += 1
        if self._decompress_counter is not None:
            self._decompress_counter.inc()
        self._cache[chunk_id] = columns
        while len(self._cache) > CACHE_CHUNKS:
            try:
                # GIL-atomic pop of the oldest insertion; advisory LRU —
                # a racing reader may evict a fresh entry, which only
                # costs a re-decompression.
                self._cache.pop(next(iter(self._cache)))
            except (KeyError, StopIteration):
                break
        return columns


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one migration pass."""

    chunks_migrated: int
    records_migrated: int
    raw_bytes: int
    compressed_bytes: int
    cold_boundary: int


@dataclass(frozen=True)
class RetentionReport:
    """Outcome of one retention pass."""

    floor_addr: int
    mode: str
    keep_every: int
    dropped_chunk_ids: Tuple[int, ...]
    kept_chunk_ids: Tuple[int, ...]
    records_dropped: int


class ChunkMigrator:
    """Moves finalized, persisted chunks into the archive (hysteresis).

    Commit order per pass (crash-safe; see DESIGN.md §15):

    1. append one ``DATA`` frame per chunk, each record CRC-checked as
       it is decoded, fsync the archive.  A damaged record raises
       :class:`CorruptionError` and the pass's frames are discarded:
       nothing is ratified and the boundary stays where it was;
    2. append the ``RECYCLE`` frame advancing the boundary, fsync;
    3. publish the boundary to readers (GIL-atomic store) and recycle
       the hot prefix.

    A crash between 1 and 2 leaves unratified data frames that reopen
    truncates — the hot chunks stay authoritative.  A crash after 2 is
    complete: recovery serves the prefix from the archive.
    """

    def __init__(self, record_log: "RecordLog", tier: "TierConfig") -> None:
        self._record_log = record_log
        self._tier = tier
        self._gate = threading.Lock()

    def _eligible(self) -> List["ChunkSummary"]:
        """Finalized chunks above the cold boundary whose bytes are fully
        persisted."""
        log = self._record_log
        persisted = log.log.persisted_tail
        return list(
            takewhile(
                lambda summary: summary.end_addr <= persisted,
                log.chunk_index.finalized_after(log.cold_boundary),
            )
        )

    def run_once(self, force: bool = False) -> MigrationReport:
        """One migration pass.  ``force`` migrates every eligible chunk;
        otherwise hysteresis applies (high watermark triggers, low
        watermark is the target)."""
        if not self._gate.acquire(blocking=False):
            return MigrationReport(0, 0, 0, 0, self._record_log.cold_boundary)
        try:
            return self._run_locked(force)
        finally:
            self._gate.release()

    def _run_locked(self, force: bool) -> MigrationReport:
        log = self._record_log
        archive = log.archive
        if archive is None:
            return MigrationReport(0, 0, 0, 0, log.cold_boundary)
        eligible = self._eligible()
        if not force:
            if len(eligible) <= self._tier.migrate_high_watermark:
                return MigrationReport(0, 0, 0, 0, log.cold_boundary)
            eligible = eligible[
                : len(eligible) - self._tier.migrate_low_watermark
            ]
        if not eligible:
            return MigrationReport(0, 0, 0, 0, log.cold_boundary)
        from .record_log import decode_region  # record_log imports this module

        records = 0
        raw = 0
        compressed = 0
        first_frame = archive.size
        try:
            for summary in eligible:
                start, end = summary.start_addr, summary.end_addr
                # One read per chunk.  Frames keep no per-record CRC, so
                # each record is checked here, on the bytes being archived.
                region = decode_region(log.log.read(start, end - start), start, verify=True)
                entry = archive.append_chunk(summary.chunk_id, start, end, region)
                records += entry.record_count
                raw += entry.raw_len
                compressed += entry.compressed_len
        except CorruptionError:
            archive.discard_from(first_frame)
            raise
        archive.sync()
        boundary = eligible[-1].end_addr
        archive.append_recycle(boundary)
        archive.sync()
        log.commit_migration(boundary)
        log.note_migration(len(eligible), records, raw, compressed)
        return MigrationReport(
            chunks_migrated=len(eligible),
            records_migrated=records,
            raw_bytes=raw,
            compressed_bytes=compressed,
            cold_boundary=boundary,
        )
