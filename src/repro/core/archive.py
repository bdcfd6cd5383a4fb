"""Cold tier: the compressed archive log and the chunk migrator.

At millions of users the record log cannot stay uncompressed forever, yet
Loom's summary-first query model means cold bytes should almost never be
touched: ``indexed_aggregate`` keeps answering from resident chunk
summaries, and only a scan that must materialize raw records from a cold
range pays a decompression.  This module implements that trade
(DESIGN.md §15):

* **Codec** — one archive frame per migrated chunk.  The 28-byte record
  headers are split into columns (source ids, delta-of-delta zigzag
  timestamps, back-pointer deltas, payload lengths), varint-packed and
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
* **Migrator** — moves finalized, fully persisted chunks into the
  archive with watermark hysteresis, then routes the hot-prefix recycle
  through the storage poison hooks so outstanding zero-copy views fail
  with a typed :class:`~repro.core.errors.StaleViewError` instead of
  reading recompressed bytes.

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
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import AddressError, CorruptionError
from .hybridlog import FRAME_ENTRY
from .metrics import Counter
from .record import HEADER_SIZE, decode_header, encode_record
from .storage import Storage

if TYPE_CHECKING:  # avoid an import cycle: record_log imports this module
    from .config import TierConfig
    from .operators import QueryStats
    from .record_log import RecordLog, RegionColumns

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
    "iter_region_records",
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
_RETIRE_NAMES = {RETIRE_DROP: "drop", RETIRE_DOWNSAMPLE: "downsample"}

_NULL = 0xFFFF_FFFF_FFFF_FFFF

#: zlib level for both streams of every ``DATA`` frame.
COMPRESSION_LEVEL = 6

#: Decoded chunks kept in the read cache (each the chunk's columns over
#: its owned payload blob: about one ``chunk_size`` of memory).
CACHE_CHUNKS = 4

#: Longest LEB128 varint a u64 column can need; the zigzagged
#: delta-of-delta of two u64 timestamps needs all of it (up to 66 bits).
_MAX_VARINT = 10


# ----------------------------------------------------------------------
# varint / zigzag primitives
# ----------------------------------------------------------------------
def _put_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)



# ----------------------------------------------------------------------
# Chunk codec
# ----------------------------------------------------------------------
def iter_region_records(
    region: bytes, start_addr: int
) -> Iterator[Tuple[int, int, int, int, int]]:
    """Walk a raw chunk region, yielding per-record header columns.

    Yields ``(address, source_id, timestamp, prev_addr, payload_len)``
    for each record; raises :class:`CorruptionError` if the records do
    not tile the region exactly.
    """
    offset = 0
    size = len(region)
    while offset < size:
        if offset + HEADER_SIZE > size:
            raise CorruptionError(
                "record header straddles the chunk region end",
                address=start_addr + offset,
            )
        source_id, timestamp, prev_addr, length = decode_header(region, offset)
        if offset + HEADER_SIZE + length > size:
            raise CorruptionError(
                "record payload straddles the chunk region end",
                address=start_addr + offset,
            )
        yield start_addr + offset, source_id, timestamp, prev_addr, length
        offset += HEADER_SIZE + length


def encode_chunk_streams(
    region: bytes, start_addr: int
) -> Tuple[bytes, bytes, int, int]:
    """Split a chunk region into compressible column streams.

    Returns ``(header_stream, payload_blob, record_count, flags)``, both
    streams uncompressed.  The header stream packs, per column: source
    ids (varint), timestamps (first absolute, then delta-of-delta zigzag
    varints), back pointers (0 for NULL, else the positive distance
    ``address - prev_addr``), and payload lengths (varint).  When every
    payload has the same non-zero width the blob is byte-transposed
    (``FLAG_TRANSPOSED``) so same-position bytes of consecutive records
    become runs.
    """
    sids: List[int] = []
    timestamps: List[int] = []
    prev_deltas: List[int] = []
    lengths: List[int] = []
    payloads: List[bytes] = []
    for address, sid, timestamp, prev_addr, length in iter_region_records(
        region, start_addr
    ):
        sids.append(sid)
        timestamps.append(timestamp)
        prev_deltas.append(0 if prev_addr == _NULL else address - prev_addr)
        lengths.append(length)
        offset = address - start_addr + HEADER_SIZE
        payloads.append(region[offset : offset + length])

    stream = bytearray()
    count = len(sids)
    _put_varint(stream, count)
    for sid in sids:
        _put_varint(stream, sid)
    prev_ts = 0
    prev_delta = 0
    for i, timestamp in enumerate(timestamps):
        if i == 0:
            _put_varint(stream, timestamp)
        else:
            delta = timestamp - prev_ts
            _put_varint(stream, _zigzag(delta - prev_delta))
            prev_delta = delta
        prev_ts = timestamp
    for back in prev_deltas:
        _put_varint(stream, back)
    for length in lengths:
        _put_varint(stream, length)

    blob = b"".join(payloads)
    flags = 0
    if count > 0 and lengths[0] > 0 and all(n == lengths[0] for n in lengths):
        width = lengths[0]
        blob = (
            np.frombuffer(blob, dtype=np.uint8)
            .reshape(count, width)
            .T.tobytes()
        )
        flags |= FLAG_TRANSPOSED
    return bytes(stream), blob, count, flags


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
class ArchiveEntry:
    """Directory entry for one archived chunk (one ``DATA`` frame)."""

    __slots__ = (
        "chunk_id",
        "start_addr",
        "end_addr",
        "record_count",
        "frame_addr",
        "header_len",
        "payload_len",
        "raw_len",
        "flags",
        "crc",
        "retired",
    )

    def __init__(
        self,
        chunk_id: int,
        start_addr: int,
        end_addr: int,
        record_count: int,
        frame_addr: int,
        header_len: int,
        payload_len: int,
        raw_len: int,
        flags: int,
        crc: int,
    ) -> None:
        self.chunk_id = chunk_id
        self.start_addr = start_addr
        self.end_addr = end_addr
        self.record_count = record_count
        self.frame_addr = frame_addr
        self.header_len = header_len
        self.payload_len = payload_len
        self.raw_len = raw_len
        self.flags = flags
        #: The frame's stored ``crc32(streams)``, checked on every inflate.
        self.crc = crc
        self.retired = False

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
    def orphan_entries(self) -> List[ArchiveEntry]:
        return [e for e in self.entries if e.frame_addr >= self.ratified_end]

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
        self.decompressions = 0
        self.repairs: List[str] = []

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
            log.repairs.append(
                f"archive: truncated unratified suffix to {scan.ratified_end}"
            )
        _trim_frame_journal(journal, scan.ratified_end)
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
        self, chunk_id: int, start_addr: int, end_addr: int, region: bytes
    ) -> ArchiveEntry:
        """Compress and append one chunk region as a ``DATA`` frame."""
        header_stream, payload_blob, count, flags = encode_chunk_streams(
            region, start_addr
        )
        header_comp = zlib.compress(header_stream, COMPRESSION_LEVEL)
        payload_comp = zlib.compress(payload_blob, COMPRESSION_LEVEL)
        frame_addr, crc = self._append_frame(
            KIND_DATA,
            flags,
            chunk_id,
            start_addr,
            end_addr,
            count,
            len(region),
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
            raw_len=len(region),
            flags=flags,
            crc=crc,
        )
        self._admit(entry)
        return entry

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

    def entry_for_chunk(self, chunk_id: int) -> Optional[ArchiveEntry]:
        return self._by_chunk.get(chunk_id)

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
        (cached): read-only arrays over its owned payload blob, outside
        the zero-copy borrow rules.  A cache miss is :func:`decode_frame`.
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
        self.decompressions += 1
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


def _trim_frame_journal(journal: Storage, data_end: int) -> None:
    """Drop journal entries describing frames past ``data_end`` (plus any
    torn partial entry at the journal tail)."""
    size = journal.size
    whole = size - size % FRAME_ENTRY.size
    keep = whole
    while keep > 0:
        entry = journal.read(keep - FRAME_ENTRY.size, FRAME_ENTRY.size)
        address, length, _ = FRAME_ENTRY.unpack(entry)
        if address + length <= data_end:
            break
        keep -= FRAME_ENTRY.size
    if keep != size:
        journal.truncate(keep)


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

    1. append one ``DATA`` frame per chunk, fsync the archive;
    2. append the ``RECYCLE`` frame advancing the boundary, fsync;
    3. publish the boundary to readers (GIL-atomic store) and recycle
       the hot prefix through the storage poison hooks.

    A crash between 1 and 2 leaves unratified data frames that reopen
    truncates — the hot chunks stay authoritative.  A crash after 2 is
    complete: recovery serves the prefix from the archive.
    """

    def __init__(self, record_log: "RecordLog", tier: "TierConfig") -> None:
        self._record_log = record_log
        self._tier = tier
        self._gate = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def _eligible(self) -> List[Tuple[int, int, int, int]]:
        """Finalized chunks above the cold boundary whose bytes are fully
        persisted: ``(chunk_id, start_addr, end_addr, record_count)``."""
        log = self._record_log
        persisted = log.log.persisted_tail
        boundary = log.cold_boundary
        out: List[Tuple[int, int, int, int]] = []
        for summary in log.chunk_index.finalized_after(boundary):
            if summary.end_addr > persisted:
                break
            out.append(
                (
                    summary.chunk_id,
                    summary.start_addr,
                    summary.end_addr,
                    summary.record_count,
                )
            )
        return out

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
        records = 0
        raw = 0
        compressed = 0
        for chunk_id, start_addr, end_addr, _count in eligible:
            region = bytes(log.log.read(start_addr, end_addr - start_addr))
            entry = archive.append_chunk(chunk_id, start_addr, end_addr, region)
            records += entry.record_count
            raw += entry.raw_len
            compressed += entry.compressed_len
        archive.sync()
        boundary = eligible[-1][2]
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

    # -- optional background thread --------------------------------------
    def start(self, interval_s: float = 0.05) -> None:
        """Run migration passes on a background thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(interval_s):
                self.run_once()

        self._thread = threading.Thread(
            target=_loop, name="loom-migrator", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None


def retire_mode_name(mode: int) -> str:
    return _RETIRE_NAMES.get(mode, "none")
