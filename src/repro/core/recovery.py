"""Recovery: rebuilding Loom's in-memory state from persisted logs.

Loom's durability story (paper §4.5) is deliberate: the hybrid log flushes
blocks to persistent storage to *bound memory*, not to guarantee
durability of the freshest data — a crash loses at most the active
in-memory block.  Everything that did reach storage, however, is fully
self-describing: the record log carries CRC-framed records, the chunk
index carries serialized summaries, and the timestamp index carries
fixed-size entries.  Sidecar *frame journals* additionally checksum every
flushed extent, so bulk bit-rot is detectable without decoding a byte.

This module rebuilds a queryable view from those persisted bytes:

* :func:`scan_persisted_records` — decode (and CRC-verify) every record in
  a persisted record log (the crash-forensics primitive: "use Loom to
  diagnose the crash using data it received", §4.5).
* :func:`verify_frames` — check every journaled flush extent's checksum.
* :func:`recover` — reconstruct a full :class:`RecoveredState` from *one
  decode* of the record log into columns: per-source chains and counts,
  decoded chunk summaries, timestamp entries, the unsummarized tail
  (everything warm restart needs), with consistency cross-checks between
  the three logs, all as array operations over those columns.  With
  ``repair=True`` it *truncates* each log at the first torn or corrupt
  frame (and trims cross-log references past the cut) instead of
  raising, leaving clean prefixes a reopened instance can append to.
* :func:`check_data_dir` — offline integrity check of a whole data
  directory, returning a typed :class:`CheckReport`; this drives the
  ``fsck`` / ``recover`` CLI subcommands.

When a data directory has a cold tier (an ``archive.log``), recovery
scans the archive frames *first*: the archive's ratified ``RECYCLE``
boundary says where the hot record log's authoritative prefix was
recycled, and ``RETIRE`` frames carry the retention floor.  The live
archive chunks decode to the same columns the hot suffix does, and the
two are concatenated before anything is counted — so recovered
per-source counts cover *retained* records (records dropped by
retention are gone by design and are no longer counted).

Without ``repair``, recovery is read-only: it never mutates the persisted
logs, so it can run against a live instance's files (e.g. from a second
process post-mortem).  Corruption raises :class:`CorruptionError` naming
the offending address.
"""

from __future__ import annotations

import os
import struct
from binascii import crc32
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .archive import (
    RETIRE_DOWNSAMPLE,
    ArchiveScan,
    decode_frame,
    scan_archive_frames,
)
from .chunk_index import STATE_LIVE, STATE_SUMMARY_ONLY
from .config import LoomConfig
from .errors import CorruptionError, LoomError
from .hybridlog import FRAME_ENTRY, NULL_ADDRESS, journal_entries, trim_journal
from .metrics import MetricsRegistry
from .record import Record
from .record_log import RegionColumns, decode_region
from .storage import FileStorage, Storage
from .summary import ChunkSummary, group_rows
from .timestamp_index import KIND_CHUNK, KIND_RECORD

_LEN = struct.Struct("<I")
_TS_ENTRY = struct.Struct("<QBIQ")

#: One recovered record, as the columns recovery folds: its address,
#: source id, timestamp and payload length.
ROW_DTYPE = np.dtype([("addr", "<u8"), ("sid", "<u4"), ("ts", "<u8"), ("len", "<u4")])


def _rows(columns: RegionColumns) -> np.ndarray:
    rows = np.empty(len(columns), ROW_DTYPE)
    rows["addr"] = columns.addresses
    rows["sid"] = columns.source_ids
    rows["ts"] = columns.timestamps
    rows["len"] = columns.lengths
    return rows


@dataclass
class RecoveredSource:
    """What recovery learned about one source from the record log."""

    source_id: int
    record_count: int = 0
    first_timestamp: int = 0
    last_timestamp: int = 0
    #: Address of the newest persisted record (chain head).
    last_addr: int = NULL_ADDRESS
    #: Total payload bytes this source ingested (headers excluded).
    bytes_ingested: int = 0


@dataclass
class RecoveredState:
    """A reconstructed, queryable view of persisted Loom state.

    Beyond the post-mortem fields, this carries everything
    :meth:`~repro.core.record_log.RecordLog.reopen` needs to resume a
    *writable* instance: the unsummarized tail records, the address where
    summary coverage ends, and each source's position in the
    timestamp-index sampling interval.
    """

    sources: Dict[int, RecoveredSource] = field(default_factory=dict)
    summaries: List[ChunkSummary] = field(default_factory=list)
    #: Retention state per entry of :attr:`summaries` (``STATE_LIVE`` or
    #: ``STATE_SUMMARY_ONLY`` — fully retired summaries are dropped before
    #: restore and counted in :attr:`retired_chunks`).
    summary_states: List[int] = field(default_factory=list)
    timestamp_entries: List[Tuple[int, int, int, int]] = field(default_factory=list)
    total_records: int = 0
    record_bytes: int = 0
    #: Cold tier: record-log prefix recycled into the archive (0 = none).
    recycled_upto: int = 0
    #: Cold tier: retention floor below which records were retired.
    retention_floor: int = 0
    #: Raw retention mode from the last ``RETIRE`` frame (0 = none).
    retention_mode: int = 0
    retention_keep_every: int = 1
    #: Live (non-retired) archived chunks adopted from the archive log.
    archived_chunks: int = 0
    #: Summaries fully retired by retention (dropped from ``summaries``).
    retired_chunks: int = 0
    archive_raw_bytes: int = 0
    archive_compressed_bytes: int = 0
    #: Records seen in the record log but not covered by any finalized
    #: summary (they were in the active chunk(s) when the instance stopped).
    unsummarized_records: int = 0
    #: The unsummarized records as :data:`ROW_DTYPE` columns (``addr``,
    #: ``sid``, ``ts``, ``len``), in address order — warm restart refolds
    #: these into chunk summaries.
    unsummarized_tail: np.ndarray = field(default_factory=lambda: np.empty(0, ROW_DTYPE))
    #: Record-log address where finalized-summary coverage ends.
    covered_addr: int = 0
    #: Per source: records ingested since its last timestamp-index RECORD
    #: entry (restores the sampling interval's phase on reopen).
    records_since_ts_entry: Dict[int, int] = field(default_factory=dict)
    #: Human-readable description of every repair action taken.
    repairs: List[str] = field(default_factory=list)
    #: Non-fatal observations (e.g. an unratified archive suffix the hot
    #: log stays authoritative for) — populated even without ``repair``.
    findings: List[str] = field(default_factory=list)

    def chain(self, source_id: int) -> Optional[int]:
        source = self.sources.get(source_id)
        return source.last_addr if source else None


def _persisted_region(storage: Storage, start: int) -> bytes:
    """Every persisted byte from ``start`` on, as one read."""
    size = storage.size - start
    if size <= 0:
        return b""
    return storage.read(start, size)


def scan_persisted_records(
    storage: Storage, verify_crc: bool = True, start: int = 0
) -> Iterator[Record]:
    """Decode every fully persisted record in a record-log storage.

    A crash can leave a torn record at the very end of storage (part of
    the active block flushed by ``close``, or a partial block write); the
    scan stops cleanly at the first frame that does not fully fit.

    With ``verify_crc`` (default), each record's header checksum is
    validated against its bytes; a mismatch raises
    :class:`CorruptionError` carrying the record's address.

    ``start`` skips a recycled prefix (bytes migrated to the cold tier and
    reclaimed): chunks end on record boundaries, so the cold boundary is
    always a valid scan origin.

    The records are the rows of one :func:`decode_region` over the
    persisted bytes, so the whole log is checked before the first yield.
    """
    columns = decode_region(_persisted_region(storage, start), start, verify_crc)
    rows = zip(
        columns.source_ids.tolist(),
        columns.timestamps.tolist(),
        columns.prev_addrs.tolist(),
        columns.addresses.tolist(),
    )
    for i, (source_id, timestamp, prev_addr, address) in enumerate(rows):
        yield Record(source_id, timestamp, prev_addr, columns.payload_view(i), address)


def scan_persisted_summaries(storage: Storage) -> Iterator[ChunkSummary]:
    """Decode every fully persisted chunk summary in a chunk-index storage."""
    for _offset, summary in _scan_summaries_with_offsets(storage):
        yield summary


def _scan_summaries_with_offsets(
    storage: Storage,
) -> Iterator[Tuple[int, ChunkSummary]]:
    address = 0
    end = storage.size
    while address + _LEN.size <= end:
        (length,) = _LEN.unpack(storage.read(address, _LEN.size))
        if address + _LEN.size + length > end:
            return
        yield address, ChunkSummary.decode(storage.read(address + _LEN.size, length))
        address += _LEN.size + length


def scan_persisted_timestamps(storage: Storage) -> Iterator[Tuple[int, int, int, int]]:
    """Decode every fully persisted timestamp-index entry."""
    return _TS_ENTRY.iter_unpack(storage.read(0, storage.size - storage.size % _TS_ENTRY.size))


def verify_frames(
    storage: Storage, journal: Storage, label: str = "log", start: int = 0
) -> int:
    """CRC-check every flush extent recorded in a frame journal.

    Frames must tile the data log contiguously from address 0; bytes past
    the last journaled frame are tolerated (they are covered by record
    CRCs, or are a torn flush a record-level scan will truncate).  Returns
    the number of frames verified; raises :class:`CorruptionError` on the
    first mismatch.

    ``start`` marks a recycled prefix: frames at or below it keep their
    contiguity (tiling) checks but skip the CRC — their bytes were handed
    to the cold tier and may have been reclaimed, so the
    archive, not the journal, vouches for that data now.  A frame
    straddling ``start`` is likewise contiguity-checked only.
    """
    frames = 0
    expected = 0
    for address, length, stored in journal_entries(journal):
        if address != expected:
            raise CorruptionError(
                f"{label}: frame journal entry {frames} covers address "
                f"{address}, expected {expected} (frames must tile the log)",
                address=expected,
            )
        if address + length > storage.size:
            raise CorruptionError(
                f"{label}: frame at {address} (+{length}) extends past "
                f"persisted size {storage.size}",
                address=address,
            )
        if address >= start and crc32(storage.read(address, length)) != stored:
            raise CorruptionError(
                f"{label}: flushed extent [{address}, {address + length}) "
                f"fails its frame CRC",
                address=address,
            )
        frames += 1
        expected = address + length
    return frames


def _repair_frames(
    storage: Storage,
    journal: Storage,
    label: str,
    repairs: List[str],
    start: int = 0,
) -> None:
    """Repair-mode frame verification.

    Distinguishes two failure shapes:

    * a frame extending *past* the persisted size is a torn tail — the
      crash cut the data file short.  Only the journal is trimmed; the
      surviving data bytes stay, because the per-record scan (with its
      own CRCs) is the authority on where valid data ends.
    * a frame whose bytes fail their CRC (or a contiguity gap) is genuine
      corruption — the data log is truncated at the frame start and the
      journal trimmed to match.
    """
    jsize = journal.size
    if jsize % FRAME_ENTRY.size:
        journal.truncate(jsize - jsize % FRAME_ENTRY.size)
        repairs.append(f"{label}: dropped torn frame-journal tail entry")
    expected = 0
    for i, (address, length, stored) in enumerate(journal_entries(journal)):
        offset = i * FRAME_ENTRY.size
        if address + length > storage.size:
            # Torn data tail: drop this and all later journal entries.
            journal.truncate(offset)
            repairs.append(
                f"{label}: dropped frame entries past persisted size "
                f"{storage.size} (torn tail)"
            )
            return
        if address != expected or (
            address >= start and crc32(storage.read(address, length)) != stored
        ):
            cut = min(expected, address)
            storage.truncate(cut)
            journal.truncate(offset)
            repairs.append(f"{label}: truncated at corrupt frame (address {cut})")
            return
        expected = address + length


def recover(
    record_storage: Storage,
    chunk_storage: Optional[Storage] = None,
    timestamp_storage: Optional[Storage] = None,
    verify: bool = True,
    repair: bool = False,
    record_journal: Optional[Storage] = None,
    chunk_journal: Optional[Storage] = None,
    timestamp_journal: Optional[Storage] = None,
    metrics: Optional[MetricsRegistry] = None,
    archive_storage: Optional[Storage] = None,
    archive_journal: Optional[Storage] = None,
) -> RecoveredState:
    """Rebuild state from persisted logs; optionally cross-check and repair.

    With ``verify=True`` (default), recovery CRC-checks every record (and
    every journaled flush frame, when a journal is given), checks that
    every finalized summary's per-source record counts match a recount
    from the record log over the summary's address range, and checks the
    cross-log references (summaries within the record log, timestamp
    entries pointing at real records).  Corruption raises
    :class:`CorruptionError` naming the offending address rather than
    returning silently wrong state.

    With ``repair=True``, instead of raising, each log is *truncated* at
    its first torn or corrupt frame and cross-log references past the cut
    are trimmed, so the surviving prefix is internally consistent and a
    reopened instance can append to it.  Every action is recorded in
    :attr:`RecoveredState.repairs`.

    The record log is decoded exactly **once**, by
    :func:`~repro.core.record_log.decode_region`, into columns; the
    per-source fold, summary recounts, the unsummarized tail and
    timestamp-interval phases are array operations over them.

    ``metrics``, when given, receives per-phase duration gauges
    (``loom.recovery.phase_ns`` labelled by phase name) and a
    ``loom.recovery.repairs_total`` counter, so a reopened instance's
    introspection surface can answer "what did recovery cost".

    ``archive_storage`` (with its optional sidecar ``archive_journal``)
    brings the cold tier into the picture: its frames are scanned *first*
    to learn the recycled boundary and retention floor, live archived
    chunks decode to the same columns as the hot suffix and are
    concatenated ahead of it, and the hot decode starts at the recycled
    boundary.  With
    ``repair=True`` an unratified archive suffix (data frames whose
    covering ``RECYCLE`` never made it to disk) is truncated — the hot
    log is still authoritative for those chunks, so nothing is lost.
    """
    state = RecoveredState()
    repairs = state.repairs

    def _phase(name: str) -> "ContextManager[object]":
        if metrics is None:
            return nullcontext()
        return metrics.phase("loom.recovery.phase_ns", labels={"phase": name})

    # ------------------------------------------------------------------
    # -1. Archive frames: the cold tier's self-describing walk tells us
    #     where the hot log's recycled prefix ends and what retention
    #     already retired, before any hot-log phase runs.
    # ------------------------------------------------------------------
    parts: List[np.ndarray] = []
    with _phase("archive_scan"):
        if archive_storage is not None and archive_storage.size > 0:
            parts = _recover_archive(
                state, archive_storage, archive_journal, verify=verify, repair=repair
            )

    # ------------------------------------------------------------------
    # 0. Frame journals: bulk bit-rot check per log (cheap, no decoding).
    #    The record log's recycled prefix is exempt from CRCs — its bytes
    #    now live in the archive and may have been reclaimed.
    # ------------------------------------------------------------------
    with _phase("frames"):
        for storage, journal, label, skip in (
            (record_storage, record_journal, "record log", state.recycled_upto),
            (chunk_storage, chunk_journal, "chunk index", 0),
            (timestamp_storage, timestamp_journal, "timestamp index", 0),
        ):
            if storage is None or journal is None:
                continue
            if repair:
                _repair_frames(storage, journal, label, repairs, start=skip)
            elif verify:
                verify_frames(storage, journal, label=label, start=skip)

    # ------------------------------------------------------------------
    # 1. Timestamp entries (with offsets, for potential truncation).
    # ------------------------------------------------------------------
    ts_entries: List[Tuple[int, int, int, int]] = []
    with _phase("timestamp_scan"):
        if timestamp_storage is not None:
            ts_entries = list(scan_persisted_timestamps(timestamp_storage))
            torn = timestamp_storage.size - len(ts_entries) * _TS_ENTRY.size
            if torn and repair:
                timestamp_storage.truncate(len(ts_entries) * _TS_ENTRY.size)
                trim_journal(timestamp_journal, timestamp_storage.size)
                repairs.append(f"timestamp index: dropped {torn}-byte torn tail")

    # ------------------------------------------------------------------
    # 2. Chunk summaries (with offsets, for potential truncation).
    # ------------------------------------------------------------------
    summary_offsets: List[int] = []
    summaries: List[ChunkSummary] = []
    with _phase("summary_scan"):
        if chunk_storage is not None:
            for offset, summary in _scan_summaries_with_offsets(chunk_storage):
                summary_offsets.append(offset)
                summaries.append(summary)
            scanned_end = (
                summary_offsets[-1]
                + _LEN.size
                + summaries[-1].encoded_size
                if summaries
                else 0
            )
            if repair and scanned_end < chunk_storage.size:
                chunk_storage.truncate(scanned_end)
                trim_journal(chunk_journal, chunk_storage.size)
                repairs.append("chunk index: dropped torn tail summary")

    # ------------------------------------------------------------------
    # 3. THE one decode of the record log, into columns; everything
    #    downstream is array operations over them.  The decode starts at
    #    the recycled boundary (chunks end on record boundaries, so it is
    #    a valid origin); records below it come from the archive decode
    #    in phase -1 and are concatenated ahead of it.
    # ------------------------------------------------------------------
    scan_start = state.recycled_upto
    with _phase("record_scan"):
        buffer = _persisted_region(record_storage, scan_start)
        try:
            hot = decode_region(buffer, scan_start, verify)
        except CorruptionError as exc:
            if not repair:
                raise
            repairs.append(
                f"record log: truncated at corrupt record (address {exc.address})"
            )
            hot = decode_region(buffer[: exc.address - scan_start], scan_start)
        valid_end = scan_start + hot.extent
        records = np.concatenate(parts + [_rows(hot)])
        if repair and valid_end < record_storage.size:
            torn = record_storage.size - valid_end
            record_storage.truncate(valid_end)
            trim_journal(record_journal, valid_end)
            if not any(r.startswith("record log: truncated") for r in repairs):
                repairs.append(f"record log: dropped {torn}-byte torn tail")
        _fold_sources(state, records)
        state.record_bytes = valid_end

    # ------------------------------------------------------------------
    # 4. Cross-check summaries against the (possibly truncated) record
    #    log, then recount per summary range from the decoded rows.
    # ------------------------------------------------------------------
    with _phase("summary_check"):
        _recover_summaries(
            state,
            records,
            summaries,
            summary_offsets,
            chunk_storage,
            chunk_journal,
            valid_end,
            verify=verify,
            repair=repair,
        )

    # ------------------------------------------------------------------
    # 5. Timestamp-index cross-checks and interval phases.
    # ------------------------------------------------------------------
    with _phase("timestamp_check"):
        _recover_timestamps(
            state,
            records,
            ts_entries,
            timestamp_storage,
            timestamp_journal,
            chunk_storage,
            valid_end,
            verify=verify,
            repair=repair,
        )

    if metrics is not None and state.repairs:
        metrics.counter(
            "loom.recovery.repairs_total", "repair actions taken by recovery"
        ).inc(len(state.repairs))

    return state


def _recover_archive(
    state: RecoveredState,
    archive_storage: Storage,
    archive_journal: Optional[Storage],
    verify: bool,
    repair: bool,
) -> List[np.ndarray]:
    """Phase -1 of :func:`recover`: adopt the cold tier.

    Walks the archive's self-describing frames, repairs (truncates) the
    unratified suffix when asked, and returns every live ratified chunk
    decoded to rows — the same columns the hot decode produces, so every
    downstream phase treats cold and hot records uniformly.
    """
    if archive_journal is not None:
        if repair:
            _repair_frames(
                archive_storage, archive_journal, "archive", state.repairs
            )
        elif verify:
            verify_frames(archive_storage, archive_journal, label="archive")
    scan: ArchiveScan = scan_archive_frames(archive_storage)
    state.findings.extend(scan.findings)
    if repair and archive_storage.size > scan.ratified_end:
        dropped = archive_storage.size - scan.ratified_end
        archive_storage.truncate(scan.ratified_end)
        trim_journal(archive_journal, scan.ratified_end)
        state.repairs.append(
            f"archive: truncated {dropped}-byte unratified suffix "
            f"(hot log stays authoritative for it)"
        )
    state.recycled_upto = scan.recycled_upto
    state.retention_floor = scan.retention_floor
    state.retention_mode = scan.retention_mode
    state.retention_keep_every = scan.retention_keep_every
    live = [entry for entry in scan.ratified_entries if not entry.retired]
    state.archived_chunks = len(live)
    state.archive_raw_bytes = sum(entry.raw_len for entry in live)
    state.archive_compressed_bytes = sum(entry.compressed_len for entry in live)
    return [_rows(decode_frame(archive_storage, entry)) for entry in live]


def _fold_sources(state: RecoveredState, records: np.ndarray) -> None:
    """Per-source counts, payload bytes, first/last timestamps and chain
    heads, from one grouping of the source column."""
    sids, first, last, inverse = group_rows(records["sid"])
    counts = np.bincount(inverse, minlength=len(sids))
    payload = np.bincount(inverse, weights=records["len"], minlength=len(sids))
    timestamps = records["ts"]
    for sid, count, nbytes, t_first, t_last, head in zip(
        sids.tolist(),
        counts.tolist(),
        payload.astype(np.int64).tolist(),
        timestamps[first].tolist(),
        timestamps[last].tolist(),
        records["addr"][last].tolist(),
    ):
        state.sources[sid] = RecoveredSource(sid, count, t_first, t_last, head, nbytes)
    state.total_records = len(records)


def _recover_summaries(
    state: RecoveredState,
    records: np.ndarray,
    summaries: List[ChunkSummary],
    summary_offsets: List[int],
    chunk_storage: Optional[Storage],
    chunk_journal: Optional[Storage],
    valid_end: int,
    verify: bool,
    repair: bool,
) -> None:
    """Phase 4 of :func:`recover`: adopt summaries consistent with the
    record log (truncating or raising on the inconsistent suffix), then
    fold the retention floor in: fully retired summaries are dropped
    (counted in ``retired_chunks``), downsample-kept ones marked
    summary-only."""
    repairs = state.repairs
    if chunk_storage is not None:
        kept = next(
            (i for i, summary in enumerate(summaries) if summary.end_addr > valid_end),
            len(summaries),
        )
        if kept < len(summaries):
            if repair:
                chunk_storage.truncate(summary_offsets[kept])
                trim_journal(chunk_journal, chunk_storage.size)
                repairs.append(
                    f"chunk index: dropped {len(summaries) - kept} summaries "
                    f"past record-log end {valid_end}"
                )
                summaries = summaries[:kept]
            elif verify:
                bad = summaries[kept]
                raise CorruptionError(
                    f"summary for chunk {bad.chunk_id} covers up to address "
                    f"{bad.end_addr} but the record log ends at {valid_end}",
                    address=bad.end_addr,
                )
            else:
                summaries = summaries[:kept]
        covered_addr = summaries[-1].end_addr if summaries else 0
        # Retention reconciliation: the floor is persisted in the archive's
        # RETIRE frames; the chunk index itself is append-only and still
        # holds retired summaries.  Recovery (unlike the runtime mirror,
        # which keeps positions stable) drops them here, before restore.
        live: List[ChunkSummary] = summaries
        states: List[int] = [STATE_LIVE] * len(summaries)
        if state.retention_floor > 0:
            downsample = state.retention_mode == RETIRE_DOWNSAMPLE
            keep_every = max(1, state.retention_keep_every)
            live = []
            states = []
            for summary in summaries:
                if summary.end_addr <= state.retention_floor:
                    if downsample and summary.chunk_id % keep_every == 0:
                        live.append(summary)
                        states.append(STATE_SUMMARY_ONLY)
                    else:
                        state.retired_chunks += 1
                else:
                    live.append(summary)
                    states.append(STATE_LIVE)
        state.summaries = live
        state.summary_states = states
        state.covered_addr = covered_addr
        state.unsummarized_tail = records[records["addr"] >= covered_addr]
        state.unsummarized_records = len(state.unsummarized_tail)
        if verify:
            _verify_summaries(records, live, states)


def _recover_timestamps(
    state: RecoveredState,
    records: np.ndarray,
    ts_entries: List[Tuple[int, int, int, int]],
    timestamp_storage: Optional[Storage],
    timestamp_journal: Optional[Storage],
    chunk_storage: Optional[Storage],
    valid_end: int,
    verify: bool,
    repair: bool,
) -> None:
    """Phase 5 of :func:`recover`: timestamp-index cross-checks and
    per-source sampling-interval phases."""
    repairs = state.repairs
    if timestamp_storage is not None:
        kept_entries = next(
            (i for i, (_ts, kind, _sid, addr) in enumerate(ts_entries)
             if kind == KIND_RECORD and addr >= valid_end),
            len(ts_entries),
        )
        if kept_entries < len(ts_entries):
            if repair:
                timestamp_storage.truncate(kept_entries * _TS_ENTRY.size)
                trim_journal(timestamp_journal, timestamp_storage.size)
                repairs.append(
                    f"timestamp index: dropped {len(ts_entries) - kept_entries} "
                    f"entries past record-log end {valid_end}"
                )
                ts_entries = ts_entries[:kept_entries]
            elif verify:
                _ts, _k, sid, addr = ts_entries[kept_entries]
                raise CorruptionError(
                    f"timestamp index RECORD entry for source {sid} points at "
                    f"address {addr} but the record log ends at {valid_end}",
                    address=addr,
                )
            else:
                ts_entries = ts_entries[:kept_entries]
        state.timestamp_entries = ts_entries
        if chunk_storage is not None:
            chunk_events = [i for i, entry in enumerate(ts_entries) if entry[1] == KIND_CHUNK]
            # Every finalized summary wrote exactly one CHUNK event; the
            # timestamp log may trail by in-memory entries lost in a crash.
            # Retired summaries were dropped from state.summaries but their
            # CHUNK events are still in the (append-only) timestamp log.
            persisted = len(state.summaries) + state.retired_chunks
            if len(chunk_events) > persisted:
                if repair:
                    cut = chunk_events[persisted]
                    timestamp_storage.truncate(cut * _TS_ENTRY.size)
                    trim_journal(timestamp_journal, timestamp_storage.size)
                    repairs.append(
                        f"timestamp index: dropped {len(ts_entries) - cut} "
                        f"entries (chunk events without summaries)"
                    )
                    ts_entries = ts_entries[:cut]
                    state.timestamp_entries = ts_entries
                elif verify:
                    raise CorruptionError(
                        f"timestamp index records {len(chunk_events)} chunk events "
                        f"but only {persisted} summaries were persisted"
                    )
        # Per-source sampling phase: records since the last RECORD entry.
        # The ids that have one are sorted, ahead of a sentinel above
        # every u32 id, so each row finds its own with one searchsorted.
        last_entry_addr = {
            sid: addr for _ts, kind, sid, addr in ts_entries if kind == KIND_RECORD
        }
        sids = sorted(last_entry_addr)
        keys = np.array(sids + [1 << 32], np.int64)
        lasts = np.array([last_entry_addr[sid] for sid in sids] + [NULL_ADDRESS], np.uint64)
        pos = np.searchsorted(keys, records["sid"])
        after = (keys[pos] == records["sid"]) & (records["addr"] > lasts[pos])
        since = np.bincount(pos[after], minlength=len(sids))
        state.records_since_ts_entry = dict(zip(sids, since.tolist()))


def _verify_summaries(
    records: np.ndarray,
    summaries: List[ChunkSummary],
    states: Optional[List[int]] = None,
) -> None:
    """Recount records per summary range (from the already-decoded rows)
    and compare with summary claims.  Each row finds its summary with one
    ``searchsorted`` over the end addresses, and one count over
    ``(summary, source)`` keys does the rest.  Summary-only chunks are
    exempt: their raw records were dropped by retention, so the recount
    is zero by design."""
    addrs = records["addr"]
    starts = np.array([s.start_addr for s in summaries], np.uint64)
    ends = np.array([s.end_addr for s in summaries], np.uint64)
    pos = np.searchsorted(ends, addrs, side="right")
    inside = pos < len(summaries)
    inside[inside] = addrs[inside] >= starts[pos[inside]]
    keys, counts = np.unique((pos[inside] << 32) | records["sid"][inside], return_counts=True)
    counted = dict(zip(keys.tolist(), counts.tolist()))
    for i, summary in enumerate(summaries):
        if states is not None and states[i] != STATE_LIVE:
            continue
        for source_id, info in summary.sources.items():
            actual = counted.get(i << 32 | source_id, 0)
            if actual != info.record_count:
                raise CorruptionError(
                    f"summary for chunk {summary.chunk_id} claims "
                    f"{info.record_count} records of source {source_id}, "
                    f"record log holds {actual}",
                    address=summary.start_addr,
                )


@dataclass(frozen=True)
class LogCheck:
    """Presence and on-disk size of one persisted log file."""

    label: str
    path: Optional[str]
    present: bool
    size_bytes: int


@dataclass
class CheckReport:
    """Typed result of an offline data-directory integrity check.

    The single return shape behind the CLI's ``fsck`` and ``recover``
    subcommands: which log files exist and how large they are, the
    reconstructed :class:`RecoveredState` (when the check got that far),
    and — on corruption without ``repair`` — the error instead of a
    raise, so callers render a report and choose an exit code.
    """

    data_dir: str
    repair: bool
    logs: List[LogCheck] = field(default_factory=list)
    state: Optional[RecoveredState] = None
    error: Optional[CorruptionError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def repairs(self) -> List[str]:
        return self.state.repairs if self.state is not None else []

    @property
    def findings(self) -> List[str]:
        return self.state.findings if self.state is not None else []


def check_data_dir(
    data_dir: str,
    repair: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> CheckReport:
    """Offline integrity check (and optional repair) of a data directory.

    Opens every log file present under ``data_dir`` (record log, chunk
    index, timestamp index, cold-tier archive, and their ``.crc`` frame
    journals) and runs :func:`recover` with full verification, folding
    the outcome into a :class:`CheckReport`.  A missing record log raises
    :class:`LoomError` (there is nothing to check); corruption is
    *captured* on the report rather than raised, so the CLI can print a
    structured verdict.  ``metrics`` is forwarded to :func:`recover` for
    per-phase timing.
    """
    cfg = LoomConfig(data_dir=data_dir)
    report = CheckReport(data_dir=data_dir, repair=repair)
    for label, path in _data_files(cfg):
        size = os.path.getsize(path) if path is not None and os.path.exists(path) else None
        report.logs.append(LogCheck(label, path, size is not None, size or 0))
    try:
        report.state = recover_data_dir(cfg, verify=True, repair=repair, metrics=metrics)
    except CorruptionError as exc:
        report.error = exc
    return report


def _data_files(cfg: LoomConfig) -> List[Tuple[str, Optional[str]]]:
    """Every file of a data dir, labelled, in report order."""
    return [
        ("record log", cfg.record_log_path()),
        ("chunk index", cfg.chunk_index_path()),
        ("timestamp index", cfg.timestamp_index_path()),
        ("archive log", cfg.archive_log_path()),
        ("record-log journal", cfg.record_log_journal_path()),
        ("chunk-index journal", cfg.chunk_index_journal_path()),
        ("timestamp-index journal", cfg.timestamp_index_journal_path()),
        ("archive journal", cfg.archive_journal_path()),
    ]


def recover_data_dir(
    cfg: LoomConfig,
    verify: bool = True,
    repair: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> RecoveredState:
    """:func:`recover` over every file of ``cfg.data_dir`` that exists,
    each opened by its label and closed afterwards; the one place the
    data-dir files meet :func:`recover`'s parameters.  A missing record
    log raises :class:`LoomError` (there is nothing to recover)."""
    record_path = cfg.record_log_path()
    if record_path is None or not os.path.exists(record_path):
        raise LoomError(f"no record log at {record_path!r}")
    files: Dict[str, Storage] = {
        label: FileStorage(path)
        for label, path in _data_files(cfg)
        if path is not None and os.path.exists(path)
    }
    try:
        return recover(
            files["record log"],
            chunk_storage=files.get("chunk index"),
            timestamp_storage=files.get("timestamp index"),
            verify=verify,
            repair=repair,
            record_journal=files.get("record-log journal"),
            chunk_journal=files.get("chunk-index journal"),
            timestamp_journal=files.get("timestamp-index journal"),
            metrics=metrics,
            archive_storage=files.get("archive log"),
            archive_journal=files.get("archive journal"),
        )
    finally:
        for storage in files.values():
            storage.close()
