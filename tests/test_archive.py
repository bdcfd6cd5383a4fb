"""The compressed cold tier: archive codec, migration, retention, and the
unified tiered-storage surface.

ACCEPTANCE scenarios for the tiered-storage API:

* the archive codec decodes a frame into exactly the columns
  ``region_columns`` decodes from the original region, and re-framing
  those columns rebuilds the region *byte-identically* (framing and CRCs
  are deterministic functions of the columns) — checked against the
  original per-record encode and decode loops, kept here as the
  reference codec;
* migrating finalized chunks into the archive changes no query answer,
  and the cold read path decompresses only the chunks a query actually
  needs (counter-backed: summary-only aggregates decompress nothing);
* a zero-copy scan view that outlives a migration pass raises a typed
  :class:`StaleViewError` naming the borrow site, and a rescan after the
  migration returns byte-identical records;
* retention (drop and downsample) makes retired data invisible while
  downsampled summaries keep distributive aggregates exact;
* a data directory with an archive reopens to the same answers, and the
  typed ``check_data_dir`` report covers all eight files.
"""

from __future__ import annotations

import struct
import warnings
from typing import Iterator, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import (
    FLAG_TRANSPOSED,
    decode_chunk_region,
    encode_chunk_streams,
    encode_region,
)
from repro.core.chunk_index import STATE_SUMMARY_ONLY
from repro.core.clock import VirtualClock
from repro.core.config import LoomConfig, RetentionPolicy, TierConfig
from repro.core.errors import AddressError, CorruptionError, LoomError, StaleViewError
from repro.core.hybridlog import NULL_ADDRESS
from repro.core.loom import Loom
from repro.core.operators import QueryStats
from repro.core.record import HEADER_SIZE, decode_header, encode_record
from repro.core.record_log import RecordLog, decode_region
from repro.core.recovery import check_data_dir

_VALUE = struct.Struct("<d")
EDGES = [0.0, 25.0, 50.0, 75.0, 100.0]
ALL_TIME = (0, 2**62)


def _payload(value, pad=40):
    return _VALUE.pack(float(value)) + b"\x00" * pad


def _index_func(payload):
    return _VALUE.unpack_from(payload)[0]


def _tiered_config(tmp_path=None, **overrides):
    kwargs = dict(
        chunk_size=2048,
        record_block_size=4096,
        timestamp_interval=4,
        tier=TierConfig(migrate_high_watermark=4, migrate_low_watermark=1),
    )
    if tmp_path is not None:
        kwargs["data_dir"] = str(tmp_path)
    kwargs.update(overrides)
    return LoomConfig(**kwargs)


def _fill(loom, clock, count=600, sources=(1, 2)):
    """Push ``count`` float records round-robin over ``sources``."""
    index_ids = {}
    for sid in sources:
        loom.define_source(sid)
        index_ids[sid] = loom.define_index(sid, _index_func, EDGES)
    for i in range(count):
        sid = sources[i % len(sources)]
        loom.push(sid, _payload(i % 100))
        clock.advance(10)
    loom.sync()
    return index_ids


# ----------------------------------------------------------------------
# Codec: columns out of the frame, byte-identical round trips
# ----------------------------------------------------------------------
_NULL = 0xFFFF_FFFF_FFFF_FFFF


def _get_varint(data: bytes, pos: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _put_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


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


def encode_chunk_streams_scalar(
    region: bytes, start_addr: int
) -> Tuple[bytes, bytes, int, int]:
    """Reference encoder: one Python varint loop per column over the raw
    region, exact Python-int zigzag (up to 66 bits).

    The oracle for the whole-array :func:`encode_chunk_streams`: the
    streams match byte for byte wherever every delta-of-delta fits in
    i64; past that the columnar encoder zigzags the delta-of-delta mod
    2^64, which decodes to the same timestamps.
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


def _dods_fit_i64(region: bytes) -> bool:
    """Does every timestamp delta-of-delta of ``region`` fit in i64?"""
    timestamps = [ts for _a, _s, ts, _p, _l in iter_region_records(region, 0)]
    deltas = [0] + [b - a for a, b in zip(timestamps, timestamps[1:])]
    return all(-(2**63) <= b - a < 2**63 for a, b in zip(deltas, deltas[1:]))


def decode_chunk_region_scalar(
    header_stream: bytes,
    payload_blob: bytes,
    start_addr: int,
    record_count: int,
    raw_len: int,
    flags: int,
) -> bytes:
    """Reference decoder: one Python varint loop per column, then every
    record re-framed through ``encode_record``.

    The oracle for the whole-array :func:`decode_chunk_region`: the
    codec tests assert both decode the same frame to the same records.
    Timestamps are the u64 header field's, so they are taken mod 2^64
    (a delta-of-delta zigzagged mod 2^64 decodes to the same value).
    """
    pos = 0
    count, pos = _get_varint(header_stream, pos)
    if count != record_count:
        raise CorruptionError(
            f"archive frame record count mismatch ({count} != {record_count})",
            address=start_addr,
        )
    sids: List[int] = []
    for _ in range(count):
        sid, pos = _get_varint(header_stream, pos)
        sids.append(sid)
    timestamps: List[int] = []
    prev_ts = 0
    prev_delta = 0
    for i in range(count):
        if i == 0:
            prev_ts, pos = _get_varint(header_stream, pos)
            timestamps.append(prev_ts)
        else:
            dod, pos = _get_varint(header_stream, pos)
            prev_delta += _unzigzag(dod)
            prev_ts += prev_delta
            timestamps.append(prev_ts % 2**64)
    backs: List[int] = []
    for _ in range(count):
        back, pos = _get_varint(header_stream, pos)
        backs.append(back)
    lengths: List[int] = []
    for _ in range(count):
        length, pos = _get_varint(header_stream, pos)
        lengths.append(length)

    if flags & FLAG_TRANSPOSED and count > 0:
        width = len(payload_blob) // count
        payload_blob = (
            np.frombuffer(payload_blob, dtype=np.uint8)
            .reshape(width, count)
            .T.tobytes()
        )

    parts: List[bytes] = []
    address = start_addr
    payload_offset = 0
    for i in range(count):
        length = lengths[i]
        payload = payload_blob[payload_offset : payload_offset + length]
        payload_offset += length
        prev_addr = _NULL if backs[i] == 0 else address - backs[i]
        encoded = encode_record(sids[i], timestamps[i], prev_addr, payload)
        parts.append(encoded)
        address += len(encoded)
    region = b"".join(parts)
    if len(region) != raw_len:
        raise CorruptionError(
            f"archive frame decoded to {len(region)} bytes, expected {raw_len}",
            address=start_addr,
        )
    return region


_COLUMNS = ("source_ids", "timestamps", "prev_addrs", "lengths", "offsets")


def _assert_same_columns(got, want):
    assert got.start == want.start and len(got) == len(want)
    for name in _COLUMNS:
        column, expected = getattr(got, name), getattr(want, name)
        assert column.dtype == expected.dtype, name
        assert column.tolist() == expected.tolist(), name
    assert [bytes(got.payload_view(i)) for i in range(len(got))] == [
        bytes(want.payload_view(i)) for i in range(len(want))
    ]


def _region_at(region: bytes, start_addr: int) -> RecordLog:
    """A fresh in-memory record log holding ``region`` at ``start_addr``,
    after one padding record (so ``start_addr`` is 0 or at least one
    header)."""
    log = RecordLog(LoomConfig(), clock=VirtualClock())
    if start_addr:
        log.log.append(encode_record(0, 0, NULL_ADDRESS, bytes(start_addr - HEADER_SIZE)))
    log.log.append(region)
    log.log.publish()
    return log


class TestCodec:
    def _roundtrip(self, region, start_addr=0):
        """Frame columns == ``region_columns`` of the original region,
        both the re-framed columns and the reference decoder give the
        region back byte for byte, and the streams are the reference
        encoder's wherever every delta-of-delta fits in i64."""
        streams = encode_chunk_streams(decode_region(region, start_addr))
        if _dods_fit_i64(region):
            assert streams == encode_chunk_streams_scalar(region, start_addr)
        header, blob, count, flags = streams
        columns = decode_chunk_region(header, blob, start_addr, count, len(region), flags)
        log = _region_at(region, start_addr)
        try:
            _assert_same_columns(
                columns, log.region_columns(start_addr, start_addr + len(region))
            )
        finally:
            log.close()
        assert encode_region(columns) == region
        assert (
            decode_chunk_region_scalar(header, blob, start_addr, count, len(region), flags)
            == region
        )
        return header, blob

    def test_uniform_records_round_trip(self):
        region = b"".join(
            encode_record(7, 1_000 + 10 * i, NULL_ADDRESS if i == 0 else 28 * (i - 1), b"")
            for i in range(5)
        )
        self._roundtrip(region)

    def test_mixed_sources_and_payload_sizes(self):
        region = b""
        prev = {1: NULL_ADDRESS, 2: NULL_ADDRESS}
        ts = 5_000
        for i in range(40):
            sid = 1 + (i % 2)
            payload = bytes([i % 251]) * (i % 17)
            addr = len(region)
            region += encode_record(sid, ts, prev[sid], payload)
            prev[sid] = addr
            ts += (i * 37) % 113  # non-monotone deltas exercise zigzag
        self._roundtrip(region, start_addr=123 * 28)

    def test_empty_payloads_and_null_prevs(self):
        region = b"".join(
            encode_record(i + 1, 99, NULL_ADDRESS, b"") for i in range(8)
        )
        self._roundtrip(region)

    def test_fixed_width_payloads_transpose(self):
        region = b""
        for i in range(16):
            region += encode_record(3, 10 * i, NULL_ADDRESS, _VALUE.pack(float(i)))
        _header, _blob, _count, flags = encode_chunk_streams(decode_region(region, 0))
        assert flags & FLAG_TRANSPOSED
        self._roundtrip(region)

    def test_one_record_chunk(self):
        self._roundtrip(encode_record(5, 2**64 - 1, NULL_ADDRESS, b"solo"), start_addr=28)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, 2**32 - 1]),
                st.integers(0, 2**64 - 1),
                st.booleans(),
                st.binary(max_size=24),
            ),
            min_size=1,
            max_size=40,
        ),
        width=st.one_of(st.none(), st.integers(1, 16)),
        start_addr=st.one_of(st.just(0), st.integers(HEADER_SIZE, 512)),
    )
    def test_frame_columns_match_region_columns(self, rows, width, start_addr):
        """Mixed sources, NULL and chained prevs, arbitrary u64 timestamps
        (so delta-of-deltas of either sign, up to 66 bits zigzagged), and
        payloads that are either mixed widths, zeros included, or one
        fixed width (the transposed blob)."""
        region = b""
        last = {}
        for sid, timestamp, chained, payload in rows:
            if width is not None:
                payload = payload[:width].ljust(width, b"\x5a")
            prev = last.get(sid, NULL_ADDRESS) if chained else NULL_ADDRESS
            last[sid] = start_addr + len(region)
            region += encode_record(sid, timestamp, prev, payload)
        self._roundtrip(region, start_addr)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**62 - 1),
                st.booleans(),
                st.binary(max_size=24),
            ),
            min_size=1,
            max_size=60,
        ),
        start_addr=st.one_of(st.just(0), st.integers(HEADER_SIZE, 4096)),
    )
    def test_streams_match_the_scalar_encoder(self, rows, start_addr):
        """Timestamps below 2^62 keep every delta-of-delta inside i64, so
        the whole-array encoder must emit the reference encoder's streams
        byte for byte: the frame format is unchanged."""
        region = b""
        last = {}
        for sid, timestamp, chained, payload in rows:
            prev = last.get(sid, NULL_ADDRESS) if chained else NULL_ADDRESS
            last[sid] = start_addr + len(region)
            region += encode_record(sid, timestamp, prev, payload)
        assert encode_chunk_streams(
            decode_region(region, start_addr)
        ) == encode_chunk_streams_scalar(region, start_addr)

    def test_malformed_header_streams_raise_corruption(self):
        """A damaged varint stream is a typed error naming the chunk, not
        an ``IndexError`` or a silently short chunk."""
        region = b"".join(
            encode_record(1, 100 + i, NULL_ADDRESS, b"abc") for i in range(4)
        )
        header, blob, count, flags = encode_chunk_streams(decode_region(region, 56))

        def decode(stream=header, count=count, raw_len=len(region), payload=blob):
            with pytest.raises(CorruptionError) as exc_info:
                decode_chunk_region(stream, payload, 56, count, raw_len, flags)
            assert exc_info.value.address == 56

        decode(stream=header[:-1] + b"\x80")  # does not end on a terminator
        decode(stream=b"")
        decode(stream=header[:-1] + b"\xff" * 10 + b"\x01")  # 11-byte varint
        extra = bytearray(header)
        _put_varint(extra, 7)
        decode(stream=bytes(extra))  # 1 + 4n + 1 varints
        decode(count=count + 1)
        decode(stream=b"\x05" + header[1:])  # the count varint disagrees
        decode(raw_len=len(region) + 1)
        decode(payload=blob[:-1])

    def test_compression_beats_raw_on_telemetry_shapes(self):
        import zlib

        region = b""
        prev = NULL_ADDRESS
        for i in range(64):
            addr = len(region)
            region += encode_record(1, 1_000_000 + 250 * i, prev, _payload(i % 8))
            prev = addr
        header, blob, _count, _flags = encode_chunk_streams(decode_region(region, 0))
        compressed = len(zlib.compress(header, 6)) + len(zlib.compress(blob, 6))
        assert compressed * 4 <= len(region)


# ----------------------------------------------------------------------
# Migration: answers unchanged, reads stay targeted
# ----------------------------------------------------------------------
class TestMigration:
    def test_migration_preserves_every_answer(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        index_ids = _fill(loom, clock)
        before_scan = [
            (r.address, r.timestamp, bytes(r.payload))
            for r in loom.scan(1, ALL_TIME).records
        ]
        before_sum = loom.aggregate(1, index_ids[1], ALL_TIME, "sum").value
        before_p90 = loom.aggregate(
            1, index_ids[1], ALL_TIME, "percentile", percentile=90.0
        ).value

        report = loom.migrate(force=True)
        assert report.chunks_migrated > 0
        assert report.compressed_bytes < report.raw_bytes
        assert loom.record_log.cold_boundary == report.cold_boundary > 0

        after_scan = [
            (r.address, r.timestamp, bytes(r.payload))
            for r in loom.scan(1, ALL_TIME).records
        ]
        assert after_scan == before_scan
        assert loom.aggregate(1, index_ids[1], ALL_TIME, "sum").value == before_sum
        assert (
            loom.aggregate(
                1, index_ids[1], ALL_TIME, "percentile", percentile=90.0
            ).value
            == before_p90
        )
        loom.close()

    def test_summary_only_aggregate_decompresses_nothing(self):
        """The cold tier's "summaries first" guarantee, counter-backed: a
        whole-range distributive aggregate over migrated data answers
        from resident summaries with zero archive decompressions."""
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        index_ids = _fill(loom, clock)
        loom.migrate(force=True)
        assert loom.record_log.cold_boundary > 0

        snapshot = loom.snapshot()
        stats = QueryStats()
        from repro.core.operators import indexed_aggregate

        index = loom.record_log.get_index(index_ids[1])
        agg = indexed_aggregate(
            snapshot, 1, index, 0, clock.now(), "count", stats=stats
        )
        assert agg.count == 300
        assert stats.cold_chunks_decompressed == 0

    def test_windowed_percentile_decompresses_only_target_chunks(self):
        """A percentile over a narrow cold window touches only the chunks
        overlapping that window — not the whole archive."""
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        index_ids = _fill(loom, clock)
        loom.migrate(force=True)
        archive = loom.record_log.archive
        total_chunks = archive.chunk_count
        assert total_chunks >= 8

        snapshot = loom.snapshot()
        stats = QueryStats()
        from repro.core.operators import indexed_aggregate

        index = loom.record_log.get_index(index_ids[1])
        # A window around one-tenth of ingested time, deep in the cold zone.
        t_mid = 1_000 + 600  # ~60 records in
        agg = indexed_aggregate(
            snapshot, 1, index, t_mid, t_mid + 500, "percentile",
            percentile=50.0, stats=stats,
        )
        assert agg.value is not None
        assert 0 < stats.cold_chunks_decompressed < total_chunks
        loom.close()

    def test_cold_reads_hit_the_decompression_cache(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        boundary = loom.record_log.cold_boundary
        stats = QueryStats()
        first = loom.record_log.read_record(0, stats)
        again = loom.record_log.read_record(0, QueryStats())
        assert bytes(first.payload) == bytes(again.payload)
        assert stats.cold_chunks_decompressed == 1
        assert boundary > 0
        loom.close()

    def test_migration_is_idempotent_without_new_chunks(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        first = loom.migrate(force=True)
        second = loom.migrate(force=True)
        assert second.chunks_migrated == 0
        assert second.cold_boundary == first.cold_boundary
        loom.close()


# ----------------------------------------------------------------------
# Zero-copy views racing migration
# ----------------------------------------------------------------------
class TestViewsAcrossMigration:
    def test_migration_poisons_outstanding_scan_view(self, tmp_path):
        """ACCEPTANCE: a copy=False scan view taken before a migration
        pass is poisoned when the hot prefix is recycled under it —
        touching it raises StaleViewError naming the borrow site — and a
        rescan after the migration is byte-identical to the answer the
        view-based scan produced before it."""
        from repro.core import viewguard

        viewguard.activate()
        try:
            cfg = _tiered_config(
                tmp_path, tier=TierConfig(migrate_high_watermark=64, auto_migrate=False)
            )
            clock = VirtualClock(1_000)
            log = RecordLog(cfg, clock=clock)
            log.define_source(1)
            for i in range(600):
                log.push(1, _payload(i % 100))
                clock.advance(10)
            log.sync()
            # The mmap view tier serves only the fully persisted prefix;
            # pick the last chunk boundary below the persisted tail.
            persisted = log.log._storage.size
            scan_end = max(
                (
                    log.chunk_index.get(i).end_addr
                    for i in range(len(log.chunk_index))
                    if log.chunk_index.get(i).end_addr <= persisted
                ),
                default=0,
            )
            assert scan_end > 0
            records = list(log.iter_records_between(0, scan_end, copy=False))
            assert records
            before = [
                (r.address, r.timestamp, bytes(r.payload)) for r in records
            ]
            payload_view = records[0].payload

            report = log.migrate(force=True)
            assert report.chunks_migrated > 0

            with pytest.raises(StaleViewError) as exc_info:
                bytes(payload_view)
            assert exc_info.value.borrow_site is not None
            assert "iter_records_between" in exc_info.value.borrow_site

            after = [
                (r.address, r.timestamp, bytes(r.payload))
                for r in log.iter_records_between(0, scan_end)
            ]
            assert after == before
            log.close()
        finally:
            viewguard.deactivate()

    def test_query_results_taken_before_migration_stay_readable(self, tmp_path):
        """The other half of the contract: what a *query* hands out is an
        owned batch (payloads copied out of the region once), so results
        taken before a migration pass recycles their region still yield
        every payload afterwards — no StaleViewError, guard on."""
        from repro.core import viewguard

        viewguard.activate()
        try:
            cfg = _tiered_config(
                tmp_path, tier=TierConfig(migrate_high_watermark=64, auto_migrate=False)
            )
            clock = VirtualClock(1_000)
            loom = Loom(cfg, clock=clock)
            index_ids = _fill(loom, clock)
            scanned = loom.scan(1, ALL_TIME).records
            indexed = loom.scan_indexed(1, index_ids[1], ALL_TIME, (10.0, 60.0)).records
            newest = scanned[0]  # a Record built before the recycle...
            assert loom.migrate(force=True).chunks_migrated > 0
            assert scanned[-1].address < loom.record_log.cold_boundary
            # ...and Records built after it, from the same batches.
            assert scanned[0] == newest
            assert [bytes(r.payload) for r in scanned] == [
                bytes(r.payload) for r in loom.scan(1, ALL_TIME).records
            ]
            assert list(indexed) == list(
                loom.scan_indexed(1, index_ids[1], ALL_TIME, (10.0, 60.0)).records
            )
            loom.close()
        finally:
            viewguard.deactivate()


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------
class TestRetention:
    def _loom_with_horizon(self, mode, keep_every=2, tmp_path=None):
        cfg = _tiered_config(
            tmp_path,
            retention=RetentionPolicy(
                horizon_ns=2_000, mode=mode, keep_every=keep_every
            ),
        )
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        index_ids = _fill(loom, clock)
        loom.migrate(force=True)
        return loom, clock, index_ids

    def test_drop_makes_old_data_invisible(self):
        loom, clock, index_ids = self._loom_with_horizon("drop")
        total_before = loom.aggregate(1, index_ids[1], ALL_TIME, "count").value
        report = loom.apply_retention()
        assert report.floor_addr > 0
        assert report.dropped_chunk_ids and not report.kept_chunk_ids
        after = loom.aggregate(1, index_ids[1], ALL_TIME, "count").value
        assert after < total_before
        # Retired addresses read as typed errors, not garbage.
        with pytest.raises(AddressError):
            loom.record_log.read_record(0)
        loom.close()

    def test_downsample_keeps_summary_aggregates_exact(self):
        loom, clock, index_ids = self._loom_with_horizon("downsample")
        before_count = loom.aggregate(1, index_ids[1], ALL_TIME, "count").value
        report = loom.apply_retention()
        assert report.kept_chunk_ids and report.dropped_chunk_ids
        index = loom.record_log.chunk_index
        # Dropped chunks' summaries are unreachable; kept ones answer.
        for cid in report.dropped_chunk_ids:
            assert index.summary_for_chunk(cid) is None
        dropped_source_1 = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for summary in index.iter_persisted():
                if summary.chunk_id in report.dropped_chunk_ids:
                    info = summary.source_info(1)
                    dropped_source_1 += info.record_count if info else 0
        # The exact whole-range count = pre-retention count minus only the
        # records in fully dropped chunks (summary-only records still fold
        # in via their resident bins).
        after_count = loom.aggregate(1, index_ids[1], ALL_TIME, "count").value
        assert after_count == before_count - dropped_source_1
        # Scanning into the retired range degrades instead of erroring.
        stats_result = loom.scan(1, (0, 1_000 + 600))
        assert stats_result.stats.degraded
        loom.close()

    def test_retention_floor_is_monotone_across_passes(self):
        loom, clock, index_ids = self._loom_with_horizon("downsample")
        first = loom.apply_retention()
        for i in range(300):
            loom.push(1, _payload(i % 100))
            clock.advance(10)
        loom.sync()
        loom.migrate(force=True)
        second = loom.apply_retention()
        assert second.floor_addr >= first.floor_addr
        # Chunks kept by the first pass are not demoted by the second.
        kept_then = set(first.kept_chunk_ids)
        index = loom.record_log.chunk_index
        for cid in kept_then:
            assert index.state_for_chunk(cid) == STATE_SUMMARY_ONLY
        loom.close()

    def test_retention_requires_policy(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock, count=50)
        with pytest.raises(LoomError):
            loom.apply_retention()
        loom.close()


# ----------------------------------------------------------------------
# Reopen / recovery with an archive
# ----------------------------------------------------------------------
class TestReopenWithArchive:
    def test_reopen_restores_cold_boundary_and_answers(self, tmp_path):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        boundary = loom.record_log.cold_boundary
        assert boundary > 0
        before = [
            (r.address, r.timestamp, bytes(r.payload))
            for r in loom.scan(1, ALL_TIME).records
        ]
        loom.close()

        reopened = Loom.open(cfg, clock=VirtualClock(10**7))
        assert reopened.record_log.cold_boundary == boundary
        after = [
            (r.address, r.timestamp, bytes(r.payload))
            for r in reopened.scan(1, ALL_TIME).records
        ]
        assert after == before
        reopened.close()

    def test_reopen_after_retention_restores_floor(self, tmp_path):
        cfg = _tiered_config(
            tmp_path,
            retention=RetentionPolicy(horizon_ns=2_000, mode="downsample", keep_every=2),
        )
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        report = loom.apply_retention()
        assert report.floor_addr > 0
        before = loom.scan(1, ALL_TIME)
        assert before.stats.degraded  # range reaches into dropped history
        before_records = [
            (r.address, r.timestamp, bytes(r.payload)) for r in before.records
        ]
        loom.close()

        reopened = Loom.open(cfg, clock=VirtualClock(10**7))
        assert reopened.record_log.retention_floor == report.floor_addr
        # Recovery reconstructs the same keep/drop decision per chunk.
        index = reopened.record_log.chunk_index
        for cid in report.kept_chunk_ids:
            assert index.state_for_chunk(cid) == STATE_SUMMARY_ONLY
        # Dropped chunks are not resident after recovery: their summaries
        # are unreachable, so no query path can route to them.
        for cid in report.dropped_chunk_ids:
            assert index.summary_for_chunk(cid) is None
        after = reopened.scan(1, ALL_TIME)
        assert after.stats.degraded
        after_records = [
            (r.address, r.timestamp, bytes(r.payload)) for r in after.records
        ]
        assert after_records == before_records
        # The recovered log keeps ingesting.
        reopened.define_source(1)
        addr = reopened.record_log.push(1, _payload(7.0))
        assert addr >= report.floor_addr
        reopened.close()

    def test_check_data_dir_reports_all_tiers(self, tmp_path):
        cfg = _tiered_config(
            tmp_path,
            retention=RetentionPolicy(horizon_ns=2_000, mode="drop"),
        )
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        loom.apply_retention()
        loom.close()

        report = check_data_dir(str(tmp_path))
        assert report.ok
        labels = {check.label for check in report.logs}
        assert "archive log" in labels
        state = report.state
        assert state is not None
        assert state.archived_chunks > 0
        assert state.retired_chunks > 0
        assert state.recycled_upto > 0
        assert state.retention_floor > 0
        assert state.archive_compressed_bytes < state.archive_raw_bytes

    def test_check_data_dir_before_any_migration(self, tmp_path):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock, count=100)
        loom.close()
        report = check_data_dir(str(tmp_path))
        assert report.ok
        assert report.state.total_records == 100


# ----------------------------------------------------------------------
# Config and facade surface
# ----------------------------------------------------------------------
class TestTieredSurface:
    def test_retention_requires_tier(self):
        with pytest.raises(ValueError, match="tier"):
            LoomConfig(retention=RetentionPolicy(horizon_ns=1))

    def test_footprint_reports_per_tier_bytes(self):
        clock = VirtualClock(1_000)
        loom = Loom(
            _tiered_config(tier=TierConfig(auto_migrate=False)), clock=clock
        )
        _fill(loom, clock)
        pre = loom.footprint()
        assert pre["hot_bytes"] == pre["record_log_bytes"]
        assert pre["cold_bytes_compressed"] == 0
        loom.migrate(force=True)
        post = loom.footprint()
        assert post["recycled_upto"] > 0
        assert post["hot_bytes"] == post["record_log_bytes"] - post["recycled_upto"]
        assert 0 < post["cold_bytes_compressed"] < post["cold_bytes_raw"]
        assert post["archived_chunks"] > 0
        loom.close()

    def test_footprint_without_tier_keeps_zero_cold_keys(self):
        loom = Loom(LoomConfig(), clock=VirtualClock())
        loom.define_source(1)
        loom.push(1, b"x")
        fp = loom.footprint()
        assert fp["cold_bytes_raw"] == 0
        assert fp["archived_chunks"] == 0
        assert fp["retention_floor"] == 0
        loom.close()

    def test_migration_metrics_exported(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        snapshot = loom.metrics.snapshot()
        migrated = snapshot.get("loom.archive.chunks_migrated_total")
        ratio = snapshot.get("loom.archive.compression_ratio")
        assert migrated is not None and migrated.value > 0
        assert ratio is not None and ratio.value > 1.0
        loom.close()
