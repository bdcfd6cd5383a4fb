"""Cold-tier fault injection: torn archive tails and aborted migrations.

Exercises the crash-safety claims of the migration commit protocol
(DESIGN.md §15):

* a torn, unratified suffix on the archive log is truncated on reopen
  without touching ratified frames;
* a crash between the ``DATA`` frames and the ``RECYCLE`` frame leaves
  the hot chunks authoritative — no loss, no duplication — and recovery
  drops the unratified frames;
* a storage failure mid-pass aborts the whole pass cleanly and a retry
  succeeds with byte-identical answers;
* a flipped byte in a hot record fails the migration pass that would
  archive it, in whichever pass that is, and leaves the archive as it
  was; from the auto-migration path inside ``push`` the error is parked
  instead of failing ingest;
* a ratified frame damaged on disk (a flipped byte in its header or its
  payload stream) makes every cold read of its chunk raise a typed
  :class:`CorruptionError` naming the chunk, never a bare ``zlib.error``,
  and ``check_data_dir`` names the frame.
"""

import struct
import zlib

import pytest

from repro.core import Health, StorageError
from repro.core.archive import FRAME_HEADER, ArchiveLog
from repro.core.clock import VirtualClock
from repro.core.config import LoomConfig, TierConfig
from repro.core.errors import CorruptionError
from repro.core.faults import FaultInjectingStorage, corrupt_byte
from repro.core.histogram import HistogramSpec
from repro.core.hybridlog import journal_entries
from repro.core.loom import Loom
from repro.core.record import HEADER_SIZE
from repro.core.recovery import check_data_dir

pytestmark = pytest.mark.faults

_VALUE = struct.Struct("<d")
ALL_TIME = (0, 2**62)


def _payload(value, pad=40):
    return _VALUE.pack(float(value)) + b"\x00" * pad


def _tiered_config(tmp_path=None, **overrides):
    kwargs = dict(
        chunk_size=2048,
        record_block_size=4096,
        timestamp_interval=4,
        tier=TierConfig(auto_migrate=False),
    )
    if tmp_path is not None:
        kwargs["data_dir"] = str(tmp_path)
    kwargs.update(overrides)
    return LoomConfig(**kwargs)


def _fill(loom, clock, count=400):
    loom.define_source(1)
    for i in range(count):
        loom.push(1, _payload(i % 100))
        clock.advance(1)


def _scan_bytes(loom):
    return [
        (r.address, r.timestamp, bytes(r.payload))
        for r in loom.scan(1, ALL_TIME).records
    ]


class TestTornArchiveTail:
    def test_torn_unratified_suffix_truncated_on_reopen(self, tmp_path):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        report = loom.migrate(force=True)
        assert report.chunks_migrated > 0
        boundary = loom.record_log.cold_boundary
        before = _scan_bytes(loom)
        loom.close()

        # A crash mid-append leaves a partial, unratified frame at the
        # tail of the archive log.
        archive_path = cfg.archive_log_path()
        with open(archive_path, "ab") as f:
            f.write(b"\x7f" * 37)

        checked = check_data_dir(str(tmp_path), repair=True)
        assert checked.ok
        assert any("archive" in r for r in checked.repairs)

        reopened = Loom.open(cfg, clock=VirtualClock(10**7))
        assert reopened.record_log.cold_boundary == boundary
        assert _scan_bytes(reopened) == before
        reopened.close()


class TestCrashBeforeRecycle:
    def test_failed_recycle_keeps_hot_authoritative(self, monkeypatch):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        before = _scan_bytes(loom)

        def boom(self, boundary):
            raise StorageError("injected: crash before RECYCLE")

        monkeypatch.setattr(ArchiveLog, "append_recycle", boom)
        with pytest.raises(StorageError, match="injected"):
            loom.migrate(force=True)
        monkeypatch.undo()

        # The pass never ratified: the boundary did not move, the hot
        # chunks answer, and the writer stays healthy.
        log = loom.record_log
        assert log.cold_boundary == 0
        assert log.health() == Health.HEALTHY
        assert _scan_bytes(loom) == before

        # A retry ratifies and the answers do not change.
        report = loom.migrate(force=True)
        assert report.chunks_migrated > 0
        assert log.cold_boundary == report.cold_boundary > 0
        assert _scan_bytes(loom) == before
        loom.close()

    def test_unratified_frames_dropped_on_reopen(self, tmp_path, monkeypatch):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        before = _scan_bytes(loom)
        total = loom.record_log.total_records

        def boom(self, boundary):
            raise StorageError("injected: crash before RECYCLE")

        monkeypatch.setattr(ArchiveLog, "append_recycle", boom)
        with pytest.raises(StorageError, match="injected"):
            loom.migrate(force=True)
        monkeypatch.undo()
        loom.close()

        # Recovery truncates the unratified DATA frames; the hot log is
        # the sole authority again — no loss, no duplication.
        checked = check_data_dir(str(tmp_path), repair=True)
        assert checked.ok
        reopened = Loom.open(cfg, clock=VirtualClock(10**7))
        assert reopened.record_log.cold_boundary == 0
        assert reopened.record_log.total_records == total
        assert _scan_bytes(reopened) == before
        reopened.close()


class TestMidPassFailure:
    def test_data_frame_failure_aborts_pass_and_retry_succeeds(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        before = _scan_bytes(loom)
        archive = loom.record_log.archive
        faulty = FaultInjectingStorage(archive._storage).fail_once()
        archive._storage = faulty

        with pytest.raises(StorageError):
            loom.migrate(force=True)
        assert faulty.faults_injected == 1
        assert loom.record_log.cold_boundary == 0
        assert _scan_bytes(loom) == before

        # The fault is one-shot: the retried pass commits.
        report = loom.migrate(force=True)
        assert report.chunks_migrated > 0
        assert loom.record_log.cold_boundary > 0
        assert _scan_bytes(loom) == before
        loom.close()


def _record_at_or_after(loom, address):
    """The first record at or above ``address`` (chunks end on records)."""
    records = [r for r in loom.scan(1, ALL_TIME).records if r.address >= address]
    return min(records, key=lambda r: r.address)


class TestCorruptHotRecord:
    def test_flipped_hot_byte_is_not_laundered_into_the_archive(self, tmp_path):
        """Archive frames keep no per-record CRC, so a pass must check the
        hot records it archives: a flipped payload byte in a middle chunk
        fails the pass with a typed error naming the record, the frames
        already written for earlier chunks are discarded, and the
        corruption stays where ``check_data_dir`` still finds it."""
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        log = loom.record_log
        storage = log.log.storage
        record = _record_at_or_after(loom, 3 * cfg.chunk_size)
        victim = record.address + HEADER_SIZE + 3
        corrupt_byte(storage, victim, 0x40)
        with pytest.raises(CorruptionError, match="fails its CRC") as exc_info:
            loom.migrate(force=True)
        assert exc_info.value.address == record.address
        assert log.cold_boundary == 0
        assert log.archive.size == 0 and log.archive.chunk_count == 0
        assert log.archive.journal_size == 0
        corrupt_byte(storage, victim, 0x40)  # restored for close's oracles
        loom.close()
        corrupt_byte(storage, victim, 0x40)

        report = check_data_dir(str(tmp_path))
        assert not report.ok
        assert report.error.address <= record.address

    def test_byte_flipped_between_passes_is_caught(self, tmp_path):
        """The bytes each pass archives are checked in that pass: a byte
        flipped after one pass, in the part of a flush extent the pass
        left hot, fails the next pass."""
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock, count=200)
        log = loom.record_log
        boundary = loom.migrate(force=True).cold_boundary
        assert any(
            address < boundary < address + length
            for address, length, _ in journal_entries(log.log.frame_journal)
        )  # the pass stopped inside a flush extent
        record = _record_at_or_after(loom, boundary)
        victim = record.address + HEADER_SIZE + 1
        corrupt_byte(log.log.storage, victim, 0x08)
        for i in range(200):
            loom.push(1, _payload(i))
            clock.advance(1)
        archived = log.archive.chunk_count
        with pytest.raises(CorruptionError) as exc_info:
            loom.migrate(force=True)
        assert exc_info.value.address == record.address
        assert log.cold_boundary == boundary
        assert log.archive.chunk_count == archived
        corrupt_byte(log.log.storage, victim, 0x08)
        report = loom.migrate(force=True)  # repaired bytes migrate cleanly
        assert report.cold_boundary > boundary
        loom.close()

    def test_auto_migration_parks_the_error_and_ingest_goes_on(self, tmp_path):
        """Auto-migration runs inside ``push``: a damaged hot record must
        not fail ingest.  The first failing pass parks the error and
        stops auto-migration; pushes past the watermark keep landing,
        with one summary per chunk, and a manual pass raises again."""
        cfg = _tiered_config(
            tmp_path,
            tier=TierConfig(
                migrate_high_watermark=6, migrate_low_watermark=2, auto_migrate=True
            ),
        )
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock, count=100)
        log = loom.record_log
        assert log.cold_boundary == 0  # below the high watermark so far
        victim = HEADER_SIZE + 3  # a payload byte of the first record
        corrupt_byte(log.log.storage, victim, 0x40)
        for i in range(600):
            loom.push(1, _payload(i))
            clock.advance(1)
        assert log.cold_boundary == 0
        assert isinstance(log.migration_error, CorruptionError)
        assert log.migration_error.address == 0
        assert loom.metrics.snapshot().get("loom.archive.migration_errors_total").value == 1
        chunk_ids = [s.chunk_id for s in log.chunk_index.finalized_after(0)]
        assert chunk_ids == sorted(set(chunk_ids)) and len(chunk_ids) > 6
        assert log.archive.chunk_count == 0
        assert loom.record_log.total_records == 700
        with pytest.raises(CorruptionError):
            loom.migrate(force=True)
        corrupt_byte(log.log.storage, victim, 0x40)  # restored for close's oracles
        loom.close()


def _value(payload):
    return _VALUE.unpack_from(payload)[0]


_COLD_READS = {
    "scan": lambda loom, index_id, entry: loom.scan(1, ALL_TIME),
    "scan_indexed": lambda loom, index_id, entry: loom.scan_indexed(
        1, index_id, ALL_TIME, (0.0, 100.0)
    ),
    "read_record": lambda loom, index_id, entry: loom.record_log.read_record(
        entry.start_addr
    ),
}


class TestDamagedRatifiedFrame:
    def _migrated(self, tmp_path):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        loom.define_source(1)
        index_id = loom.define_index(1, _value, HistogramSpec([25.0, 50.0, 75.0]))
        for i in range(400):
            loom.push(1, _payload(i % 100))
            clock.advance(1)
        assert loom.migrate(force=True).chunks_migrated > 0
        return loom, index_id, loom.record_log.archive.entries()[0]

    @staticmethod
    def _stream_offset(entry, stream):
        """A byte in the middle of the frame's header or payload stream."""
        start = entry.frame_addr + FRAME_HEADER.size
        if stream == "header":
            return start + entry.header_len // 2
        return start + entry.header_len + entry.payload_len // 2

    @pytest.mark.parametrize("stream", ["header", "payload"])
    @pytest.mark.parametrize("read", sorted(_COLD_READS))
    def test_flipped_stream_byte_is_a_typed_error(self, tmp_path, stream, read):
        loom, index_id, entry = self._migrated(tmp_path)
        storage = loom.record_log.archive._storage
        offset = self._stream_offset(entry, stream)
        corrupt_byte(storage, offset, 0x40)
        with pytest.raises(CorruptionError) as exc_info:
            _COLD_READS[read](loom, index_id, entry)
        assert exc_info.value.address == entry.start_addr
        assert "stream CRC" in str(exc_info.value)
        # Flip the byte back for close (whose LOOMSAN oracles read every
        # chunk), then again on disk for the offline check.
        corrupt_byte(storage, offset, 0x40)
        loom.close()
        corrupt_byte(storage, offset, 0x40)

        report = check_data_dir(str(tmp_path))
        assert not report.ok
        assert report.error.address == entry.frame_addr

    def test_frame_that_passes_its_crc_but_does_not_inflate(self, tmp_path):
        loom, index_id, entry = self._migrated(tmp_path)
        storage = loom.record_log.archive._storage
        offset = self._stream_offset(entry, "header")
        stored_crc = entry.crc
        corrupt_byte(storage, offset, 0x40)
        # As if the damage predated the CRC.
        entry.crc = zlib.crc32(
            storage.read(entry.frame_addr + FRAME_HEADER.size, entry.compressed_len)
        )
        with pytest.raises(CorruptionError, match="does not inflate") as exc_info:
            loom.record_log.read_record(entry.start_addr)
        assert exc_info.value.address == entry.start_addr
        corrupt_byte(storage, offset, 0x40)
        entry.crc = stored_crc
        loom.close()
