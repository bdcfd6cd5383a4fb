"""Recovery over decoded columns equals a recount of what survives.

``recover`` decodes the record log once into columns and folds sources,
summary recounts, the unsummarized tail and timestamp phases as array
operations.  These tests hold that fold to the reference decoder
(``RecordLog.iter_records_between``): over multi-source, mixed-length
logs, with and without a migrated or retired prefix, with the last
record cut at a random byte or one of its bytes flipped, the recovered
per-source state, tail, sampling phases, record-log repairs and the
reopened chunk summaries equal a recount of the surviving prefix.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import VirtualClock
from repro.core.config import LoomConfig, RetentionPolicy, TierConfig
from repro.core.errors import CorruptionError
from repro.core.hybridlog import FRAME_ENTRY, NULL_ADDRESS
from repro.core.loom import Loom
from repro.core.record import HEADER_SIZE, encode_record
from repro.core.record_log import RecordLog, decode_region
from repro.core.recovery import (
    check_data_dir,
    scan_persisted_summaries,
    scan_persisted_timestamps,
)
from repro.core.storage import FileStorage
from repro.core.timestamp_index import KIND_RECORD

pytestmark = pytest.mark.faults

SOURCES = (1, 2, 3)
#: Bytes 20..23 of a header are its length field: a flip there turns the
#: record into a torn tail instead of a CRC failure, so flips skip it.
_LEN_FIELD = range(20, 24)


class TestDecodeRegion:
    def test_rows_are_the_whole_records(self):
        """A torn tail is not a row; the extent says where rows end."""
        region = encode_record(1, 5, NULL_ADDRESS, b"abc") + encode_record(2, 6, 0, b"")
        torn = encode_record(1, 7, 0, b"payload")
        for cut in range(len(torn)):
            columns = decode_region(region + torn[:cut], 100)
            assert columns.addresses.tolist() == [100, 131]
            assert columns.extent == len(region)
        assert len(decode_region(b"", 0)) == 0

    def test_verify_names_the_first_bad_record(self):
        region = bytearray(
            b"".join(encode_record(1, i, NULL_ADDRESS, b"xy") for i in range(3))
        )
        region[2 * (HEADER_SIZE + 2) + HEADER_SIZE] ^= 0x01
        assert len(decode_region(bytes(region), 64)) == 3
        with pytest.raises(CorruptionError) as exc_info:
            decode_region(bytes(region), 64, verify=True)
        assert exc_info.value.address == 64 + 2 * (HEADER_SIZE + 2)


def _config(data_dir, retention):
    return LoomConfig(
        chunk_size=256,
        record_block_size=512,
        timestamp_interval=4,
        data_dir=data_dir,
        tier=TierConfig(auto_migrate=False),
        retention=retention,
    )


def _journal(data_dir):
    with open(os.path.join(data_dir, "records.log.crc"), "rb") as f:
        data = f.read()
    return list(FRAME_ENTRY.iter_unpack(data[: len(data) - len(data) % FRAME_ENTRY.size]))


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(SOURCES), st.integers(0, 40)), min_size=16, max_size=90
    ),
    prefix=st.sampled_from(["none", "migrated", "retired"]),
    damage=st.sampled_from(["cut", "flip", "flip-unjournalled"]),
    where=st.integers(0, 10**6),
)
def test_recovery_equals_a_recount_of_the_surviving_prefix(rows, prefix, damage, where):
    """``flip-unjournalled`` also deletes the record log's frame journal,
    so the per-record CRC, not the frame CRC, must find the flip."""
    with tempfile.TemporaryDirectory() as data_dir:
        retention = None
        if prefix == "retired":
            retention = RetentionPolicy(horizon_ns=5 * len(rows), mode="drop")
        cfg = _config(data_dir, retention)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        for sid in SOURCES:
            loom.define_source(sid)
        spans = []
        for sid, length in rows:
            address = loom.push(sid, bytes([sid]) * length)
            spans.append((address, address + HEADER_SIZE + length))
            clock.advance(10)
        loom.sync()
        if prefix != "none":
            loom.migrate(force=True)
        if prefix == "retired":
            loom.apply_retention()
        boundary = loom.record_log.cold_boundary
        loom.close()

        # Damage the last record (never migrated: its chunk is active).
        last, tail_end = spans[-1]
        path = os.path.join(data_dir, "records.log")
        if damage == "cut":
            cut = last + where % (tail_end - last)
            os.truncate(path, cut)
            end = last
            expected = [f"record log: dropped frame entries past persisted size {cut} (torn tail)"]
            if cut > last:
                expected.append(f"record log: dropped {cut - last}-byte torn tail")
        else:
            offsets = [i for i in range(tail_end - last) if i not in _LEN_FIELD]
            victim = last + offsets[where % len(offsets)]
            with open(path, "r+b") as f:
                f.seek(victim)
                byte = f.read(1)[0]
                f.seek(victim)
                f.write(bytes([byte ^ 0x40]))
            extent = next(a for a, n, _ in _journal(data_dir) if a <= victim < a + n)
            if damage == "flip-unjournalled":
                os.remove(path + ".crc")
            if damage == "flip" and extent >= boundary:  # the frame CRC
                end = max([boundary] + [e for a, e in spans if a >= boundary and e <= extent])
                expected = [f"record log: truncated at corrupt frame (address {extent})"]
            else:  # no journal, or a frame straddling the boundary
                end = last
                expected = [f"record log: truncated at corrupt record (address {last})"]
        chunk_storage = FileStorage(os.path.join(data_dir, "chunks.idx"))
        ends = [s.end_addr for s in scan_persisted_summaries(chunk_storage)]
        chunk_storage.close()
        covered = max([0] + [e for e in ends if e <= end])

        report = check_data_dir(data_dir, repair=True)
        assert report.ok, report.error
        state = report.state
        assert [r for r in state.repairs if r.startswith("record log")] == expected

        log = RecordLog.reopen(cfg, clock=VirtualClock())
        try:
            assert log.log.tail_address == state.record_bytes == end
            records = list(log.iter_records_between(log.retention_floor, end))
            index = log.chunk_index
            summaries = [index.get(i) for i in range(len(index))] + [log._active_summary]
        finally:
            log.close()
        assert {
            sid: (s.record_count, s.bytes_ingested, s.first_timestamp, s.last_timestamp, s.last_addr)
            for sid, s in state.sources.items()
        } == _recount(records)
        assert state.total_records == len(records)
        assert state.covered_addr == covered
        assert state.unsummarized_tail.tolist() == [
            (r.address, r.source_id, r.timestamp, len(r.payload))
            for r in records
            if r.address >= covered
        ]
        # Persisted and re-finalized summaries (and the active one) hold
        # what their address ranges hold.
        for summary in summaries:
            stop = summary.end_addr if summary is not summaries[-1] else end
            inside = [r for r in records if summary.start_addr <= r.address < stop]
            assert {
                sid: (info.record_count, info.t_min, info.t_max, info.last_record_addr)
                for sid, info in summary.sources.items()
            } == {
                sid: (count, first, last, head)
                for sid, (count, _nbytes, first, last, head) in _recount(inside).items()
            }
        # Each source's place in the timestamp-index sampling interval.
        timestamp_storage = FileStorage(os.path.join(data_dir, "timestamps.idx"))
        last_entry = {
            sid: addr
            for _ts, kind, sid, addr in scan_persisted_timestamps(timestamp_storage)
            if kind == KIND_RECORD
        }
        timestamp_storage.close()
        assert state.records_since_ts_entry == {
            sid: sum(1 for r in records if r.source_id == sid and r.address > addr)
            for sid, addr in last_entry.items()
        }


def _recount(records):
    """Per source: count, payload bytes, first and last timestamp, and
    the address of its last record."""
    out = {}
    for r in records:
        count, nbytes, first, _last, _head = out.get(r.source_id, (0, 0, r.timestamp, 0, 0))
        out[r.source_id] = (count + 1, nbytes + len(r.payload), first, r.timestamp, r.address)
    return out
