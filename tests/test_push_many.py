"""Batched ingest (``push_many``) equivalence and scan tests.

The batch fast path must be *observationally identical* to a loop of
``push`` calls under a frozen clock: byte-identical record-log contents
(headers, back-pointer chains, payloads), byte-identical chunk-index and
timestamp-index logs (including CHUNK/RECORD entry ordering when a batch
spans chunk boundaries), and identical writer-side source state.  The
property tests here pin that equivalence over randomized batch shapes;
values are integer-valued floats so per-bin sums are exactly representable
and the comparison is bit-exact (see ChunkSummary.add_indexed_values for
the float-associativity caveat).
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HistogramSpec, Loom, LoomConfig, VirtualClock
from repro.core.errors import ClosedError, UnknownSourceError
from repro.core.operators import QueryStats, raw_scan
from repro.core.record_log import RecordLog
from repro.core.snapshot import Snapshot

from conftest import payload_value, value_payload


def _payload(value: int, pad: int) -> bytes:
    """An indexable payload: a float value followed by ``pad`` filler bytes."""
    return struct.pack("<d", float(value)) + bytes(pad)


def _build(batches, batched: bool, n_sources: int = 1) -> RecordLog:
    """Ingest ``batches`` via push_many (batched) or a push loop."""
    config = LoomConfig(
        chunk_size=512,
        record_block_size=1024,  # small blocks: batches regularly spill
        index_block_size=2048,
        timestamp_block_size=1024,
        timestamp_interval=8,
    )
    clock = VirtualClock()
    log = RecordLog(config=config, clock=clock)
    for sid in range(1, n_sources + 1):
        log.define_source(sid)
        log.define_index(sid, payload_value, HistogramSpec([2.0, 5.0, 9.0]))
    t = 100
    addresses = []
    for i, batch in enumerate(batches):
        sid = 1 + i % n_sources
        clock.set(t)
        if batched:
            addresses.extend(log.push_many(sid, batch))
        else:
            addresses.extend(log.push(sid, p) for p in batch)
        t += 7
    log.sync()
    return log, addresses


def _assert_equivalent(a: RecordLog, b: RecordLog, n_sources: int = 1) -> None:
    assert a.log.tail_address == b.log.tail_address
    assert a.log.read(0, a.log.tail_address) == b.log.read(0, b.log.tail_address)
    ta, tb = a.timestamp_index.log, b.timestamp_index.log
    assert ta.read(0, ta.tail_address) == tb.read(0, tb.tail_address)
    ca, cb = a.chunk_index.log, b.chunk_index.log
    assert ca.read(0, ca.tail_address) == cb.read(0, cb.tail_address)
    assert a._active_summary.encode() == b._active_summary.encode()
    assert a.total_records == b.total_records
    assert a.timestamp_index.entry_count == b.timestamp_index.entry_count
    for sid in range(1, n_sources + 1):
        sa, sb = a.get_source(sid), b.get_source(sid)
        assert (sa.last_addr, sa.published_head, sa.record_count) == (
            sb.last_addr,
            sb.published_head,
            sb.record_count,
        )
        assert (sa.bytes_ingested, sa.first_timestamp, sa.last_timestamp) == (
            sb.bytes_ingested,
            sb.first_timestamp,
            sb.last_timestamp,
        )


payload_st = st.tuples(st.integers(0, 15), st.integers(0, 40)).map(
    lambda t: _payload(*t)
)
batch_st = st.lists(payload_st, min_size=0, max_size=40)
batches_st = st.lists(batch_st, min_size=1, max_size=10)


class TestEquivalenceProperties:
    @settings(max_examples=40, deadline=None)
    @given(batches=batches_st)
    def test_push_many_equals_push_loop(self, batches):
        """Same log bytes, index logs, summaries, state, and addresses."""
        loop, loop_addrs = _build(batches, batched=False)
        batched, batch_addrs = _build(batches, batched=True)
        try:
            assert batch_addrs == loop_addrs
            _assert_equivalent(loop, batched)
        finally:
            loop.close()
            batched.close()

    @settings(max_examples=20, deadline=None)
    @given(batches=batches_st)
    def test_equivalence_with_interleaved_sources(self, batches):
        """Batches alternate between two sources; chains stay per-source."""
        loop, _ = _build(batches, batched=False, n_sources=2)
        batched, _ = _build(batches, batched=True, n_sources=2)
        try:
            _assert_equivalent(loop, batched, n_sources=2)
        finally:
            loop.close()
            batched.close()

    def test_batch_spanning_many_chunks_and_blocks(self):
        """One batch much larger than a chunk and a staging block."""
        # 200 records x ~56 B ≈ 11 KiB: ~22 chunks, ~11 block rotations.
        batch = [_payload(i % 12, 24) for i in range(200)]
        loop, _ = _build([batch], batched=False)
        batched, _ = _build([batch], batched=True)
        try:
            assert len(loop.chunk_index) > 5
            _assert_equivalent(loop, batched)
        finally:
            loop.close()
            batched.close()


class TestPushManyAPI:
    @pytest.fixture
    def record_log(self, small_config, clock):
        log = RecordLog(config=small_config, clock=clock)
        yield log
        log.close()

    def test_empty_batch_is_a_noop(self, record_log):
        record_log.define_source(1)
        assert record_log.push_many(1, []) == []
        assert record_log.total_records == 0
        assert record_log.log.tail_address == 0

    def test_unknown_source_rejected(self, record_log):
        with pytest.raises(UnknownSourceError):
            record_log.push_many(99, [b"x"])

    def test_closed_source_rejected(self, record_log):
        record_log.define_source(1)
        record_log.close_source(1)
        with pytest.raises(UnknownSourceError):
            record_log.push_many(1, [b"x"])

    def test_closed_log_rejected(self, small_config, clock):
        log = RecordLog(config=small_config, clock=clock)
        log.define_source(1)
        log.close()
        with pytest.raises(ClosedError):
            log.push_many(1, [b"x"])

    def test_batch_shares_one_timestamp_and_chains(self, record_log, clock):
        record_log.define_source(1)
        clock.set(500)
        addresses = record_log.push_many(1, [b"a", b"bb", b"ccc"])
        records = [record_log.read_record(a) for a in addresses]
        assert [r.payload for r in records] == [b"a", b"bb", b"ccc"]
        assert {r.timestamp for r in records} == {500}
        assert records[1].prev_addr == addresses[0]
        assert records[2].prev_addr == addresses[1]

    def test_publish_interval_counts_batch_records(self, clock):
        config = LoomConfig(
            chunk_size=512, record_block_size=4096, publish_interval=10
        )
        log = RecordLog(config=config, clock=clock)
        log.define_source(1)
        log.push_many(1, [b"12345678"] * 9)
        assert log.log.watermark == 0  # batch below the interval
        log.push_many(1, [b"12345678"])
        assert log.log.watermark == log.log.tail_address
        log.close()

    def test_loom_facade_push_many(self, small_config):
        with Loom(small_config, clock=VirtualClock()) as loom:
            loom.define_source(1)
            addresses = loom.push_many(1, [b"x", b"y"])
            loom.sync()
            assert loom.total_records == 2
            assert [r.payload for r in loom.scan(1, (0, 10**18)).records] == [b"y", b"x"]
            assert len(addresses) == 2


class TestZeroCopyScans:
    @pytest.fixture
    def loaded(self, small_config, clock):
        log = RecordLog(config=small_config, clock=clock)
        log.define_source(1)
        for i in range(30):
            clock.advance(5)
            log.push(1, value_payload(float(i)))
        log.sync()
        yield log
        log.close()

    def test_scan_payloads_are_owned_bytes(self, loaded):
        end = loaded.log.tail_address
        records = list(loaded.iter_records_between(0, end))
        assert len(records) == 30
        assert all(type(r.payload) is bytes for r in records)

    def test_zero_copy_payloads_decode(self, loaded):
        end = loaded.log.tail_address
        values = [payload_value(r.payload) for r in loaded.iter_records_between(0, end)]
        assert values == [float(i) for i in range(30)]

    def test_query_stats_count_decodes(self, loaded):
        snapshot = Snapshot.capture(loaded)
        stats = QueryStats()
        results = list(raw_scan(snapshot, 1, 0, 10**18, stats=stats))
        assert len(results) == 30
        # Every yielded record was decoded (the chain walk may decode a
        # few extra records while skipping above-watermark hints).
        assert stats.records_decoded >= 30
        # A fresh stats object starts from zero: counting is per-query.
        stats2 = QueryStats()
        list(raw_scan(snapshot, 1, 0, 10**18, stats=stats2))
        assert stats2.records_decoded == stats.records_decoded

    def test_record_log_has_no_shared_decode_counter(self, loaded):
        assert not hasattr(loaded, "records_decoded")

    def test_inline_read_size_is_configurable(self, clock):
        config = LoomConfig(chunk_size=512, inline_read_size=28)
        log = RecordLog(config=config, clock=clock)
        log.define_source(1)
        address = log.push(1, bytes(range(200)))  # payload exceeds inline read
        assert log.read_record(address).payload == bytes(range(200))
        log.close()

    def test_inline_read_size_must_cover_header(self):
        with pytest.raises(ValueError):
            LoomConfig(inline_read_size=23)
