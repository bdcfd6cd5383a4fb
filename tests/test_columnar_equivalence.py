"""Property tests: the columnar fast paths are exact, not approximate.

Every vectorized hot path is checked against a trivially-correct scalar
counterpart:

* :func:`repro.core.record.encode_batch_arrays` (columnar framing) must
  produce byte-identical output to the per-record reference encoder
  below (:func:`encode_batch_scalar`) for arbitrary batch shapes — empty
  batches, single records, empty payloads, mixed lengths;
* :meth:`ChunkSummary.add_indexed_values_array` (vectorized bin folding)
  must leave the summary bit-identical to the scalar
  :meth:`ChunkSummary.add_indexed_values` fold, including the NaN /
  negative-zero / infinity cases that force its scalar fallback;
* storage ``read_view`` (mmap / extent zero-copy tier) must serve the
  same bytes as the copying ``read`` path;
* :meth:`RecordLog.region_columns` (columnar header decode) must agree
  field-for-field with the scalar record iterator, including for batches
  that span chunk and block boundaries.
"""

import math
import struct
from binascii import crc32
from typing import List, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HistogramSpec, LoomConfig, VirtualClock
from repro.core.hybridlog import NULL_ADDRESS
from repro.core.record import BODY_SIZE, HEADER_SIZE, encode_batch_arrays
from repro.core.record_log import RecordLog
from repro.core.snapshot import Snapshot
from repro.core.storage import FileStorage, MemoryStorage
from repro.core.summary import ChunkSummary

from conftest import payload_value

SETTINGS = settings(max_examples=60, deadline=None)

payloads_st = st.lists(st.binary(min_size=0, max_size=48), max_size=50)


def _small_config(**overrides) -> LoomConfig:
    defaults = dict(
        chunk_size=512,
        record_block_size=1024,
        index_block_size=2048,
        timestamp_block_size=1024,
        timestamp_interval=8,
    )
    defaults.update(overrides)
    return LoomConfig(**defaults)


_BODY = struct.Struct("<IQQI")
_CRC = struct.Struct("<I")


def encode_batch_scalar(
    source_id: int,
    timestamp: int,
    prev_addr: int,
    payloads: Sequence[bytes],
    base_address: int,
) -> Tuple[bytes, List[int]]:
    """Reference per-record framing loop (one ``pack_into`` per record).

    The byte-identity oracle for :func:`encode_batch_arrays`: the property
    tests assert the vectorized path produces exactly these bytes.
    """
    n = len(payloads)
    total = HEADER_SIZE * n + sum(len(p) for p in payloads)
    buffer = bytearray(total)
    view = memoryview(buffer)
    addresses: List[int] = []
    append_addr = addresses.append
    pack_body = _BODY.pack_into
    pack_crc = _CRC.pack_into
    offset = 0
    address = base_address
    prev = prev_addr
    for payload in payloads:
        length = len(payload)
        pack_body(buffer, offset, source_id, timestamp, prev, length)
        pack_crc(
            buffer,
            offset + BODY_SIZE,
            crc32(payload, crc32(view[offset : offset + BODY_SIZE])),
        )
        offset += HEADER_SIZE
        buffer[offset : offset + length] = payload
        offset += length
        append_addr(address)
        prev = address
        address += HEADER_SIZE + length
    return bytes(buffer), addresses


class TestEncodeBatchEquivalence:
    @SETTINGS
    @given(
        payloads=payloads_st,
        source_id=st.integers(0, 2**32 - 1),
        timestamp=st.integers(0, 2**64 - 1),
        base_address=st.integers(0, 2**40),
        prev_is_null=st.booleans(),
    )
    def test_byte_identity(
        self, payloads, source_id, timestamp, base_address, prev_is_null
    ):
        prev = NULL_ADDRESS if prev_is_null else max(0, base_address - 64)
        want = encode_batch_scalar(source_id, timestamp, prev, payloads, base_address)
        buffer, addresses = encode_batch_arrays(
            source_id, timestamp, prev, payloads, base_address
        )
        assert addresses.dtype == np.int64
        assert (buffer, addresses.tolist()) == want

    def test_degenerate_shapes(self):
        """The edges the vectorized offset math must not get wrong."""
        cases = [
            [],  # empty batch
            [b""],  # single empty payload
            [b"x"],  # single record
            [b"", b"", b""],  # all-empty batch
            [b"a" * 8] * 5,  # fixed stride
            [b"", b"ab", b"", b"abcdef", b"z"],  # mixed, with empties
        ]
        for payloads in cases:
            want = encode_batch_scalar(7, 1234, NULL_ADDRESS, payloads, 96)
            buffer, addresses = encode_batch_arrays(7, 1234, NULL_ADDRESS, payloads, 96)
            assert (buffer, addresses.tolist()) == want, payloads


values_st = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=True, width=64),
        st.just(float("nan")),
        st.just(-0.0),
        st.just(0.0),
    ),
    min_size=0,
    max_size=80,
)


class TestSummaryFoldEquivalence:
    @SETTINGS
    @given(values=values_st, timestamp=st.integers(0, 10**12))
    def test_array_fold_matches_scalar_fold(self, values, timestamp):
        spec = HistogramSpec([-100.0, 0.0, 3.5, 1e6])
        bins = [spec.bin_of(v) for v in values]

        scalar = ChunkSummary(chunk_id=0, start_addr=0, end_addr=512)
        scalar.add_indexed_values(1, 2, zip(bins, values), timestamp)

        vectorized = ChunkSummary(chunk_id=0, start_addr=0, end_addr=512)
        vectorized.add_indexed_values_array(
            1,
            2,
            np.asarray(bins, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            timestamp,
        )
        # encode() byte-compares the folds bit-exactly (NaN-safe, and
        # distinguishes -0.0 sums from +0.0).
        assert vectorized.encode() == scalar.encode()

    def test_fallback_cases_are_exact(self):
        """NaN and -0.0 inputs take the scalar fallback and stay identical."""
        spec = HistogramSpec([1.0, 2.0])
        for values in (
            [float("nan"), 0.5, 3.0],
            [-0.0, -0.0],
            [float("inf"), float("-inf"), 1.5],
            [0.5, float("nan")],
        ):
            bins = [spec.bin_of(v) for v in values]
            scalar = ChunkSummary(chunk_id=0, start_addr=0, end_addr=512)
            scalar.add_indexed_values(3, 4, zip(bins, values), 42)
            vectorized = ChunkSummary(chunk_id=0, start_addr=0, end_addr=512)
            vectorized.add_indexed_values_array(
                3, 4, np.asarray(bins), np.asarray(values), 42
            )
            assert vectorized.encode() == scalar.encode(), values
            folded = vectorized.bins_for(3, 4)
            total = sum(s.count for s in folded.values())
            assert total == len(values)
            nan_free = [v for v in values if not math.isnan(v)]
            if nan_free:
                assert min(s.min for s in folded.values()) == min(nan_free)


class TestReadViewEquivalence:
    @SETTINGS
    @given(
        pieces=st.lists(st.binary(min_size=0, max_size=64), max_size=20),
        probes=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 200)), max_size=10),
    )
    def test_memory_storage_views_match_reads(self, pieces, probes):
        storage = MemoryStorage()
        for piece in pieces:
            storage.append(piece)
        for address, length in probes:
            if address + length > storage.size:
                continue
            view = storage.read_view(address, length)
            if view is not None:  # None = spans extents; read() covers it
                assert bytes(view) == storage.read(address, length)

    def test_file_storage_mmap_matches_pread(self, tmp_path):
        storage = FileStorage(str(tmp_path / "log.bin"))
        try:
            data = bytes(range(256)) * 8
            storage.append(data[:512])
            # First view materializes the map; growth must trigger a remap.
            assert bytes(storage.read_view(0, 512)) == data[:512]
            storage.append(data[512:])
            for address, length in ((0, len(data)), (100, 1000), (2040, 8)):
                view = storage.read_view(address, length)
                assert view is not None
                assert bytes(view) == storage.read(address, length)
            # Truncation invalidates the map; stale tails must not be served.
            storage.truncate(512)
            view = storage.read_view(0, 512)
            if view is not None:
                assert bytes(view) == data[:512]
            assert storage.read_view(0, 513) is None
        finally:
            storage.close()


def _float_payload(value: float, pad: int) -> bytes:
    return struct.pack("<d", value) + bytes(pad)


class TestRegionColumnsEquivalence:
    @SETTINGS
    @given(
        shapes=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 40)), min_size=1, max_size=60
        )
    )
    def test_columnar_decode_matches_scalar_iterator(self, shapes):
        log = RecordLog(config=_small_config(), clock=VirtualClock())
        try:
            log.define_source(1)
            payloads = [_float_payload(float(v), pad) for v, pad in shapes]
            log.push_many(1, payloads)
            log.sync()
            snapshot = Snapshot.capture(log)
            columns = snapshot.region_columns(0, snapshot.watermark)
            scalar = list(log.iter_records_between(0, snapshot.watermark))
            assert columns is not None
            assert len(columns) == len(scalar)
            addresses = columns.addresses
            for i, record in enumerate(scalar):
                assert int(columns.source_ids[i]) == record.source_id
                assert int(columns.timestamps[i]) == record.timestamp
                assert int(columns.prev_addrs[i]) == record.prev_addr
                assert int(addresses[i]) == record.address
                assert bytes(columns.payload_view(i)) == bytes(record.payload)
        finally:
            log.close()

    def test_batch_spanning_chunk_and_block_boundaries(self):
        """One batch large enough to cross several chunks and spill blocks."""
        config = _small_config()  # chunk_size=512, record_block_size=1024
        loop = RecordLog(config=config, clock=VirtualClock())
        batched = RecordLog(config=config, clock=VirtualClock())
        try:
            spec = HistogramSpec([2.0, 5.0, 9.0])
            for log in (loop, batched):
                log.define_source(1)
                index_id = log.define_index(1, payload_value, spec)
            payloads = [_float_payload(float(i % 12), i % 23) for i in range(200)]
            for p in payloads:
                loop.push(1, p)
            batched.push_many(1, payloads)
            loop.sync()
            batched.sync()
            assert batched.log.tail_address == loop.log.tail_address
            assert batched.log.read(0, batched.log.tail_address) == loop.log.read(
                0, loop.log.tail_address
            )
            assert batched._active_summary.encode() == loop._active_summary.encode()
            # The region is big enough that it necessarily spans chunks.
            assert batched.log.tail_address > 3 * config.chunk_size
            snapshot = Snapshot.capture(batched)
            columns = snapshot.region_columns(0, snapshot.watermark)
            assert columns is not None and len(columns) == 200
            # Regression: all chunks here finalize at the same (virtual)
            # timestamp, so the summary window bisection must not drop the
            # earlier chunks of the tie — indexed_scan covers every record.
            from repro.core.operators import indexed_scan

            definition = batched.get_index(index_id)
            assert sum(1 for _ in indexed_scan(snapshot, 1, definition, 0, 0)) == 200
        finally:
            loop.close()
            batched.close()
