"""Property-based tests (hypothesis) for the core invariants.

These pin down the contracts everything else relies on:

* the hybrid log is a faithful byte store under arbitrary append/flush
  interleavings;
* histogram binning partitions the value domain;
* chunk summaries are lossless for the statistics they claim to capture;
* Loom's query operators agree with naive reference computations for
  arbitrary data and query parameters (percentiles exactly match numpy's
  inverted CDF).
"""


import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import HistogramSpec, Loom, LoomConfig, VirtualClock
from repro.core.hybridlog import HybridLog
from repro.core.summary import BinStats

from conftest import payload_value, value_payload

# Conservative defaults: these tests build real engines per example.
SETTINGS = settings(max_examples=40, deadline=None)


class TestHybridLogProperties:
    @SETTINGS
    @given(
        pieces=st.lists(st.binary(min_size=0, max_size=64), max_size=60),
        block_size=st.integers(min_value=1, max_value=128),
    )
    def test_reads_return_what_was_written(self, pieces, block_size):
        log = HybridLog(block_size=block_size)
        addresses = [log.append(p) for p in pieces]
        for address, piece in zip(addresses, pieces):
            assert log.read(address, len(piece)) == piece
        # The whole log equals the concatenation.
        joined = b"".join(pieces)
        assert log.read(0, log.tail_address) == joined

    @SETTINGS
    @given(
        pieces=st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=40),
        block_size=st.integers(min_value=1, max_value=64),
    )
    def test_close_persists_everything(self, pieces, block_size):
        log = HybridLog(block_size=block_size)
        for p in pieces:
            log.append(p)
        log.close()
        assert log.persisted_tail == log.tail_address
        assert log.read(0, log.tail_address) == b"".join(pieces)


class TestHistogramProperties:
    @SETTINGS
    @given(
        edges=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        value=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    )
    def test_bin_of_is_consistent_with_bin_range(self, edges, value):
        spec = HistogramSpec(sorted(edges))
        bin_idx = spec.bin_of(value)
        lo, hi = spec.bin_range(bin_idx)
        assert lo <= value < hi or (value == lo == hi)

    @SETTINGS
    @given(
        edges=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        v_min=st.floats(min_value=-1e7, max_value=1e7, allow_nan=False),
        width=st.floats(min_value=0, max_value=1e7, allow_nan=False),
    )
    def test_overlapping_bins_cover_all_in_range_values(self, edges, v_min, width):
        spec = HistogramSpec(sorted(edges))
        v_max = v_min + width
        overlapping = set(spec.bins_overlapping(v_min, v_max))
        # Any value inside the query range must fall in an overlapping bin.
        for probe in (v_min, v_max, (v_min + v_max) / 2):
            assert spec.bin_of(probe) in overlapping
        # Fully-inside bins are a subset of overlapping bins.
        assert set(spec.bins_fully_inside(v_min, v_max)) <= overlapping


class TestBinStatsProperties:
    @SETTINGS
    @given(
        values=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        split=st.integers(min_value=0, max_value=50),
    )
    def test_merge_equals_bulk_update(self, values, split):
        split = min(split, len(values))
        bulk = BinStats()
        for i, v in enumerate(values):
            bulk.update(v, i)
        left, right = BinStats(), BinStats()
        for i, v in enumerate(values[:split]):
            left.update(v, i)
        for j, v in enumerate(values[split:]):
            right.update(v, split + j)
        left.merge(right)
        assert left.count == bulk.count
        # Sums accumulate in different orders; FP addition is not
        # associative, so compare with a tight relative tolerance.
        scale = max(1.0, *(abs(v) for v in values))
        assert abs(left.sum - bulk.sum) <= 1e-9 * scale
        assert left.min == bulk.min
        assert left.max == bulk.max
        assert (left.t_min, left.t_max) == (bulk.t_min, bulk.t_max)


def build_loom(values, edges):
    clock = VirtualClock()
    loom = Loom(
        LoomConfig(chunk_size=256, record_block_size=1024, timestamp_interval=4),
        clock=clock,
    )
    loom.define_source(1)
    index_id = loom.define_index(1, payload_value, HistogramSpec(edges))
    timestamps = []
    for v in values:
        timestamps.append(clock.now())
        loom.push(1, value_payload(v))
        clock.advance(997)
    loom.sync()
    return loom, index_id, timestamps, clock


VALUES = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=300,
)
EDGES = st.lists(
    st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
    min_size=1,
    max_size=6,
    unique=True,
)


class TestQueryProperties:
    @SETTINGS
    @given(values=VALUES, edges=EDGES, percentile=st.floats(0.0, 100.0))
    def test_percentile_matches_numpy(self, values, edges, percentile):
        loom, index_id, timestamps, clock = build_loom(values, sorted(edges))
        result = loom.aggregate(
            1, index_id, (0, clock.now()), "percentile", percentile=percentile
        )
        expected = float(np.percentile(values, percentile, method="inverted_cdf"))
        assert result.value == expected
        loom.close()

    @SETTINGS
    @given(
        values=VALUES,
        edges=EDGES,
        v_lo=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        v_width=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_indexed_scan_equals_naive_filter(self, values, edges, v_lo, v_width):
        loom, index_id, timestamps, clock = build_loom(values, sorted(edges))
        v_hi = v_lo + v_width
        records = loom.scan_indexed(1, index_id, (0, clock.now()), (v_lo, v_hi)).records
        got = sorted(payload_value(r.payload) for r in records)
        expected = sorted(v for v in values if v_lo <= v <= v_hi)
        assert got == expected
        loom.close()

    @SETTINGS
    @given(values=VALUES, edges=EDGES, data=st.data())
    def test_raw_scan_time_window_equals_naive_filter(self, values, edges, data):
        loom, index_id, timestamps, clock = build_loom(values, sorted(edges))
        t_lo = data.draw(st.integers(min_value=0, max_value=clock.now()))
        t_hi = data.draw(st.integers(min_value=t_lo, max_value=clock.now()))
        records = loom.scan(1, (t_lo, t_hi)).records
        got = sorted(payload_value(r.payload) for r in records)
        expected = sorted(
            v for v, t in zip(values, timestamps) if t_lo <= t <= t_hi
        )
        assert got == expected
        loom.close()

    @SETTINGS
    @given(values=VALUES, edges=EDGES)
    def test_distributive_aggregates_match_reference(self, values, edges):
        loom, index_id, timestamps, clock = build_loom(values, sorted(edges))
        t = (0, clock.now())
        assert loom.aggregate(1, index_id, t, "count").value == len(values)
        assert loom.aggregate(1, index_id, t, "min").value == min(values)
        assert loom.aggregate(1, index_id, t, "max").value == max(values)
        total = loom.aggregate(1, index_id, t, "sum").value
        assert total == float(np.sum(np.asarray(values), dtype=np.float64)) or abs(
            total - sum(values)
        ) <= 1e-6 * max(1.0, abs(sum(values)))
        loom.close()
