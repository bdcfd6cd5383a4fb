"""Index-ablation behaviour (paper Figure 16) and exact-match emulation
(Figure 17), asserted on *work counters* rather than wall-clock time so
the tests are robust: the latency claims follow from the scanning claims.
"""

import pytest

from repro.core import HistogramSpec, Loom, LoomConfig, QueryStats, VirtualClock
from repro.core.clock import seconds
from repro.core.operators import indexed_aggregate, indexed_scan, raw_scan
from repro.workloads import events, latency_stream


@pytest.fixture(scope="module")
def long_stream_loom():
    """A long single-source stream (the Fig 16 setup: RocksDB-P2-like)."""
    clock = VirtualClock()
    loom = Loom(
        LoomConfig(chunk_size=2048, record_block_size=1 << 16, timestamp_interval=32),
        clock=clock,
    )
    loom.define_source(events.SRC_SYSCALL)
    index_id = loom.define_index(
        events.SRC_SYSCALL,
        events.latency_value,
        HistogramSpec([2.0, 8.0, 32.0, 128.0, 512.0]),
    )
    stream = latency_stream(rate_per_s=2000, duration_s=60.0, seed=8)
    for t, sid, payload in stream:
        clock.set(max(t, clock.now()))
        loom.push(sid, payload)
    loom.sync()
    yield loom, index_id, clock
    loom.close()


def run_scan(loom, index_id, t_range, use_time, use_chunk):
    snap = loom.snapshot()
    index = loom.record_log.get_index(index_id)
    stats = QueryStats()
    records = list(
        indexed_scan(
            snap,
            events.SRC_SYSCALL,
            index,
            t_range[0],
            t_range[1],
            v_min=512.0,  # rare high-latency records
            stats=stats,
            use_time_index=use_time,
            use_chunk_index=use_chunk,
        )
    )
    return records, stats


class TestFigure16Ablation:
    WINDOW = (seconds(20), seconds(30))

    def test_all_configurations_agree_on_results(self, long_stream_loom):
        loom, index_id, _ = long_stream_loom
        results = {}
        for use_time in (True, False):
            for use_chunk in (True, False):
                records, _ = run_scan(
                    loom, index_id, self.WINDOW, use_time, use_chunk
                )
                results[(use_time, use_chunk)] = [r.address for r in records]
        baseline = results[(True, True)]
        assert all(v == baseline for v in results.values())

    def test_chunk_index_reduces_records_scanned(self, long_stream_loom):
        loom, index_id, _ = long_stream_loom
        _, with_chunk = run_scan(loom, index_id, self.WINDOW, True, True)
        _, without_chunk = run_scan(loom, index_id, self.WINDOW, True, False)
        assert with_chunk.records_scanned < without_chunk.records_scanned / 2

    def test_time_index_reduces_summaries_examined(self, long_stream_loom):
        loom, index_id, _ = long_stream_loom
        _, with_time = run_scan(loom, index_id, self.WINDOW, True, True)
        _, without_time = run_scan(loom, index_id, self.WINDOW, False, True)
        assert with_time.summaries_examined < without_time.summaries_examined

    def test_summaries_examined_counts_each_summary_once(self, long_stream_loom):
        """Without the time index the window is found by walking summaries
        back from the tail; each one looked at counts once, whether or not
        it then overlaps the window (it used to count again when it did)."""
        loom, index_id, clock = long_stream_loom
        snap = loom.snapshot()
        index = loom.record_log.chunk_index
        visited = 0
        for i in range(snap.n_chunks - 1, -1, -1):
            visited += 1
            if index.get(i).t_max < self.WINDOW[0]:
                break
        assert visited < snap.n_chunks  # the walk stops once past the window
        _, scan_stats = run_scan(loom, index_id, self.WINDOW, False, True)
        assert scan_stats.summaries_examined == visited
        aggregate_stats = indexed_aggregate(
            snap, events.SRC_SYSCALL, loom.record_log.get_index(index_id),
            self.WINDOW[0], self.WINDOW[1], "count", use_time_index=False,
        ).stats
        assert aggregate_stats.summaries_examined == visited
        _, with_time = run_scan(loom, index_id, self.WINDOW, True, True)
        overlapping = sum(1 for _ in snap.summaries_in_time_range(*self.WINDOW))
        assert with_time.summaries_examined == overlapping

    def test_no_index_work_grows_with_lookback(self, long_stream_loom):
        """Figure 16's 'no indexes' curve: a chain walk from the tail costs
        proportionally to how far back the window lies."""
        loom, index_id, clock = long_stream_loom
        snap = loom.snapshot()
        work = []
        for lookback_s in (10, 30, 50):
            t_end = clock.now() - seconds(lookback_s)
            stats = QueryStats()
            list(
                raw_scan(
                    snap,
                    events.SRC_SYSCALL,
                    t_end - seconds(5),
                    t_end,
                    stats=stats,
                    use_time_index=False,
                )
            )
            work.append(stats.records_scanned)
        assert work[0] < work[1] < work[2]

    def test_time_index_makes_lookback_flat(self, long_stream_loom):
        """With the time index the same sweep does near-constant work."""
        loom, index_id, clock = long_stream_loom
        snap = loom.snapshot()
        work = []
        for lookback_s in (10, 30, 50):
            t_end = clock.now() - seconds(lookback_s)
            stats = QueryStats()
            list(
                raw_scan(
                    snap,
                    events.SRC_SYSCALL,
                    t_end - seconds(5),
                    t_end,
                    stats=stats,
                    use_time_index=True,
                )
            )
            work.append(stats.records_scanned)
        assert max(work) - min(work) < max(work) * 0.2


class TestFigure17ExactMatch:
    def test_single_bin_histogram_emulates_exact_index(self, long_stream_loom):
        """§6.4: a histogram with one bin around the target value acts as
        an exact-match index; scans skip all chunks without matches."""
        loom, _, clock = long_stream_loom
        exact_index = loom.define_index(
            events.SRC_SYSCALL, events.latency_value, HistogramSpec([512.0, 100000.0])
        )
        # Index applies to new data only: push a fresh stream.
        base = clock.now()
        stream = latency_stream(
            rate_per_s=2000, duration_s=10.0, t_start_ns=base, seed=9
        )
        for t, sid, payload in stream:
            clock.set(max(t, clock.now()))
            loom.push(sid, payload)
        loom.sync()
        result = loom.scan_indexed(
            events.SRC_SYSCALL,
            exact_index,
            (base, clock.now()),
            (512.0, float("inf")),
        )
        records, stats = result.records, result.stats
        expected = sum(
            1 for _, _, p in stream if events.latency_value(p) >= 512.0
        )
        assert len(records) == expected
        assert stats.chunks_skipped > 0
