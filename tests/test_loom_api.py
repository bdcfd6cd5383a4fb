"""Tests for the Loom facade: the Figure 9 API surface and lifecycle."""


import pytest

from repro.core import (
    HistogramSpec,
    Loom,
    LoomConfig,
)

from conftest import payload_value, value_payload


class TestApiSurface:
    def test_figure9_operator_names_exist(self):
        """The public API mirrors Figure 9's operator table."""
        for name in (
            "define_source",
            "close_source",
            "define_index",
            "close_index",
            "push",
            "sync",
            "scan",
            "scan_indexed",
            "aggregate",
        ):
            assert callable(getattr(Loom, name))

    def test_define_index_accepts_edge_sequence(self, loom):
        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, [1.0, 2.0, 3.0])
        assert isinstance(index_id, int)

    def test_define_index_accepts_spec(self, loom):
        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, HistogramSpec([1.0]))
        assert isinstance(index_id, int)

    def test_push_returns_address(self, loom):
        loom.define_source(1)
        assert loom.push(1, b"abc") == 0
        assert loom.push(1, b"defg") > 0

    def test_total_records_never_drops(self, loom, clock):
        """Loom captures complete data: every push is counted, none lost
        (Figure 11's Loom column)."""
        loom.define_source(1)
        for i in range(500):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        assert loom.total_records == 500
        assert loom.source_record_count(1) == 500
        records = loom.scan(1, (0, clock.now())).records
        assert len(records) == 500

    def test_context_manager_closes(self, small_config, clock):
        with Loom(small_config, clock=clock) as loom:
            loom.define_source(1)
            loom.push(1, b"x")
        with pytest.raises(Exception):
            loom.push(1, b"y")

    def test_footprint_reports_log_sizes(self, indexed_loom):
        loom, *_ = indexed_loom
        fp = loom.footprint()
        assert fp["record_log_bytes"] > 0
        assert fp["chunk_index_bytes"] > 0
        assert fp["timestamp_index_bytes"] > 0
        assert fp["finalized_chunks"] > 0

    def test_layered_index_sizes(self, indexed_loom):
        """Paper §4.2: each index layer is far smaller than the one below."""
        loom, *_ = indexed_loom
        fp = loom.footprint()
        assert fp["chunk_index_bytes"] < fp["record_log_bytes"]
        assert fp["timestamp_index_bytes"] < fp["chunk_index_bytes"]


class TestIndexLifecycle:
    def test_index_redefinition_covers_only_new_data(self, loom, clock):
        """Section 5.3: a new index accelerates only data arriving after
        its definition; old data stays queryable via raw scans."""
        loom.define_source(1)
        for i in range(100):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        split_time = clock.now()
        index_id = loom.define_index(1, payload_value, [10.0, 50.0])
        for i in range(100, 200):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        # Indexed aggregate over the new-data window is exact.
        result = loom.aggregate(
            1, index_id, (split_time, clock.now()), "count"
        )
        assert result.value == 100.0
        # Raw scan still sees all 200 records.
        assert len(loom.scan(1, (0, clock.now())).records) == 200

    def test_closing_index_does_not_disturb_ingest(self, loom, clock):
        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, [10.0])
        loom.push(1, value_payload(1.0))
        loom.close_index(index_id)
        loom.push(1, value_payload(2.0))
        loom.sync()
        assert loom.total_records == 2

    def test_multiple_indexes_per_source(self, loom, clock):
        loom.define_source(1)
        by_value = loom.define_index(1, payload_value, [10.0, 100.0])
        by_half = loom.define_index(
            1, lambda p: payload_value(p) / 2.0, [10.0, 100.0]
        )
        for i in range(100):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        t = (0, clock.now())
        assert loom.aggregate(1, by_value, t, "max").value == 99.0
        assert loom.aggregate(1, by_half, t, "max").value == 49.5


class TestMultipleSources:
    def test_interleaved_sources_query_independently(self, loom, clock):
        loom.define_source(1)
        loom.define_source(2)
        i1 = loom.define_index(1, payload_value, [10.0])
        i2 = loom.define_index(2, payload_value, [10.0])
        for i in range(100):
            loom.push(1, value_payload(1.0))
            loom.push(2, value_payload(100.0))
            clock.advance(10)
        loom.sync()
        t = (0, clock.now())
        assert loom.aggregate(1, i1, t, "max").value == 1.0
        assert loom.aggregate(2, i2, t, "max").value == 100.0
        assert loom.aggregate(1, i1, t, "count").value == 100.0

    def test_many_sources(self, loom, clock):
        n_sources = 20
        for sid in range(1, n_sources + 1):
            loom.define_source(sid)
        for round_ in range(30):
            for sid in range(1, n_sources + 1):
                loom.push(sid, value_payload(float(sid)))
            clock.advance(100)
        loom.sync()
        for sid in range(1, n_sources + 1):
            records = loom.scan(sid, (0, clock.now())).records
            assert len(records) == 30
            assert all(payload_value(r.payload) == float(sid) for r in records)


class TestClocks:
    def test_monotonic_clock_default(self):
        loom = Loom(LoomConfig(chunk_size=1024))
        loom.define_source(1)
        loom.push(1, b"a")
        loom.push(1, b"b")
        loom.sync()
        records = loom.scan(1, (0, 2**63 - 1)).records
        assert len(records) == 2
        assert records[0].timestamp >= records[1].timestamp
        loom.close()

    def test_virtual_clock_timestamps(self, loom, clock):
        loom.define_source(1)
        clock.set(1000)
        loom.push(1, b"a")
        clock.set(2000)
        loom.push(1, b"b")
        loom.sync()
        records = loom.scan(1, (1500, 2500)).records
        assert len(records) == 1
        assert records[0].timestamp == 2000


class TestFileBackedLoom:
    def test_logs_written_to_data_dir(self, tmp_path, clock):
        config = LoomConfig(
            chunk_size=512,
            record_block_size=2048,
            data_dir=str(tmp_path),
        )
        loom = Loom(config, clock=clock)
        loom.define_source(1)
        for i in range(200):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        records = loom.scan(1, (0, clock.now())).records
        assert len(records) == 200
        loom.close()
        assert (tmp_path / "records.log").stat().st_size > 0
        assert (tmp_path / "chunks.idx").stat().st_size > 0
        assert (tmp_path / "timestamps.idx").stat().st_size > 0
