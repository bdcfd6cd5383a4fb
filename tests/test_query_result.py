"""QueryResult API: the query surface and resolve_source."""

import pytest

from repro.core import Loom, LoomConfig, Record, record_log
from repro.core.errors import LoomError
from repro.core.operators import Records
from repro.daemon.monitor import MonitoringDaemon

from conftest import value_payload

EVERYTHING = (0, 2**62)


class TestQueryResultSurface:
    def test_scan_result_carries_records_and_stats(self, indexed_loom):
        loom, source_id, _, values, _ = indexed_loom
        result = loom.scan(source_id, EVERYTHING)
        assert result.count == len(values)
        assert len(result.records) == len(values)
        assert result.stats.records_matched == len(values)
        assert result.source == str(source_id)
        assert result.value is None and result.trace is None

    def test_scan_streaming_form_leaves_records_none(self, indexed_loom):
        loom, source_id, _, values, _ = indexed_loom
        seen = []
        result = loom.scan(source_id, EVERYTHING, func=lambda r: seen.append(r))
        assert result.records is None
        assert result.count == len(values) == len(seen)

    def test_aggregate_result_carries_value(self, indexed_loom):
        loom, source_id, index_id, values, _ = indexed_loom
        result = loom.aggregate(source_id, index_id, EVERYTHING, "max")
        assert result.value == max(values)
        assert result.count == len(values)
        assert result.records is None

    def test_trace_stages_for_each_verb(self, indexed_loom):
        loom, source_id, index_id, _, _ = indexed_loom
        pct = loom.aggregate(
            source_id, index_id, EVERYTHING, "percentile",
            percentile=99.0, trace=True,
        )
        assert "summary-prune" in pct.trace.stages()
        assert "cdf" in pct.trace.stages()
        where = loom.scan_indexed(
            source_id, index_id, EVERYTHING, (100.0, 200.0), trace=True
        )
        assert "summary-prune" in where.trace.stages()
        assert any("scan" in s for s in where.trace.stages())
        assert loom.scan(source_id, EVERYTHING).trace is None  # opt-in


class TestLazyRecords:
    """``QueryResult.records`` is a lazy sequence over column batches."""

    @pytest.fixture
    def big(self, clock):
        loom = Loom(LoomConfig(chunk_size=8192, record_block_size=1 << 16), clock=clock)
        loom.define_source(1)
        for start in range(0, 10_000, 500):
            clock.advance(1000)
            loom.push_many(1, [value_payload(float(i)) for i in range(start, start + 500)])
        loom.sync()
        yield loom
        loom.close()

    def test_len_and_ends_build_only_the_records_asked_for(self, big, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return Record(*args, **kwargs)

        records = big.scan(1, EVERYTHING).records
        # The scan itself reads exactly one record by pointer (the seek).
        monkeypatch.setattr(record_log, "Record", counting)
        assert isinstance(records, Records)
        assert len(records) == 10_000 and records
        assert built == []
        first, last = records[0], records[-1]
        assert len(built) == 2
        assert first.payload == value_payload(9999.0)  # newest first
        assert last.payload == value_payload(0.0)
        assert isinstance(first.payload, bytes)
        assert [r.payload for r in records[10:13]] == [
            value_payload(float(v)) for v in (9989, 9988, 9987)
        ]
        assert len(built) == 5
        with pytest.raises(IndexError):
            records[10_000]
        with pytest.raises(IndexError):
            records[-10_001]

    def test_behaves_like_the_list_it_replaces(self, big):
        records = big.scan(1, (3000, 5000)).records
        as_list = list(records)
        assert len(as_list) == len(records) == 1500
        assert records == as_list and as_list == records
        assert records != as_list[:-1]
        assert [records[i] for i in (0, 7, -1)] == [as_list[i] for i in (0, 7, -1)]
        assert records[::-1] == as_list[::-1]
        assert as_list[3] in records
        assert big.scan(1, (1, 2)).records == []
        assert not big.scan(1, (1, 2)).records

    def test_streaming_func_sees_the_same_records(self, big):
        seen = []
        result = big.scan(1, (3000, 5000), func=seen.append)
        assert result.records is None and result.count == 1500
        assert seen == list(big.scan(1, (3000, 5000)).records)


class TestResolveSource:
    @pytest.fixture
    def daemon(self, tmp_path):
        cfg = LoomConfig(data_dir=str(tmp_path / "loom"))
        d = MonitoringDaemon(config=cfg)
        d.enable_source("cpu", source_id=7)
        yield d
        d.close()

    def test_resolve_by_name_and_by_id(self, daemon):
        by_name = daemon.resolve_source("cpu")
        by_id = daemon.resolve_source(7)
        assert by_name is by_id
        assert by_name.name == "cpu" and by_name.source_id == 7

    def test_unknown_name_and_id_raise(self, daemon):
        with pytest.raises(LoomError):
            daemon.resolve_source("net")
        with pytest.raises(LoomError):
            daemon.resolve_source(99)

    def test_query_result_source_is_the_name(self, daemon):
        daemon.receive_batch("cpu", [b"abcd"] * 3)
        daemon.sync()
        result = daemon.scan(7, EVERYTHING)  # queried by id...
        assert result.source == "cpu"  # ...reported by name

    def test_recovered_unnamed_id_gets_transient_handle(self, tmp_path):
        cfg = LoomConfig(data_dir=str(tmp_path / "loom"))
        daemon = MonitoringDaemon(config=cfg)
        daemon.enable_source("cpu", source_id=7)
        daemon.receive_batch("cpu", [b"abcd"] * 3)
        daemon.close()

        reopened = MonitoringDaemon.reopen(cfg)  # no sources mapping
        try:
            handle = reopened.resolve_source(7)
            assert handle.name == "source-7"
            result = reopened.scan(7, EVERYTHING)
            assert result.source == "source-7"
            assert len(result.records) == 3
            # Naming it afterwards still works and takes precedence.
            reopened.enable_source("cpu", source_id=7)
            assert reopened.resolve_source(7).name == "cpu"
        finally:
            reopened.close()
