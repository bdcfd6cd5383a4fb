"""QueryResult API: the query surface and resolve_source."""

import pytest

from repro.core import LoomConfig
from repro.core.errors import LoomError
from repro.daemon.monitor import MonitoringDaemon

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
