"""Tests for the OpenTelemetry-style exporter adapter (paper §5)."""

import numpy as np
import pytest

from repro.core.clock import micros
from repro.daemon import (
    MonitoringDaemon,
    OtelLoomExporter,
    OtelMetricPoint,
    OtelSpan,
)
from repro.daemon.otel import STATUS_ERROR, decode_span_payload


@pytest.fixture
def exporter():
    daemon = MonitoringDaemon()
    yield OtelLoomExporter(daemon), daemon
    daemon.close()


class TestSpanExport:
    def test_sources_created_lazily_per_span_name(self, exporter):
        exp, daemon = exporter
        exp.export_span(OtelSpan("GET /users", trace_id=1, duration_us=120.0))
        exp.export_span(OtelSpan("GET /orders", trace_id=2, duration_us=80.0))
        exp.export_span(OtelSpan("GET /users", trace_id=3, duration_us=95.0))
        names = set(daemon.source_names())
        assert "otel.span.GET /users" in names
        assert "otel.span.GET /orders" in names
        assert exp.spans_exported == 3
        assert daemon.source("otel.span.GET /users").records_received == 2

    def test_span_payload_roundtrip(self, exporter):
        exp, daemon = exporter
        span = OtelSpan("op", trace_id=0xABCDEF, duration_us=42.5,
                        status=STATUS_ERROR)
        exp.export_span(span)
        daemon.sync()
        handle = daemon.source("otel.span.op")
        records = daemon.loom.scan(handle.source_id, (0, daemon.clock.now())).records
        trace_id, duration, status = decode_span_payload(records[0].payload)
        assert (trace_id, duration, status) == (0xABCDEF, 42.5, STATUS_ERROR)

    def test_span_percentile_exact(self, exporter):
        exp, daemon = exporter
        rng = np.random.default_rng(4)
        durations = list(rng.lognormal(np.log(100), 0.8, size=1500))
        for i, duration in enumerate(durations):
            daemon.clock.advance(micros(50))
            exp.export_span(OtelSpan("rpc", trace_id=i, duration_us=float(duration)))
        daemon.sync()
        t_range = (0, daemon.clock.now())
        p99 = exp.span_percentile("rpc", t_range, 99.0)
        assert p99 == float(np.percentile(durations, 99.0, method="inverted_cdf"))

    def test_slow_spans_query(self, exporter):
        exp, daemon = exporter
        for i, duration in enumerate([10.0, 5000.0, 20.0, 8000.0]):
            daemon.clock.advance(micros(100))
            exp.export_span(OtelSpan("rpc", trace_id=i, duration_us=duration))
        daemon.sync()
        slow = exp.slow_spans("rpc", (0, daemon.clock.now()), threshold_us=1000.0)
        assert sorted(s.trace_id for s in slow) == [1, 3]
        assert all(s.duration_us >= 1000.0 for s in slow)
        assert all(s.name == "rpc" for s in slow)

    def test_unknown_span_name_percentile_raises(self, exporter):
        exp, daemon = exporter
        from repro.core.errors import LoomError

        with pytest.raises(LoomError):
            exp.span_percentile("never-seen", (0, 1), 50.0)


class TestMetricExport:
    def test_metric_sources_and_counts(self, exporter):
        exp, daemon = exporter
        for i in range(50):
            daemon.clock.advance(micros(10))
            exp.export_metric(OtelMetricPoint("cpu.util", float(i)))
        daemon.sync()
        assert exp.metrics_exported == 50
        handle = daemon.source("otel.metric.cpu.util")
        assert handle.records_received == 50

    def test_mixed_signals_coexist(self, exporter):
        exp, daemon = exporter
        exp.export_span(OtelSpan("op", trace_id=1, duration_us=10.0))
        exp.export_metric(OtelMetricPoint("mem.rss", 512.0))
        daemon.sync()
        assert daemon.loom.total_records == 2


class TestWarmRestart:
    """Exporter survival across a daemon reopen (satellite: §5.3 healing).

    Index UDFs are code and die with the old process; the exporter must
    re-attach them — lazily on the first post-restart query, or eagerly
    via :meth:`OtelLoomExporter.reattach`.
    """

    def _persisted_daemon(self, tmp_path, durations):
        from repro.core import LoomConfig

        cfg = LoomConfig(data_dir=str(tmp_path / "otel"))
        daemon = MonitoringDaemon(config=cfg)
        exp = OtelLoomExporter(daemon)
        for i, duration in enumerate(durations):
            daemon.clock.advance(micros(50))
            exp.export_span(OtelSpan("rpc", trace_id=i, duration_us=duration))
        source_id = daemon.source("otel.span.rpc").source_id
        daemon.close()
        return cfg, source_id

    def test_span_queries_work_after_reopen(self, tmp_path):
        durations = [10.0, 250.0, 4000.0, 75.0, 9000.0]
        cfg, source_id = self._persisted_daemon(tmp_path, durations)

        daemon = MonitoringDaemon.reopen(
            cfg, sources={"otel.span.rpc": source_id}
        )
        try:
            exp = OtelLoomExporter(daemon)
            t_range = (0, daemon.clock.now())
            # The reopened source came back indexless; the query self-heals.
            assert daemon.source("otel.span.rpc").indexes == {}
            p50 = exp.span_percentile("rpc", t_range, 50.0)
            assert p50 == float(
                np.percentile(durations, 50.0, method="inverted_cdf")
            )
            slow = exp.slow_spans("rpc", t_range, threshold_us=1000.0)
            assert sorted(s.trace_id for s in slow) == [2, 4]
        finally:
            daemon.close()

    def test_reattach_heals_eagerly_and_is_idempotent(self, tmp_path):
        cfg, source_id = self._persisted_daemon(tmp_path, [100.0, 200.0])

        daemon = MonitoringDaemon.reopen(
            cfg, sources={"otel.span.rpc": source_id}
        )
        try:
            exp = OtelLoomExporter(daemon)
            assert exp.reattach() == 1
            assert "duration" in daemon.source("otel.span.rpc").indexes
            assert exp.reattach() == 0  # nothing left to heal
        finally:
            daemon.close()

    def test_post_restart_exports_resume_on_healed_source(self, tmp_path):
        cfg, source_id = self._persisted_daemon(tmp_path, [100.0, 900.0])

        daemon = MonitoringDaemon.reopen(
            cfg, sources={"otel.span.rpc": source_id}
        )
        try:
            exp = OtelLoomExporter(daemon)
            daemon.clock.advance(micros(50))
            exp.export_span(OtelSpan("rpc", trace_id=9, duration_us=700.0))
            daemon.sync()
            t_range = (0, daemon.clock.now())
            slow = exp.slow_spans("rpc", t_range, threshold_us=500.0)
            # One pre-restart span and the fresh one, across the restart.
            assert sorted(s.trace_id for s in slow) == [1, 9]
        finally:
            daemon.close()
