"""End-to-end integration: the RocksDB case study (paper Figures 10b, 13).

Replays the three phases into Loom and verifies every aggregation query
returns the generator's exact ground truth: max and 99.99th-percentile
request latency (P1), pread64 aggregates over ~3% of the data (P2), and
the page-cache event count over ~0.5% of the data (P3).
"""

import pytest

from repro.core.histogram import exponential_edges
from repro.daemon import MonitoringDaemon
from repro.workloads import RocksDbCaseStudy, events

SCALE = 5e-4
DURATION = 5.0


@pytest.fixture(scope="module")
def ingested():
    workload = RocksDbCaseStudy(scale=SCALE, phase_duration_s=DURATION, seed=41)
    daemon = MonitoringDaemon()
    daemon.enable_source("app", events.SRC_APP)
    daemon.enable_source("syscall", events.SRC_SYSCALL)
    daemon.enable_source("pagecache", events.SRC_PAGECACHE)
    daemon.add_index(
        "app", "latency", events.latency_value, exponential_edges(0.5, 500.0, 16)
    )
    # pread64-only latency index: non-pread records land in no useful bin;
    # use a compound UDF that maps other syscalls below the histogram.
    daemon.add_index(
        "syscall",
        "pread-latency",
        lambda p: (
            events.latency_value(p)
            if events.latency_kind(p) == events.SYS_PREAD64
            else -1.0
        ),
        exponential_edges(0.5, 1000.0, 16),
    )
    daemon.add_index(
        "pagecache", "kind", events.pagecache_kind, [1.0, 2.0, 3.0, 4.0]
    )
    phases = workload.generate_all()
    for phase in phases:
        daemon.replay(phase.records)
    yield workload, daemon, phases
    daemon.close()


class TestPhase1Aggregates:
    def test_app_max_latency(self, ingested):
        workload, daemon, phases = ingested
        phase = phases[0]
        result = daemon.loom.aggregate(
            events.SRC_APP,
            daemon.index_id("app", "latency"),
            (phase.t_start_ns, phase.t_end_ns),
            "max",
        )
        assert result.value == pytest.approx(phase.truth["app_max_us"])

    def test_app_tail_latency(self, ingested):
        workload, daemon, phases = ingested
        phase = phases[0]
        result = daemon.loom.aggregate(
            events.SRC_APP,
            daemon.index_id("app", "latency"),
            (phase.t_start_ns, phase.t_end_ns),
            "percentile",
            percentile=99.99,
        )
        assert result.value == pytest.approx(phase.truth["app_p9999_us"])


class TestPhase2PreadAggregates:
    def test_pread_count_via_value_partition(self, ingested):
        """The pread-only UDF maps other syscalls to -1, so counting values
        >= 0 counts exactly the pread64 records."""
        workload, daemon, phases = ingested
        phase = phases[1]
        records = daemon.loom.scan_indexed(
            events.SRC_SYSCALL,
            daemon.index_id("syscall", "pread-latency"),
            (phase.t_start_ns, phase.t_end_ns),
            (0.0, float("inf")),
        ).records
        assert len(records) == int(phase.truth["pread_count"])

    def test_pread_max(self, ingested):
        workload, daemon, phases = ingested
        phase = phases[1]
        result = daemon.loom.aggregate(
            events.SRC_SYSCALL,
            daemon.index_id("syscall", "pread-latency"),
            (phase.t_start_ns, phase.t_end_ns),
            "max",
        )
        assert result.value == pytest.approx(phase.truth["pread_max_us"])

    def test_pread_selectivity(self, ingested):
        """Figure 10b: the P2 queries touch only ~3% of the data."""
        workload, daemon, phases = ingested
        phase = phases[1]
        assert phase.truth["pread_count"] / phase.record_count < 0.05


class TestPhase3PageCacheCount:
    def test_add_event_count(self, ingested):
        """The Phase 3 query: count mm_filemap_add_to_page_cache events."""
        workload, daemon, phases = ingested
        phase = phases[2]
        kind = float(events.PC_ADD_TO_PAGE_CACHE)
        records = daemon.loom.scan_indexed(
            events.SRC_PAGECACHE,
            daemon.index_id("pagecache", "kind"),
            (phase.t_start_ns, phase.t_end_ns),
            (kind, kind),
        ).records
        assert len(records) == int(phase.truth["pagecache_add_count"])

    def test_count_served_mostly_from_summaries(self, ingested):
        """Loom answers the count 'using counts stored in chunk summaries';
        most chunks should not be scanned."""
        workload, daemon, phases = ingested
        phase = phases[2]
        result = daemon.loom.aggregate(
            events.SRC_PAGECACHE,
            daemon.index_id("pagecache", "kind"),
            (phase.t_start_ns, phase.t_end_ns),
            "count",
        )
        stats = result.stats
        assert stats.summaries_aggregated > 0


class TestCrossPhaseWindows:
    def test_aggregate_over_all_phases(self, ingested):
        workload, daemon, phases = ingested
        t_range = (0, daemon.clock.now())
        result = daemon.loom.aggregate(
            events.SRC_APP, daemon.index_id("app", "latency"), t_range, "count"
        )
        expected = daemon.loom.source_record_count(events.SRC_APP)
        assert result.value == float(expected)

    def test_window_restricted_to_single_phase(self, ingested):
        workload, daemon, phases = ingested
        phase = phases[1]
        app_in_phase = sum(
            1 for _, sid, _ in phase.records if sid == events.SRC_APP
        )
        result = daemon.loom.aggregate(
            events.SRC_APP,
            daemon.index_id("app", "latency"),
            (phase.t_start_ns, phase.t_end_ns - 1),
            "count",
        )
        assert result.value == float(app_in_phase)
