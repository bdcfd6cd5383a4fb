"""Degraded reads and shard quarantine across a networked Loom fleet.

The ACCEPTANCE scenario: three single-shard LoomServers behind one
LoomCoordinator; one node is partitioned away; ``global_aggregate`` and
``global_percentile`` still answer within the deadline, annotated
``degraded=True`` with the missing shard named — and become exact again
after the shard rejoins.  Plus coordinator-level quarantine/readmission
of FAILED nodes, over the wire and in-process.
"""

from __future__ import annotations

import struct
import time

import pytest

from repro.core.clock import VirtualClock
from repro.core.config import LoomConfig
from repro.core.faults import FaultInjectingStorage
from repro.core.hybridlog import Health
from repro.daemon import (
    LoomClient,
    LoomCoordinator,
    LoomServer,
    MonitoringDaemon,
    NodeRef,
)

EDGES = [0.0, 10.0, 20.0, 30.0, 40.0]
ALL_TIME = (0, 2**63 - 1)


def payloads_for(values):
    return [struct.pack("<d", float(v)) for v in values]


@pytest.fixture
def fleet():
    """Three single-shard servers; node i holds values 10i .. 10i+9."""
    servers, nodes, clients = [], [], []
    for i in range(3):
        srv = LoomServer(port=0).start()
        client = LoomClient(
            "127.0.0.1",
            srv.port,
            deadline_s=2.0,
            attempt_timeout_s=0.2,
            circuit_threshold=0,
        )
        client.enable_source("lat")
        client.add_index("lat", "val", EDGES)
        client.ingest(
            "lat", payloads_for([10 * i + k for k in range(10)])
        )
        client.sync()
        servers.append(srv)
        clients.append(client)
        nodes.append(NodeRef(f"node{i}", client))
    coordinator = LoomCoordinator(nodes, failure_threshold=1)
    yield servers, clients, coordinator
    for client in clients:
        client.close()
    for srv in servers:
        srv.stop()


class TestHealthyFleet:
    def test_global_aggregate_exact(self, fleet):
        _, _, coord = fleet
        result = coord.global_aggregate("lat", "val", ALL_TIME, "count")
        assert result.value == 30
        assert not result.stats.degraded
        assert result.stats.missing_shards == []
        assert coord.global_aggregate("lat", "val", ALL_TIME, "sum").value == sum(
            range(30)
        )
        assert coord.global_aggregate("lat", "val", ALL_TIME, "max").value == 29.0

    def test_global_percentile_exact(self, fleet):
        _, _, coord = fleet
        # Values are 0..29: p50 rank is ceil(0.5*30)=15 -> value 14.
        result = coord.global_percentile("lat", "val", ALL_TIME, 50)
        assert result.value == 14.0
        assert result.count == 30
        assert not result.stats.degraded

    def test_fan_out_scan_collects_all_nodes(self, fleet):
        _, _, coord = fleet
        out = coord.fan_out_scan("lat", ALL_TIME)
        assert sorted(out) == ["node0", "node1", "node2"]
        assert sum(len(r.records) for r in out.values()) == 30


class TestPartitionedFleet:
    def test_degraded_reads_with_missing_shard_named(self, fleet):
        """ACCEPTANCE: with 1 of 3 shards down, global aggregate and
        percentile return within the deadline with degraded=True and the
        missing shard named; results are exact again after rejoin."""
        servers, _, coord = fleet
        servers[1].stop(close_daemons=False)  # partition node1 away

        t0 = time.monotonic()
        agg = coord.global_aggregate("lat", "val", ALL_TIME, "count")
        pct = coord.global_percentile("lat", "val", ALL_TIME, 50)
        elapsed = time.monotonic() - t0
        # Within deadline: the per-node budget is 2 s; a hung fleet call
        # would burn >= one budget per phase per node.
        assert elapsed < 10.0

        assert agg.value == 20  # the two answering nodes
        assert agg.stats.degraded
        assert agg.stats.missing_shards == ["node1"]
        # Survivor values are {0..9, 20..29}: p50 rank 10 -> value 9.
        assert pct.value == 9.0
        assert pct.stats.degraded
        assert pct.stats.missing_shards == ["node1"]

        # The failed node is quarantined (failure_threshold=1), so the
        # next query skips it without paying its timeout again.
        assert coord.quarantined_nodes() == ["node1"]
        t0 = time.monotonic()
        coord.global_aggregate("lat", "val", ALL_TIME, "count")
        assert time.monotonic() - t0 < 1.0

        # Rejoin: same port, same shard state; probe readmits.
        servers[1].start()
        probe = coord.probe()
        assert probe["node1"] == "healthy"
        assert coord.quarantined_nodes() == []
        agg = coord.global_aggregate("lat", "val", ALL_TIME, "count")
        assert agg.value == 30
        assert not agg.stats.degraded
        pct = coord.global_percentile("lat", "val", ALL_TIME, 50)
        assert pct.value == 14.0
        assert not pct.stats.degraded

    def test_fan_out_scan_marks_missing_node(self, fleet):
        servers, _, coord = fleet
        servers[2].stop(close_daemons=False)
        out = coord.fan_out_scan("lat", ALL_TIME)
        assert out["node2"].records is None
        assert out["node2"].stats.degraded
        assert out["node2"].stats.missing_shards == ["node2"]
        assert len(out["node0"].records) == 10
        servers[2].start()

    def test_mean_weights_survivors_only(self, fleet):
        servers, _, coord = fleet
        servers[0].stop(close_daemons=False)
        result = coord.global_aggregate("lat", "val", ALL_TIME, "mean")
        # Survivors hold 10..29 -> mean 19.5.
        assert result.value == pytest.approx(19.5)
        assert result.stats.degraded
        servers[0].start()


class TestQuarantineReadmission:
    """Coordinator membership over in-process daemons: quarantine of
    FAILED shards, explicit and probe-driven readmission."""

    def _fleet(self):
        daemons = []
        for i in range(3):
            daemon = MonitoringDaemon(
                config=LoomConfig(chunk_size=256, record_block_size=512),
                clock=VirtualClock(1),
            )
            daemon.enable_source("lat")
            daemon.add_index(
                "lat",
                "val",
                lambda p: struct.unpack("<d", p)[0],
                EDGES,
            )
            for k in range(10):
                daemon.clock.advance(10)
                daemon.receive("lat", struct.pack("<d", float(10 * i + k)))
            daemon.sync()
            daemons.append(daemon)
        nodes = [NodeRef(f"node{i}", d) for i, d in enumerate(daemons)]
        return daemons, LoomCoordinator(nodes, failure_threshold=2)

    def test_failed_node_is_quarantined_by_probe(self):
        daemons, coord = self._fleet()
        # Drive node1's log to FAILED: storage dies, flush exhausts.
        log = daemons[1].loom.record_log.log
        fault = FaultInjectingStorage(inner=log._storage)
        log._storage = fault
        fault.fail_next_appends(10**6)
        with pytest.raises(Exception):
            for k in range(200):
                daemons[1].clock.advance(10)
                daemons[1].receive("lat", struct.pack("<d", 1.0))
        assert daemons[1].health() is Health.FAILED
        probe = coord.probe()
        assert probe["node1"] == "failed"
        assert coord.quarantined_nodes() == ["node1"]
        # Quarantined: fan-out skips it but names it.
        result = coord.global_aggregate("lat", "val", ALL_TIME, "count")
        assert result.value == 20
        assert result.stats.missing_shards == ["node1"]
        fault.make_reliable()

    def test_consecutive_failures_reach_threshold(self):
        daemons, coord = self._fleet()

        class Exploding:
            def __getattr__(self, name):
                raise ConnectionError("node down")

        # Swap node2's backend for one that always fails at the wire.
        coord.nodes[2] = NodeRef("node2", Exploding())
        assert coord.quarantined_nodes() == []
        coord.global_aggregate("lat", "val", ALL_TIME, "count")
        assert coord.quarantined_nodes() == []  # 1 failure < threshold 2
        coord.global_aggregate("lat", "val", ALL_TIME, "count")
        assert coord.quarantined_nodes() == ["node2"]

    def test_explicit_readmission_resets_failures(self):
        daemons, coord = self._fleet()
        coord.quarantine("node0")
        result = coord.global_aggregate("lat", "val", ALL_TIME, "count")
        assert result.value == 20
        assert result.stats.missing_shards == ["node0"]
        coord.readmit("node0")
        result = coord.global_aggregate("lat", "val", ALL_TIME, "count")
        assert result.value == 30
        assert not result.stats.degraded

    def test_probe_readmits_recovered_node(self):
        daemons, coord = self._fleet()
        coord.quarantine("node0")
        probe = coord.probe()
        assert probe["node0"] == "healthy"
        assert coord.quarantined_nodes() == []

    def test_percentile_drops_node_failing_phase_two(self):
        """A node that answers the histogram phase but dies before the
        bin-values phase is dropped entirely — its phase-1 histogram is
        discarded so rank arithmetic stays consistent."""
        daemons, coord = self._fleet()

        class DiesInPhaseTwo:
            def __init__(self, daemon):
                self._daemon = daemon

            def index_spec(self, *a, **k):
                return self._daemon.index_spec(*a, **k)

            def histogram(self, *a, **k):
                return self._daemon.histogram(*a, **k)

            def bin_values(self, *a, **k):
                raise ConnectionError("died between phases")

        coord.nodes[1] = NodeRef("node1", DiesInPhaseTwo(daemons[1]))
        result = coord.global_percentile("lat", "val", ALL_TIME, 50)
        # Identical to node1 being gone entirely: survivors {0..9,20..29},
        # rank ceil(.5*20)=10 -> 9.0; count covers survivors only.
        assert result.value == 9.0
        assert result.count == 20
        assert result.stats.degraded
        assert result.stats.missing_shards == ["node1"]
