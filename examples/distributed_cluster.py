#!/usr/bin/env python3
"""Distributed Loom: a coordinator over per-host instances (paper §8).

The paper sketches the multi-node extension: per-host Loom instances
compute intermediate results locally; a coordinator merges them.  This
example runs three "hosts", each capturing its own syscall latency
stream, and answers fleet-wide questions:

* distributive aggregates (count/max/mean) by merging per-node partials;
* an **exact global p99.9** by merging per-node *bin histograms* (tiny)
  to locate the target bin, then fetching only that bin's values — raw
  telemetry never leaves a node except for the one bin that matters;
* a cross-node scan around an anomaly window.

Run:  python examples/distributed_cluster.py
"""

import numpy as np

from repro.daemon import LoomCoordinator, MonitoringDaemon, NodeRef
from repro.workloads import events, latency_stream


def make_host(name: str, seed: int, median_us: float) -> NodeRef:
    daemon = MonitoringDaemon()
    daemon.enable_source("syscall", events.SRC_SYSCALL)
    daemon.add_index("syscall", "latency", events.latency_value,
                     [5.0, 20.0, 80.0, 320.0, 1280.0])
    stream = latency_stream(3_000, 5.0, median_us=median_us, sigma=0.8, seed=seed)
    daemon.replay(stream)
    return NodeRef(name, daemon)


def main() -> None:
    # host-c is the outlier: its median latency is 4x the others.
    nodes = [
        make_host("host-a", seed=1, median_us=10.0),
        make_host("host-b", seed=2, median_us=12.0),
        make_host("host-c", seed=3, median_us=45.0),
    ]
    coordinator = LoomCoordinator(nodes)
    t_range = (0, max(n.daemon.clock.now() for n in nodes))

    print("fleet-wide aggregates (merged from per-node partials):")
    for method in ("count", "max", "mean"):
        value = coordinator.global_aggregate(
            "syscall", "latency", t_range, method
        ).value
        print(f"  {method:>5}: {value:,.2f}")

    p999 = coordinator.global_percentile("syscall", "latency", t_range, 99.9).value
    print(f"  global p99.9 = {p999:.2f} µs")

    # Verify exactness against a full gather (which the coordinator never
    # actually needs to do).
    all_values = []
    for node in nodes:
        records = node.daemon.loom.scan(events.SRC_SYSCALL, t_range).records
        all_values.extend(events.latency_value(r.payload) for r in records)
    reference = float(np.percentile(all_values, 99.9, method="inverted_cdf"))
    assert p999 == reference
    print(f"  (matches a full gather exactly: {reference:.2f} µs — but the "
          "coordinator moved only bin counts plus one bin's values)")

    # Per-host contribution to the global tail: which host is sick?
    print("\nper-host mean latency (drill-down):")
    for node in nodes:
        handle = node.daemon.source("syscall")
        index_id = node.daemon.index_id("syscall", "latency")
        mean = node.daemon.loom.aggregate(
            handle.source_id, index_id, t_range, "mean"
        ).value
        marker = "  <-- outlier host" if mean > 30 else ""
        print(f"  {node.name}: {mean:7.2f} µs{marker}")

    scans = coordinator.fan_out_scan("syscall", (t_range[1] - 10**9, t_range[1]))
    total = sum(result.count for result in scans.values())
    print(f"\ncross-node scan of the last virtual second: {total:,} records "
          f"from {len(scans)} hosts")


if __name__ == "__main__":
    main()
