#!/usr/bin/env python3
"""The paper's motivating investigation (§2.1), end to end.

A performance engineer sees occasional high Redis tail latency.  Using a
monitoring daemon embedding Loom, they iteratively drill down:

  Phase 1  capture application request latency; find requests above the
           99.99th percentile.
  Phase 2  add eBPF syscall latency capture; correlate slow requests with
           slow ``recvfrom`` executions.
  Phase 3  add client TCP packet capture; dump packets around the slow
           requests and discover mangled destination ports — the buggy
           packet filter.

The workload generator plants the ground truth (six slow requests caused
by six mangled packets among millions of records); the drill-down below
recovers all of them from complete captured data.  The same investigation
is impossible on sampled data (run with --sampled to see Figure 3's
failure mode).

Run:  python examples/redis_drilldown.py [--sampled]
"""

import sys

from repro.analysis import correlate_windows, records_above_percentile
from repro.core.clock import millis, seconds
from repro.core.histogram import exponential_edges
from repro.daemon import MonitoringDaemon
from repro.workloads import RedisCaseStudy, events, uniform_sample

SCALE = 1e-3  # thin the paper's rates 1000x; virtual time stays exact


def main(sampled: bool = False) -> None:
    workload = RedisCaseStudy(scale=SCALE, phase_duration_s=10.0)
    daemon = MonitoringDaemon()

    # The engineer enables sources as the investigation deepens; here we
    # enable all three up front and replay the phases in order.
    daemon.enable_source("app", events.SRC_APP)
    daemon.enable_source("syscall", events.SRC_SYSCALL)
    daemon.enable_source("packet", events.SRC_PACKET)
    daemon.add_index("app", "latency", events.latency_value,
                     exponential_edges(10.0, 10_000.0, 16))
    daemon.add_index("syscall", "latency", events.latency_value,
                     exponential_edges(1.0, 10_000.0, 16))

    print("capturing three phases of telemetry "
          f"({'10% sampled' if sampled else 'complete'})...")
    needles = []
    for phase in workload.generate_all():
        records = phase.records
        if sampled:
            records = uniform_sample(records, 0.1, seed=7)
        daemon.replay(records)
        needles.extend(phase.needles)
        rate = workload.active_rate(phase.phase)
        print(f"  phase {phase.phase}: {len(records):,} records "
              f"(paper-scale rate {rate/1e6:.2f}M rec/s)")

    loom = daemon.loom
    t_all = (0, daemon.clock.now())

    # ------------------------------------------------------------------
    # Step 1: requests above the 99.99th-percentile latency
    # ------------------------------------------------------------------
    total_app = loom.source_record_count(events.SRC_APP)
    pct = 100.0 * (1.0 - max(1, len(needles)) / max(1, total_app))
    threshold, slow_requests = records_above_percentile(
        loom, events.SRC_APP, daemon.index_id("app", "latency"), t_all, pct
    )
    print(f"\nstep 1: {len(slow_requests)} requests above "
          f"p{pct:.2f} = {threshold:.0f} µs" if threshold else
          "\nstep 1: no data captured!")

    # ------------------------------------------------------------------
    # Step 2: correlate with slow recvfrom syscalls just before each
    # ------------------------------------------------------------------
    report = correlate_windows(
        loom, slow_requests, events.SRC_SYSCALL,
        window_before_ns=millis(1), window_after_ns=0,
        predicate=lambda r: (
            events.latency_kind(r.payload) == events.SYS_RECVFROM
            and events.latency_value(r.payload) > 10_000.0
        ),
    )
    print(f"step 2: {report.correlated_count}/{report.anchor_count} slow "
          "requests have a slow recvfrom in the preceding millisecond")

    # ------------------------------------------------------------------
    # Step 3: packet dump around each slow request -> mangled ports
    # ------------------------------------------------------------------
    found_mangled = 0
    for anchor in slow_requests:
        window = (anchor.timestamp - seconds(5), anchor.timestamp + seconds(5))
        packets = loom.scan(events.SRC_PACKET, window).records
        mangled = [
            p for p in packets
            if events.unpack_packet(p.payload)[1] == events.MANGLED_PORT
        ]
        if mangled:
            found_mangled += 1
            nearest = min(mangled, key=lambda p: abs(p.timestamp - anchor.timestamp))
            seq = events.unpack_packet(nearest.payload)[4]
            print(f"step 3: slow request at t={anchor.timestamp/1e9:.3f}s -> "
                  f"mangled packet seq={seq:#x} "
                  f"(dst port {events.MANGLED_PORT}, expected {events.REDIS_PORT})")

    # ------------------------------------------------------------------
    # Verdict against the planted ground truth
    # ------------------------------------------------------------------
    print(f"\nground truth: {len(needles)} slow requests caused by mangled packets")
    print(f"found: {len(slow_requests)} slow requests, "
          f"{found_mangled} with their mangled packet")
    if found_mangled == len(needles):
        print("root cause identified: a buggy packet filter is mangling "
              "destination ports.")
    else:
        print("investigation FAILED: the needles were lost "
              "(this is what sampling does — see Figure 3).")


if __name__ == "__main__":
    main(sampled="--sampled" in sys.argv[1:])
