"""The server side of ``wire-mixed``: one ``LoomServer`` in its own process.

Started by :mod:`benchmarks.perf.wire` as a script (``repro.daemon.cli``
has no ``__main__`` guard, so ``python -m`` cannot start it).  Prints
``{"port": N}`` on stdout once listening, serves until a line arrives on
stdin, then stops the front-end, migrates the shard's log to the cold tier
(timed — the workload's secondary ``migrate_rps``), closes it and writes
one JSON report.  With ``--trace`` it installs the same wrapper table as
the bench process and adds its spans to the report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from time import perf_counter_ns
from typing import Any, Deque, Dict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path[0:1] = [os.path.join(root, "src"), root]

    from repro.daemon import LoomServer, ServerConfig
    from repro.daemon.monitor import MonitoringDaemon
    from repro.daemon.server import _Shard

    from benchmarks.perf.engine import log_counters, loom_config, migrate_rate, stored_bytes
    from benchmarks.perf.spans import Tracer

    extras: Dict[str, Any] = {"queue_depth_max": 0}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        # server.queue_wait: admission end -> apply start, matched FIFO
        # (one shard, one worker, so batches apply in admission order).
        admitted: Deque[int] = deque()
        traced_admit = _Shard.admit
        traced_receive = MonitoringDaemon.receive_batch

        def admit(self: Any, key: str, source: str, payloads: Any) -> Any:
            outcome = traced_admit(self, key, source, payloads)
            if outcome[0] == "ack":
                admitted.append(perf_counter_ns())
                tracer.op += 1
                depth = self.queue.qsize()
                if depth > extras["queue_depth_max"]:
                    extras["queue_depth_max"] = depth
            return outcome

        def receive_batch(self: Any, source_name: str, payloads: Any) -> Any:
            tracer.add("server.queue_wait", perf_counter_ns() - admitted.popleft())
            return traced_receive(self, source_name, payloads)

        _Shard.admit = admit  # type: ignore[method-assign]
        MonitoringDaemon.receive_batch = receive_batch  # type: ignore[method-assign]

    server = LoomServer(
        port=0,
        config=ServerConfig(shards=1),
        loom_config=loom_config(args.data_dir),
    ).start()
    print(json.dumps({"port": server.port}), flush=True)
    sys.stdin.readline()

    server.stop(close_daemons=False)
    trace = None
    if tracer is not None:  # the timed phase is over; shutdown is not traced
        trace = tracer.export()
        tracer.uninstall()
    loom = server.shards[0].daemon.loom
    report: Dict[str, Any] = {
        "total_records": loom.total_records,
        "stored_bytes": stored_bytes(loom),
        "log_counters": log_counters(loom),
        **extras,
    }
    report["migrate_rps"] = migrate_rate(loom)
    footprint = loom.footprint()
    report["compression_ratio"] = footprint["cold_bytes_raw"] / max(
        1, footprint["cold_bytes_compressed"]
    )
    loom.close()
    if trace is not None:
        report["trace"] = trace
    with open(args.report, "w") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
