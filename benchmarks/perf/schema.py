"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json`
written out; the smoke test fails when the two drift apart.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .spans import TARGETS

RUN_SECONDS = 15
COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS: List[Tuple[str, str]] = [
    (
        "ingest",
        "write path only: encode, append, summary fold, ts-index and flush do the "
        "work and every read layer idles, so a read-path change must not show here",
    ),
    (
        "query-hot",
        "read path only on the mmap tier: seek, region fetch, column decode, mask and "
        "materialise dominate; the write layers run only in set-up",
    ),
    (
        "query-cold",
        "same data and queries after migration: frame read, inflate and column rebuild "
        "replace mmap, so a hot gain that costs the cold path shows, beside stored bytes",
    ),
    (
        "wire-mixed",
        "writes beside reads over loopback to a server child: protocol, transport and "
        "queueing dominate; the only workload where a wire or admission change shows",
    ),
]

#: ``(name, unit, better, bound)``.  A bound is the share of the parent's
#: median by which a later change may worsen the metric.  Every timing
#: carries the widest bound the driver allows: across ten seeds the spread
#: (interquartile distance over median) is 2-8 % on a quiet machine, but
#: this sandbox has spells of tens of seconds in which whole runs come out
#: 20-40 % slow, and three such runs in ten put a spread near 0.2.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ingest_rps", "1/s", "higher", 0.25),
    ("ingest_single_rps", "1/s", "higher", 0.25),
    ("scan_rps", "1/s", "higher", 0.25),
    ("scan_indexed_rps", "1/s", "higher", 0.25),
    ("needle_p50_ms", "ms", "lower", 0.25),
    ("aggregate_p50_ms", "ms", "lower", 0.25),
    ("percentile_p50_ms", "ms", "lower", 0.25),
    ("migrate_rps", "1/s", "higher", 0.25),
    ("stored_bytes_per_user_byte", "B/B", "lower", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]

#: One name per wrapped layer, in first-appearance order, plus the spans
#: the benchmark opens or derives itself.
SPAN_NAMES: List[str] = list(dict.fromkeys(name for name, _, _ in TARGETS))
SPAN_NAMES.insert(SPAN_NAMES.index("monitor.receive_batch"), "server.queue_wait")
SPAN_NAMES.append("loadgen")

#: ``(name, unit, better)``.
COUNTERS: List[Tuple[str, str, str]] = [
    ("chunk_index.prune_ratio", "ratio", "higher"),
    ("chunk_index.bytes_per_chunk", "B", "lower"),
    ("operators.match_ratio", "ratio", "higher"),
    ("archive.cache_hit_ratio", "ratio", "higher"),
    ("archive.compression_ratio", "ratio", "higher"),
    ("archive.cold_chunks_decompressed", "count", "lower"),
    ("hybridlog.flushes", "count", "lower"),
    ("storage.bytes_written", "B", "lower"),
    ("timestamp_index.entries", "count", "lower"),
    ("metrics.overhead_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("server.queue_depth_max", "count", "lower"),
    ("server.retry_afters", "count", "lower"),
    ("server.dedup_hits", "count", "lower"),
    ("server.wire_overhead_factor", "ratio", "lower"),
    ("client.retries", "count", "lower"),
    ("client.backpressure_hits", "count", "lower"),
    ("client.ingest.p99_us", "us", "lower"),
    ("transport.health_rtt_us", "us", "lower"),
    ("scan_window.tail_ms", "ms", "lower"),
    ("needle.tail_ms", "ms", "lower"),
    ("dense.tail_ms", "ms", "lower"),
    ("aggregate.tail_ms", "ms", "lower"),
    ("percentile.tail_ms", "ms", "lower"),
    ("scan_pinned.p50_ms", "ms", "lower"),
]

PER_LAYER: List[Tuple[str, str, str]] = []
for _span in SPAN_NAMES:
    PER_LAYER.append((f"{_span}.self_s", "s", "lower"))
    PER_LAYER.append((f"{_span}.calls", "count", "lower"))
PER_LAYER.extend(COUNTERS)

_WRITE_SPANS = [
    "hybridlog.append_many",
    "hybridlog.publish",
    "storage.append",
    "histogram.bins_of",
    "summary.add_records",
    "summary.add_indexed_values_array",
    "summary.encode",
    "chunk_index.append",
    "timestamp_index.note_records",
    "record_log.push_many",
    "record.encode_batch_arrays",
]
_READ_SPANS = [
    "snapshot.capture",
    "chunk_index.summaries_in_time_range",
    "timestamp_index.first_record_after",
    "record_log.region_columns",
    "record_log.read_record",
    "operators.raw_scan",
    "operators.indexed_scan",
    "operators.indexed_aggregate",
]

#: Spans that must have ``calls > 0`` after a traced run of a workload.
EXPECTED_SPANS: Dict[str, List[str]] = {
    "ingest": _WRITE_SPANS
    + [
        "record.encode_record",
        "hybridlog.append",
        "record_log.push",
        "storage.sync",
        "recovery.reopen",
        "loadgen",
    ],
    "query-hot": _READ_SPANS
    + ["hybridlog.read", "hybridlog.read_view", "storage.read_view", "loadgen"],
    "query-cold": _READ_SPANS
    + ["archive.read_chunk_bytes", "archive.decode_chunk_region", "loadgen"],
    "wire-mixed": _WRITE_SPANS
    + _READ_SPANS
    + [
        "hybridlog.read",
        "protocol.pack_payloads",
        "protocol.encode_frame",
        "protocol.split_frame",
        "protocol.unpack_payloads",
        "protocol.result_to_wire",
        "protocol.result_from_wire",
        "transport.send_frame",
        "transport.recv_frame",
        "client.ingest",
        "server.admit",
        "server.queue_wait",
        "monitor.receive_batch",
        "loadgen",
    ],
}


def check_names() -> None:
    """Reject metric or workload names outside ``[A-Za-z0-9_.-]``."""
    names = (
        [name for name, _ in WORKLOADS]
        + [name for name, _, _, _ in END_TO_END]
        + [name for name, _, _ in PER_LAYER]
    )
    for name in names:
        if not NAME_RE.match(name):
            raise ValueError(f"metric or workload name {name!r} is not allowed")
    if len(set(names)) != len(names):
        raise ValueError("metric and workload names must be unique")


def benchmark_json() -> Dict[str, object]:
    check_names()
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
