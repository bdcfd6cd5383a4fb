"""The read path, migration and reopen keep every layer the benchmark's
traced run expects.

``benchmarks/perf/schema.py:EXPECTED_SPANS`` makes ``run.py --trace 1``
exit non-zero when a listed span records zero calls, and
``spans.Tracer.install`` raises when a patched name no longer resolves.
A read-path change that stops calling one of those layers (say, a region
walk that drops the last ``read_record``) would only show up in a
15-second traced benchmark run; this test shows it in tier-1, on a small
file-backed Loom, hot and migrated, and through a traced migration pass
and ``Loom.open``.  It reads the benchmark's contract and edits nothing
there.
"""

import pytest

from benchmarks.perf import schema
from benchmarks.perf.spans import Tracer
from repro.core import HistogramSpec, Loom, LoomConfig, TierConfig, VirtualClock

from conftest import payload_value, value_payload

EXTRAS = {
    "query-hot": ["hybridlog.read", "hybridlog.read_view", "storage.read_view"],
    "query-cold": ["archive.read_chunk_bytes", "archive.decode_chunk_region"],
}
#: Layers a migration pass and a warm restart go through; their
#: signatures carry columns, so a break must show here, not only in a
#: traced benchmark run.
MIGRATE_REOPEN_SPANS = [
    "archive.encode_chunk_streams",
    "archive.append_chunk",
    "record_log.migrate",
    "recovery.reopen",
]
N_RECORDS = 4000


def config(data_dir: str) -> LoomConfig:
    return LoomConfig(
        chunk_size=4096,
        record_block_size=1 << 14,
        data_dir=data_dir,
        tier=TierConfig(auto_migrate=False),
    )


def build(data_dir: str, migrate: bool):
    clock = VirtualClock()
    loom = Loom(config(data_dir), clock=clock)
    loom.define_source(1)
    loom.define_source(2)
    index_id = loom.define_index(1, payload_value, HistogramSpec([10.0, 100.0, 1000.0]))
    for i in range(0, N_RECORDS, 50):
        clock.advance(1000)
        loom.push_many(1, [value_payload(float(j % 1500)) for j in range(i, i + 50)])
        loom.push_many(2, [value_payload(0.0)] * 10)
    loom.sync()
    if migrate:
        assert loom.migrate(force=True).chunks_migrated > 0
    return loom, index_id, clock


@pytest.mark.parametrize("workload", ["query-hot", "query-cold"])
def test_traced_read_path_touches_every_expected_span(tmp_path, workload):
    loom, index_id, clock = build(str(tmp_path), migrate=workload == "query-cold")
    # A window inside the persisted (and, when migrated, cold) prefix whose
    # edges fall mid-chunk, so the aggregates scan as well as fold bins.
    t_range = (5_500, clock.now() // 2 + 500)
    tracer = Tracer()
    tracer.install()
    try:
        scanned = loom.scan(1, t_range)
        loom.scan_indexed(1, index_id, t_range, (100.0, 1000.0))
        loom.aggregate(1, index_id, t_range, "max")
        loom.aggregate(1, index_id, t_range, "percentile", 99.0)
    finally:
        tracer.uninstall()
    totals = tracer.export()["totals"]
    assert scanned.count > 0
    if workload == "query-cold":
        assert scanned.records[-1].address < loom.record_log.cold_boundary
    missing = [
        name
        for name in schema._READ_SPANS + EXTRAS[workload]
        if totals.get(name, [0, 0])[1] == 0
    ]
    loom.close()
    assert not missing, f"spans with zero calls on {workload}: {missing}"
    assert set(EXTRAS[workload]) <= set(schema.EXPECTED_SPANS[workload])


def test_traced_migration_and_reopen_touch_their_spans(tmp_path):
    loom, _index_id, _clock = build(str(tmp_path), migrate=False)
    tracer = Tracer()
    tracer.install()
    try:
        assert loom.migrate(force=True).chunks_migrated > 0
        loom.close()
        reopened = Loom.open(config(str(tmp_path)), clock=VirtualClock())
        assert reopened.record_log.total_records == loom.record_log.total_records
        reopened.close()
    finally:
        tracer.uninstall()
    totals = tracer.export()["totals"]
    missing = [name for name in MIGRATE_REOPEN_SPANS if totals.get(name, [0, 0])[1] == 0]
    assert not missing, f"spans with zero calls: {missing}"
