"""Warm restart: kill-and-reopen round trips over persisted logs.

These tests simulate a crash by dropping a Loom instance *without* calling
``close()`` — whatever reached persistent storage (flushed blocks) is the
crash state — then reopen with :meth:`Loom.open` and check that every
persisted record is queryable, new pushes resume the per-source chains,
and the rebuilt index mirrors match a cold rebuild from the raw files.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FileStorage,
    Loom,
    LoomConfig,
    LoomError,
    VirtualClock,
    recover,
)
from repro.core.record import HEADER_SIZE
from repro.daemon.monitor import MonitoringDaemon

pytestmark = pytest.mark.faults


def small_config(data_dir, **overrides):
    defaults = dict(
        data_dir=data_dir,
        chunk_size=512,
        record_block_size=1024,
        index_block_size=1024,
        timestamp_block_size=256,
        timestamp_interval=4,
    )
    defaults.update(overrides)
    return LoomConfig(**defaults)


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "loom")


class TestKillAndReopen:
    def test_persisted_records_survive_a_crash(self, data_dir):
        cfg = small_config(data_dir)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        loom.define_source(7)
        for i in range(200):
            clock.advance(10)
            loom.push(7, b"payload-%03d" % i)
        loom.sync()
        persisted = loom.record_log.log.persisted_tail
        assert persisted > 0  # several blocks flushed
        del loom  # crash: active block contents are lost

        reopened = Loom.open(cfg, clock=VirtualClock())
        survivors = persisted // (HEADER_SIZE + len(b"payload-000"))
        assert reopened.total_records == survivors
        records = reopened.scan(7, (0, 10**12)).records
        assert len(records) == survivors
        # Oldest record is intact and the scan is newest-first.
        assert records[-1].payload == b"payload-000"
        assert records[0].payload == b"payload-%03d" % (survivors - 1)
        reopened.close()

    def test_chains_span_the_restart(self, data_dir):
        cfg = small_config(data_dir)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        loom.define_source(1)
        loom.define_source(2)
        for i in range(120):
            clock.advance(5)
            loom.push(1 + i % 2, b"r%04d" % i)
        loom.sync()
        del loom

        clock2 = VirtualClock()
        reopened = Loom.open(cfg, clock=clock2)
        before_1 = reopened.source_record_count(1)
        before_2 = reopened.source_record_count(2)
        reopened.define_source(1)  # resume the recovered source
        reopened.define_source(2)
        for i in range(50):
            clock2.advance(5)
            reopened.push(1 + i % 2, b"n%04d" % i)
        reopened.sync()
        records = reopened.scan(1, (0, 10**12)).records
        assert len(records) == before_1 + 25
        # The newest pre-crash record is reachable from the newest
        # post-restart record purely by following back-pointers.
        payloads = [bytes(r.payload) for r in records]
        assert payloads[0] == b"n%04d" % 48
        assert any(p.startswith(b"r") for p in payloads)
        assert len(reopened.scan(2, (0, 10**12)).records) == before_2 + 25
        reopened.close()

    def test_clean_close_loses_nothing(self, data_dir):
        cfg = small_config(data_dir)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        loom.define_source(3)
        addresses = []
        for i in range(75):
            clock.advance(7)
            addresses.append(loom.push(3, b"x%02d" % i))
        loom.close()  # flushes the partial active block + fsyncs

        reopened = Loom.open(cfg, clock=VirtualClock())
        assert reopened.total_records == 75
        records = reopened.scan(3, (0, 10**12)).records
        assert [r.address for r in reversed(records)] == addresses
        reopened.close()

    def test_reopen_requires_data_dir(self):
        with pytest.raises(LoomError):
            Loom.open(LoomConfig())

    def test_reopen_missing_directory_raises(self, data_dir):
        with pytest.raises(LoomError):
            Loom.open(small_config(data_dir))

    def test_indexes_must_be_redefined_and_apply_forward(self, data_dir):
        cfg = small_config(data_dir)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        loom.define_source(1)
        loom.define_index(1, lambda p: float(len(p)), [0.0, 4.0, 8.0])
        for i in range(100):
            clock.advance(10)
            loom.push(1, b"v" * (1 + i % 6))
        loom.close()

        clock2 = VirtualClock()
        reopened = Loom.open(cfg, clock=clock2)
        reopened.define_source(1)
        # Old index ids are retired; a fresh definition gets a new id and
        # covers only post-restart records.
        new_id = reopened.define_index(1, lambda p: float(len(p)), [0.0, 4.0, 8.0])
        old_ids = {
            iid
            for s in reopened.record_log.chunk_index._summaries
            for (_sid, iid) in s.bins
        }
        assert new_id not in old_ids
        for i in range(40):
            clock2.advance(10)
            reopened.push(1, b"w" * (1 + i % 6))
        reopened.sync()
        # The reopen clock fast-forwards to the last recovered timestamp,
        # so post-restart records start strictly after it.
        t0 = clock2.now() - 40 * 10 + 1
        result = reopened.aggregate(1, new_id, (t0, clock2.now()), "count")
        assert result.value == 40
        reopened.close()

    def test_footprint_and_mirrors_match_cold_rebuild(self, data_dir):
        cfg = small_config(data_dir)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        loom.define_source(5)
        for i in range(300):
            clock.advance(3)
            loom.push(5, b"abcdef%04d" % i)
        loom.close()

        reopened = Loom.open(cfg, clock=VirtualClock())
        state = recover(
            FileStorage(cfg.record_log_path()),
            chunk_storage=FileStorage(cfg.chunk_index_path()),
            timestamp_storage=FileStorage(cfg.timestamp_index_path()),
        )
        mirror = reopened.record_log.chunk_index
        # Reopen may re-finalize chunks whose summaries were only
        # in-memory; after a clean close there are none, so the mirrors
        # must agree exactly with the persisted logs.
        assert [s.chunk_id for s in state.summaries] == mirror._chunk_ids
        assert reopened.total_records == state.total_records == 300
        assert (
            reopened.record_log.timestamp_index.entry_count
            == len(state.timestamp_entries)
        )
        reopened.close()


class TestDaemonReopen:
    def test_daemon_warm_restart_restores_named_sources(self, data_dir):
        cfg = small_config(data_dir)
        daemon = MonitoringDaemon(cfg)
        daemon.enable_source("cpu", 1)
        daemon.enable_source("net", 2)
        for i in range(64):
            daemon.clock.advance(10)
            daemon.receive("cpu", b"c%03d" % i)
            daemon.receive("net", b"n%03d" % i)
        daemon.close()

        restarted = MonitoringDaemon.reopen(cfg, sources={"cpu": 1, "net": 2})
        assert restarted.health().value == "healthy"
        assert sorted(restarted.recovered_source_ids()) == [1, 2]
        assert restarted.source("cpu").records_received == 64
        restarted.clock.advance(10)
        restarted.receive("cpu", b"after")
        restarted.sync()
        records = restarted.loom.scan(1, (0, 10**15)).records
        assert len(records) == 65
        restarted.close()


class TestFsyncOnClose:
    def test_close_fsyncs_all_logs(self, data_dir, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        cfg = small_config(data_dir)
        loom = Loom(cfg, clock=VirtualClock(1))
        loom.define_source(1)
        loom.push(1, b"one")
        assert not synced  # ingest never pays fsync latency
        loom.close()
        # Three log files + three frame journals.
        assert len(synced) >= 6


class TestTruncationProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n_records=st.integers(min_value=1, max_value=120),
        cut_back=st.integers(min_value=0, max_value=400),
        data=st.data(),
    )
    def test_arbitrary_truncation_is_recoverable(self, n_records, cut_back, data):
        """Truncate the persisted files at arbitrary byte offsets (simulating
        a crash mid-flush at any point), reopen, and check the invariants:
        no record below the new persisted watermark is lost, and the
        rebuilt indexes are consistent with the record log."""
        # tmp_path is function-scoped and incompatible with @given; manage
        # a directory per example by hand.
        root = tempfile.mkdtemp(prefix="loom-hyp-")
        try:
            cfg = small_config(os.path.join(root, "d"))
            clock = VirtualClock(1_000)
            loom = Loom(cfg, clock=clock)
            loom.define_source(9)
            for i in range(n_records):
                clock.advance(10)
                loom.push(9, b"record-%04d" % i)
            loom.close()

            # Cut each log (and journal) independently at a random offset.
            for path in (
                cfg.record_log_path(),
                cfg.chunk_index_path(),
                cfg.timestamp_index_path(),
                cfg.record_log_journal_path(),
                cfg.chunk_index_journal_path(),
                cfg.timestamp_index_journal_path(),
            ):
                size = os.path.getsize(path)
                cut = data.draw(st.integers(min_value=0, max_value=size))
                with open(path, "r+b") as f:
                    f.truncate(cut)

            record_size = HEADER_SIZE + len(b"record-0000")
            surviving_bytes = os.path.getsize(cfg.record_log_path())
            min_survivors = 0  # repair may truncate below the cut only to
            # a frame boundary, never below the last complete record.

            reopened = Loom.open(cfg)
            # Invariant 1: everything below the (post-repair) persisted
            # watermark is intact and queryable, in order.
            persisted = reopened.record_log.log.persisted_tail
            assert persisted % record_size == 0
            assert persisted <= surviving_bytes
            survivors = persisted // record_size
            assert survivors >= min_survivors
            records = reopened.scan(9, (0, 10**15)).records if survivors else []
            assert len(records) == survivors == reopened.total_records
            for i, record in enumerate(reversed(records)):
                assert bytes(record.payload) == b"record-%04d" % i
            # Invariant 2: index mirrors never reference truncated data.
            mirror = reopened.record_log.chunk_index
            for summary in mirror._summaries:
                assert summary.end_addr <= persisted
            ts = reopened.record_log.timestamp_index
            for per in ts._per_source.values():
                assert all(a < persisted for a in per.addresses)
            # Invariant 3: the instance is writable again.
            reopened.define_source(9)
            reopened.push(9, b"post-repair")
            reopened.sync()
            assert len(reopened.scan(9, (0, 10**15)).records) == survivors + 1
            reopened.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
