"""Runtime view-lifetime validation (the runtime twin of LOOM201-208).

Under the guard (``LOOMSAN=1``, or the fixture below), every zero-copy
view handed out by the storage tier is tracked in a ledger; storage
truncation, mmap remap, staging-block recycle, and close poison the
overlapping views, so a stale read raises a typed
:class:`~repro.core.errors.StaleViewError` carrying the original borrow
site — instead of silently returning recycled bytes.

These tests force each invalidation path with an outstanding view and
assert the typed failure; the hypothesis test at the bottom pins the
other half of the contract: while *no* invalidation happens, ``copy=True``
and ``copy=False`` scans are byte-identical.
"""

import contextlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import viewguard
from repro.core.block import Block
from repro.core.clock import VirtualClock
from repro.core.config import LoomConfig
from repro.core.errors import StaleViewError
from repro.core.record_log import RecordLog
from repro.core.snapshot import Snapshot
from repro.core.storage import FileStorage, MemoryStorage

SETTINGS = settings(max_examples=40, deadline=None)


@pytest.fixture
def guard():
    """Activate the view guard for one test (idempotent under LOOMSAN)."""
    was_active = viewguard.active
    viewguard.activate()
    yield viewguard
    if not was_active:
        viewguard.deactivate()


def _small_config(**overrides) -> LoomConfig:
    defaults = dict(
        chunk_size=512,
        record_block_size=1024,
        index_block_size=2048,
        timestamp_block_size=1024,
        timestamp_interval=8,
    )
    defaults.update(overrides)
    return LoomConfig(**defaults)


class TestStorageTruncate:
    def test_memory_truncate_poisons_overlapping_view(self, guard):
        storage = MemoryStorage()
        storage.append(b"a" * 64)
        view = storage.read_view(32, 32)
        assert bytes(view) == b"a" * 32
        storage.truncate(40)
        with pytest.raises(StaleViewError) as exc_info:
            bytes(view)
        err = exc_info.value
        assert "truncated" in (err.reason or "")
        assert err.borrow_site is not None
        assert re.search(r"test_view_lifetime\.py:\d+", err.borrow_site)

    def test_memory_truncate_spares_prefix_view(self, guard):
        storage = MemoryStorage()
        storage.append(b"b" * 64)
        prefix = storage.read_view(0, 16)
        storage.truncate(40)
        # Bytes below the new size were never invalidated.
        assert bytes(prefix) == b"b" * 16

    def test_file_truncate_remap_poisons_tail_view(self, tmp_path, guard):
        storage = FileStorage(str(tmp_path / "log.bin"))
        storage.append(b"c" * 4096)
        storage.sync()
        tail = storage.read_view(2048, 1024)
        head = storage.read_view(0, 512)
        assert tail is not None and head is not None
        storage.truncate(1024)
        with pytest.raises(StaleViewError) as exc_info:
            tail[0]
        assert exc_info.value.borrow_site is not None
        # The immutable prefix stays valid: the old map is pinned by the
        # outstanding view, and those bytes were not dropped.
        assert bytes(head) == b"c" * 512
        storage.close()
        with pytest.raises(StaleViewError):
            bytes(head)

    def test_close_poisons_all_views(self, guard):
        storage = MemoryStorage()
        storage.append(b"d" * 32)
        view = storage.read_view(0, 32)
        storage.close()
        with pytest.raises(StaleViewError) as exc_info:
            view[0]
        assert exc_info.value.borrow_site is not None


class TestBlockRecycle:
    def test_recycle_poisons_flush_view(self, guard):
        block = Block(64)
        block.map(0)
        block.write(b"e" * 48)
        view = block.flush_view()
        assert bytes(view) == b"e" * 48
        block.recycle()
        with pytest.raises(StaleViewError) as exc_info:
            view[0]
        assert "recycled" in (exc_info.value.reason or "")

    def test_buffer_handoff_keeps_view_valid(self, guard):
        # recycle(release_buffer=True) is the ownership-transfer path:
        # the block swaps in a fresh buffer, so the flushed bytes are
        # never overwritten and the view stays valid.
        block = Block(64)
        block.map(0)
        block.write(b"f" * 16)
        view = block.flush_view()
        block.recycle(release_buffer=True)
        assert bytes(view) == b"f" * 16

    def test_slice_shares_poison_state(self, guard):
        block = Block(64)
        block.map(0)
        block.write(b"g" * 32)
        view = block.flush_view()
        half = view[8:24]
        block.recycle()
        with pytest.raises(StaleViewError):
            bytes(half)


class TestScanViews:
    def test_log_truncation_invalidates_outstanding_scan_view(
        self, tmp_path, guard
    ):
        """The headline scenario: a copy=False scan view outlives a log
        truncation; touching it is a typed error naming the borrow site,
        not a silent read of remapped bytes."""
        cfg = _small_config(data_dir=str(tmp_path))
        log = RecordLog(config=cfg, clock=VirtualClock())
        log.define_source(1)
        # Enough records to flush full blocks: zero-copy views serve the
        # persisted prefix only.
        log.push_many(1, [b"x" * 32 for _ in range(64)])
        log.sync()
        persisted = log.log._storage.size
        record_size = 28 + 32  # header + payload
        end = (persisted // record_size) * record_size
        records = list(log.iter_records_between(0, end, copy=False))
        assert records
        payload = records[0].payload
        assert bytes(payload) == b"x" * 32
        log.log._storage.truncate(0)
        with pytest.raises(StaleViewError) as exc_info:
            bytes(payload)
        err = exc_info.value
        assert err.borrow_site is not None
        assert "iter_records_between" in err.borrow_site
        # The log was deliberately wrecked out-of-band; closing it may
        # fail its own flush-order invariants.
        with contextlib.suppress(Exception):
            log.close()

    def test_inactive_guard_returns_plain_views(self):
        if viewguard.active:
            pytest.skip("view guard active for the whole suite (LOOMSAN)")
        storage = MemoryStorage()
        storage.append(b"h" * 16)
        view = storage.read_view(0, 16)
        assert type(view) is memoryview


@SETTINGS
@given(
    payloads=st.lists(
        st.binary(min_size=0, max_size=32), min_size=1, max_size=40
    )
)
def test_copy_modes_byte_identical_without_invalidation(payloads):
    """copy=True and copy=False scans agree byte-for-byte while nothing
    invalidates the underlying storage — tracked views are transparent."""
    was_active = viewguard.active
    viewguard.activate()
    try:
        log = RecordLog(config=_small_config(), clock=VirtualClock())
        try:
            log.define_source(1)
            log.push_many(1, payloads)
            log.sync()
            snapshot = Snapshot.capture(log)
            copied = [
                bytes(r.payload)
                for r in log.iter_records_between(
                    0, snapshot.watermark, copy=True
                )
            ]
            borrowed = [
                bytes(r.payload)
                for r in log.iter_records_between(
                    0, snapshot.watermark, copy=False
                )
            ]
            assert copied == borrowed == list(payloads)
        finally:
            log.close()
    finally:
        if not was_active:
            viewguard.deactivate()
