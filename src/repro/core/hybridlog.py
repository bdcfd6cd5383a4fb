"""The hybrid log: an append-only log spanning memory and storage.

This is the storage primitive at the heart of Loom (paper section 4.1).
Every log in Loom — the record log, the chunk index, and the timestamp
index — is a hybrid log:

* Writes go to one of **two fixed-size in-memory blocks**.  In the common
  case an append is a bounds check and a ``memcpy``, which is how Loom
  keeps per-record ingest cost at "a few hundred cycles".
* When the active block fills, its contents are **evicted to persistent
  storage** (optionally in a background thread) and writing switches to the
  second block; when that fills, the roles swap back.  Eviction happens in
  strict address order, so persistent storage always holds a prefix of the
  logical address space.
* Each appended byte has a permanent **logical address** equal to the total
  number of bytes appended before it, making record lookup by address
  ``O(1)`` forever, with no compaction, sorting, or rewriting.

Concurrency model (paper sections 4.4, 5.5): exactly one writer thread; any
number of reader threads.  Readers never take locks on the write path —
they copy from the in-memory blocks and validate a per-block version
(seqlock, see :mod:`repro.core.block`).  If a copy races with a block being
recycled, the data has by construction already been flushed, so the reader
falls back to persistent storage.  A *high watermark* published by the
writer bounds what readers may observe, which is how Loom linearizes
queries with ingest (section 4.5).
"""

from __future__ import annotations

import enum
import queue
import struct
import threading
import time
from binascii import crc32
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from . import yieldpoints
from .block import Block
from .errors import AddressError, ClosedError, SnapshotRetry, StorageError
from .metrics import LogScope
from .storage import MemoryStorage, Storage

#: Sentinel address meaning "no previous record" in back-pointer chains.
NULL_ADDRESS = 0xFFFF_FFFF_FFFF_FFFF

_READ_RETRIES = 16

#: One frame-journal entry per flushed extent: ``(address, length, crc32)``.
#: The journal is a sidecar log (e.g. ``records.log.crc``) so the data
#: file's flat logical address space is untouched; recovery verifies each
#: journaled extent's checksum to detect bit-rot in bulk.
FRAME_ENTRY = struct.Struct("<QII")


def journal_entries(journal: Storage) -> Iterator[Tuple[int, int, int]]:
    """Every whole ``(address, length, crc32)`` entry of a frame journal."""
    whole = journal.size - journal.size % FRAME_ENTRY.size
    return FRAME_ENTRY.iter_unpack(journal.read(0, whole))


def trim_journal(journal: Optional[Storage], data_end: int) -> None:
    """Drop the frame-journal entries describing extents past
    ``data_end``, and any torn partial entry at the journal's tail."""
    if journal is None:
        return
    keep = 0
    for address, length, _ in journal_entries(journal):
        if address + length > data_end:
            break
        keep += FRAME_ENTRY.size
    if keep < journal.size:
        journal.truncate(keep)


class Health(enum.Enum):
    """Flush-path health of a hybrid log (and, aggregated, of a Loom).

    ``HEALTHY``  — flushes are succeeding.
    ``DEGRADED`` — the last flush attempt failed with a transient
                   :class:`StorageError`; the retry/backoff path is active.
    ``FAILED``   — retries were exhausted.  Ingest raises on every append,
                   but reads over already-published data keep working
                   (graceful read-only degradation).
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"

    @property
    def severity(self) -> int:
        return (Health.HEALTHY, Health.DEGRADED, Health.FAILED).index(self)


@dataclass
class LogStats:
    """Counters maintained by a hybrid log (cheap, writer-thread only)."""

    appends: int = 0
    bytes_appended: int = 0
    block_flushes: int = 0
    bytes_flushed: int = 0
    flush_retries: int = 0
    reader_storage_fallbacks: int = 0

    def note_fallback(self) -> None:
        # Called from reader threads, which must never block (paper
        # sections 4.4-4.5), so no lock here.  The unsynchronized
        # read-modify-write can drop an increment when two readers race,
        # which is fine: the counter is advisory telemetry, and a rare
        # undercount is acceptable where a blocked reader is not.
        self.reader_storage_fallbacks += 1


class HybridLog:
    """Append-only log over two staging blocks plus a storage backend.

    Args:
        storage: persistent backend; defaults to :class:`MemoryStorage`.
        block_size: capacity of each staging block in bytes.  The paper uses
            64 MiB; the default here is 1 MiB so tests exercise many flush
            and recycle events quickly.  Appends larger than one block are
            split across blocks transparently.
        threaded_flush: if True, full blocks are flushed by a background
            thread (the paper's behaviour); if False, flushes happen inline,
            which is deterministic and is the default for tests.
        frame_journal: optional sidecar storage receiving one
            :data:`FRAME_ENTRY` trailer per flushed extent, checksumming the
            flushed bytes.  Recovery uses it to detect bit-rot without
            decoding the data log.
        flush_retries: how many times a failed flush is retried (with
            exponential backoff) before the log enters the FAILED state.
        flush_backoff: base backoff in seconds; attempt ``i`` sleeps
            ``flush_backoff * 2**i``.
        scope: optional loomscope instrument bundle.  Flush instruments
            are written only by the thread running the flush; the
            reader-side counters are advisory (see
            :class:`~repro.core.metrics.LogScope`).
    """

    def __init__(
        self,
        storage: Optional[Storage] = None,
        block_size: int = 1 << 20,
        threaded_flush: bool = False,
        frame_journal: Optional[Storage] = None,
        flush_retries: int = 3,
        flush_backoff: float = 0.001,
        scope: Optional[LogScope] = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if flush_retries < 0:
            raise ValueError("flush_retries must be >= 0")
        self._storage = storage if storage is not None else MemoryStorage()
        self.block_size = block_size
        self._blocks = (Block(block_size), Block(block_size))
        self._active = 0
        self._blocks[0].map(self._storage.size)
        self._tail = self._storage.size
        self._watermark = self._tail
        self._closed = False
        self.stats = LogStats()

        self._journal = frame_journal
        self._flush_retries = flush_retries
        self._flush_backoff = flush_backoff
        self._health = Health.HEALTHY
        self._scope = scope

        self._threaded = threaded_flush
        self._flush_queue: "queue.Queue[Optional[Block]]" = queue.Queue(maxsize=2)
        self._flush_error: Optional[BaseException] = None
        self._recycled = threading.Event()
        for block in self._blocks:
            block.recycle_event = self._recycled
        self._flusher: Optional[threading.Thread] = None
        if threaded_flush:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="loom-flusher", daemon=True
            )
            self._flusher.start()

    # ------------------------------------------------------------------
    # Writer API (single thread)
    # ------------------------------------------------------------------
    def append(self, data: bytes) -> int:
        """Append ``data``; return the logical address of its first byte.

        Appends may span block boundaries; the spilled suffix lands in the
        next block(s) at contiguous logical addresses.
        """
        return self.append_many(data, count=1)

    def append_many(self, data: "bytes | bytearray | memoryview", count: int = 1) -> int:
        """Append one contiguous buffer holding ``count`` logical records.

        This is the batched-ingest fast path: the caller (the record log's
        ``push_many``) frames a whole batch into ``data`` and lands it with
        one call instead of ``count`` bounds-checked appends.  Stats count
        ``count`` appends so throughput accounting matches the per-record
        path.  The buffer may span block boundaries; spilled suffixes land
        in the next block(s) at contiguous logical addresses, exactly as
        with :meth:`append`.
        """
        if self._closed:
            raise ClosedError("log is closed")
        self._raise_if_failed()
        address = self._tail
        view = memoryview(data)
        while len(view):
            block = self._blocks[self._active]
            written = block.write(view[: block.remaining])
            view = view[written:]
            self._tail += written
            if block.is_full:
                self._rotate(block)
        self.stats.appends += count
        self.stats.bytes_appended += len(data)
        return address

    def _rotate(self, full_block: Block) -> None:
        """Hand ``full_block`` to the flusher and map the other block."""
        if self._threaded:
            self._flush_queue.put(full_block)  # blocks if both flushes pending
        else:
            self._flush_with_retry(full_block)
        yieldpoints.hit("hybridlog.rotate.flushed", log=self)
        nxt = self._blocks[1 - self._active]
        self._wait_unmapped(nxt)
        nxt.map(self._tail)
        self._active = 1 - self._active

    def _wait_unmapped(self, block: Block) -> None:
        """Wait for an in-flight flush of ``block`` to complete (threaded mode).

        Sleeps on the shared recycle event (signaled by
        :meth:`Block.recycle`) instead of spinning, with a timeout so a
        flusher that parks an error is still noticed promptly.
        """
        while block.base_address is not None:
            self._raise_if_failed()
            self._recycled.clear()
            if block.base_address is None:
                break
            self._recycled.wait(0.05)

    def _raise_if_failed(self) -> None:
        """Raise a *fresh* wrapped error if the flush path has failed.

        The original exception (with its original traceback) is chained as
        ``__cause__``; re-raising the same exception object on every append
        would grow its traceback forever and misattribute the failure site.
        """
        parked = self._flush_error
        if parked is not None:
            raise StorageError(
                f"hybrid log is {self._health.value}: flush failed permanently "
                f"({parked}); ingest is disabled, reads of published data "
                f"still work"
            ) from parked

    def _flush_block(self, block: Block) -> None:
        """One flush attempt.  Idempotent: a retry after a torn write (or a
        failed journal append) first truncates storage back to the block's
        base address so the extent is never duplicated or misaligned."""
        base = block.base_address
        assert base is not None, "flushing an unmapped block"
        if self._storage.size > base:
            # A previous attempt tore: part of this block (or all of it,
            # if only the journal append failed) is already on storage.
            self._storage.truncate(base)
        view = block.flush_view()
        nbytes = len(view)
        got = self._storage.append_extent(view)
        assert got == base, "blocks must flush in address order"
        if self._journal is not None:
            jsize = self._journal.size
            if jsize % FRAME_ENTRY.size:
                self._journal.truncate(jsize - jsize % FRAME_ENTRY.size)
            self._journal.append(FRAME_ENTRY.pack(base, nbytes, crc32(view)))
        view.release()
        self.stats.block_flushes += 1
        self.stats.bytes_flushed += nbytes
        scope = self._scope
        if scope is not None:
            scope.flushes.inc()
            scope.flushed_bytes.inc(nbytes)
        # Recycle only *after* the bytes are readable from storage, so
        # readers that lose the seqlock race always find the data there.
        block.recycle()

    def _flush_with_retry(self, block: Block) -> None:
        """Flush ``block``, retrying transient :class:`StorageError`s with
        bounded exponential backoff.

        While retrying the log is DEGRADED; a success returns it to
        HEALTHY.  When retries are exhausted the log transitions to FAILED,
        the original error is parked (appends surface it wrapped, with a
        fresh traceback), and the error is raised.
        """
        scope = self._scope
        last_exc: Optional[StorageError] = None
        for attempt in range(self._flush_retries + 1):
            try:
                started = scope.clock.now() if scope is not None else 0
                self._flush_block(block)
                if scope is not None:
                    scope.flush_latency.observe(float(scope.clock.now() - started))
                self._health = Health.HEALTHY
                return
            except StorageError as exc:
                last_exc = exc
                self._health = Health.DEGRADED
                self.stats.flush_retries += 1
                if scope is not None:
                    scope.flush_retries.inc()
                if attempt < self._flush_retries:
                    time.sleep(self._flush_backoff * (2 ** attempt))
        self._health = Health.FAILED
        self._flush_error = last_exc
        if scope is not None:
            scope.flush_failures.inc()
        assert last_exc is not None  # the loop body ran at least once
        raise last_exc

    def _flush_loop(self) -> None:
        while True:
            block = self._flush_queue.get()
            if block is None:
                return
            try:
                self._flush_with_retry(block)
            except BaseException as exc:
                if self._flush_error is None:
                    self._flush_error = exc
                    self._health = Health.FAILED
                return

    def publish(self, address: Optional[int] = None) -> int:
        """Advance the high watermark, making data queryable.

        Loom's write path makes the record log, chunk index, and timestamp
        index queryable *in that order* with an atomic operation (paper
        section 5.4).  Here the single interpreter-atomic store of
        ``_watermark`` plays that role.  Returns the new watermark.
        """
        target = self._tail if address is None else address
        if target < self._watermark or target > self._tail:
            raise AddressError(
                f"watermark {target} outside [{self._watermark}, {self._tail}]"
            )
        yieldpoints.hit("hybridlog.publish.before_store", log=self, watermark=target)
        self._watermark = target
        yieldpoints.note("hybridlog.publish.stored", log=self, watermark=target)
        return target

    def close(self) -> None:
        """Flush everything (including the partial active block), fsync,
        and close.

        After ``close()`` the log is immutable; reads keep working against
        persistent storage.  ``close()`` calls :meth:`Storage.sync` so a
        returned close implies the log is durable on backends with a real
        fsync (:class:`~repro.core.storage.FileStorage`).
        """
        if self._closed:
            return
        self._closed = True
        if self._threaded and self._flusher is not None:
            self._flush_queue.put(None)
            self._flusher.join()
            self._raise_if_failed()
        active = self._blocks[self._active]
        if active.base_address is not None and active.filled:
            self._flush_with_retry(active)
        else:
            active.recycle()
        self._storage.sync()
        if self._journal is not None:
            self._journal.sync()
        self._watermark = self._tail

    # ------------------------------------------------------------------
    # Reader API (any thread)
    # ------------------------------------------------------------------
    @property
    def tail_address(self) -> int:
        """Exclusive upper bound of all appended bytes."""
        return self._tail

    @property
    def watermark(self) -> int:
        """Exclusive upper bound of *queryable* bytes."""
        return self._watermark

    @property
    def persisted_tail(self) -> int:
        """Exclusive upper bound of bytes already in persistent storage."""
        return self._storage.size

    @property
    def health(self) -> Health:
        """Current flush-path health (HEALTHY / DEGRADED / FAILED)."""
        return self._health

    @property
    def frame_journal(self) -> Optional[Storage]:
        """The sidecar frame-checksum journal, if one is attached."""
        return self._journal

    @property
    def storage(self) -> Storage:
        return self._storage

    @property
    def in_memory_bytes(self) -> int:
        """Bytes currently staged in memory (not yet persisted)."""
        return self._tail - self._storage.size

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes at ``address`` from storage and/or blocks.

        The range must lie below the tail.  This is the lock-free read path:
        persisted prefixes come straight from storage, in-memory suffixes
        are seqlock-copied from the staging blocks, and a lost race falls
        back to storage (which by then holds the bytes).
        """
        if length == 0:
            return b""
        if address < 0 or address + length > self._tail:
            raise AddressError(
                f"read [{address}, {address + length}) beyond tail {self._tail}"
            )
        if yieldpoints.active:
            yieldpoints.note(
                "hybridlog.read.begin", log=self, address=address, length=length
            )
        pieces: List[bytes] = []
        pos = address
        end = address + length
        retries = 0
        while pos < end:
            persisted = self._storage.size
            if pos < persisted:
                n = min(end, persisted) - pos
                pieces.append(self._storage.read(pos, n))
                pos += n
                continue
            try:
                piece = self._copy_from_blocks(pos, end)
            except SnapshotRetry:
                # Explicit torn-copy signal: the covering block recycled
                # mid-copy, so the bytes are now (or will momentarily be)
                # in persistent storage.  Fall back by re-entering the
                # loop, which re-reads the storage size.
                piece = None
                if self._scope is not None:
                    # Advisory, reader-thread counter: same dropped-
                    # increment tolerance as note_fallback below.
                    self._scope.snapshot_retries.inc()
            if piece is None:
                yieldpoints.hit("hybridlog.read.fallback", log=self, address=pos)
                self.stats.note_fallback()
                if self._scope is not None:
                    self._scope.reader_fallbacks.inc()
                retries += 1
                if retries > _READ_RETRIES:  # pragma: no cover - defensive
                    raise SnapshotRetry(
                        f"unable to read address {pos} after {retries} "
                        f"torn-copy retries",
                        address=pos,
                        attempts=retries,
                    )
                continue
            pieces.append(piece)
            pos += len(piece)
        # One storage read or one block copy covering the range is
        # returned as is, without a second copy.
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def read_view(self, address: int, length: int) -> bytes:
        """Read ``[address, address + length)`` as one region, for a bulk
        decode.

        Owned bytes, like :meth:`read`, which serves a region that is not
        fully persisted yet.  A persisted region is one storage read;
        :class:`~repro.core.storage.FileStorage` names that read
        ``read_view`` (the same ``pread`` as its point reads) so a
        profiler tells region fetches from point reads.
        """
        storage = self._storage
        if address < 0 or address + length > storage.size:
            return self.read(address, length)
        region_read: Callable[[int, int], bytes] = getattr(
            storage, "read_view", storage.read
        )
        return region_read(address, length)

    def read_upto(self, address: int, max_length: int) -> bytes:
        """Read up to ``max_length`` bytes at ``address``, clamped to tail.

        Speculative reads let the record decoder fetch a header plus a
        typical payload in one call instead of two (telemetry records are
        small, so one read almost always suffices).
        """
        length = min(max_length, self._tail - address)
        if length <= 0:
            if address > self._tail:
                raise AddressError(f"read at {address} beyond tail {self._tail}")
            return b""
        return self.read(address, length)

    def _copy_from_blocks(self, pos: int, end: int) -> Optional[bytes]:
        """Copy as much of ``[pos, end)`` as one staging block covers.

        Returns ``None`` when no mapped block covers ``pos`` (the bytes
        are in storage); raises :class:`SnapshotRetry` when a covering
        block's seqlock copy tore, so the caller falls back explicitly.
        """
        for block in self._blocks:
            base = block.base_address
            if base is None:
                continue
            filled_end = base + block.filled
            if base <= pos < filled_end:
                n = min(end, filled_end) - pos
                return block.read_range(pos, n, retries=1)
        return None
