"""Fixed-size in-memory blocks with seqlock-style versioning.

The hybrid log (paper section 4.1) stages all writes into one of two
fixed-size blocks.  Readers never lock a block: they copy the bytes they
need and then validate that the block was not concurrently recycled
(flushed to storage and reused for a later part of the log).  The paper
calls this "a lock-free versioning mechanism to detect this event"
(section 5.5).

The versioning scheme is a classic sequence lock:

* ``version`` is even while the block is stable and odd while the writer is
  recycling it;
* a reader records the version, copies bytes, and re-reads the version —
  if either read is odd or the two differ, the copy may be torn and the
  reader must fall back to persistent storage (the data that used to be in
  this block has, by construction, already been flushed).

Writers appending *within* the current block do not bump the version:
readers are only ever handed addresses at or below the log's high
watermark, and bytes below the watermark are immutable until recycle.
"""

from __future__ import annotations

import threading
from typing import Optional

from . import yieldpoints
from .errors import SnapshotRetry

#: Default attempt budget for :meth:`Block.read_range`.  Torn copies are
#: resolved by the recycle completing, so a handful of attempts either
#: succeeds or proves the range has left the block for good.
DEFAULT_READ_RANGE_RETRIES = 4


class Block:
    """One fixed-size staging block of a hybrid log.

    Attributes:
        capacity: block size in bytes (fixed at construction).
        base_address: logical log address of the block's first byte, or
            ``None`` while the block is not mapped into the address space.
        filled: number of valid bytes currently in the block.
    """

    __slots__ = (
        "capacity",
        "base_address",
        "filled",
        "recycle_event",
        "_buf",
        "_version",
        "_lock",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("block capacity must be positive")
        self.capacity = capacity
        self.base_address: Optional[int] = None
        self.filled = 0
        #: Optional event the owning log shares across its blocks; recycle()
        #: signals it so a writer waiting for a free block sleeps instead of
        #: spinning.
        self.recycle_event: Optional[threading.Event] = None
        self._buf = bytearray(capacity)
        # Even = stable, odd = mid-recycle. Starts at 0 (stable, unmapped).
        self._version = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Writer-side operations (single writer thread)
    # ------------------------------------------------------------------
    def map(self, base_address: int) -> None:
        """Map the block at ``base_address`` in the log's address space."""
        if self.base_address is not None:
            raise RuntimeError("block already mapped; recycle() it first")
        self.base_address = base_address
        self.filled = 0
        yieldpoints.hit("block.map", block=self, base=base_address)

    @property
    def remaining(self) -> int:
        """Bytes of free space left in the block."""
        return self.capacity - self.filled

    @property
    def is_full(self) -> bool:
        return self.filled == self.capacity

    def write(self, data: "bytes | memoryview") -> int:
        """Append up to ``len(data)`` bytes; return the number written.

        Accepts any bytes-like object (the hybrid log passes memoryview
        slices so batched appends copy each byte exactly once).  The
        caller handles the spill into the next block when the write does
        not fully fit.
        """
        if self.base_address is None:
            raise RuntimeError("block is not mapped")
        n = min(len(data), self.remaining)
        self._buf[self.filled : self.filled + n] = data[:n]
        if yieldpoints.active:
            yieldpoints.hit(
                "block.write.stored", block=self, offset=self.filled, length=n
            )
        self.filled += n
        return n

    def snapshot_bytes(self) -> bytes:
        """Writer-side copy of the filled prefix (used when flushing).

        Writer-thread only: it takes no seqlock validation because the
        single writer never races itself.  Reader threads must use
        :meth:`read_range` (explicit retry contract) or
        :meth:`try_copy` instead.
        """
        return bytes(self._buf[: self.filled])

    def flush_view(self) -> memoryview:
        """Writer-side view of the filled prefix, for flushing.

        Like :meth:`snapshot_bytes` but without the copy: the returned
        memoryview aliases the block's buffer, so it is only valid until
        the block is recycled.  The flush hands it to storage, which
        copies or writes it, and releases it before the recycle.
        """
        # Read-only: storage backends only copy or write flushed bytes.
        return memoryview(self._buf)[: self.filled].toreadonly()

    def recycle(self) -> None:
        """Invalidate the block so it can be remapped for new log space.

        Bumps the version to odd, clears the mapping, then bumps back to
        even.  Readers racing with this observe a version change and fall
        back to storage.
        """
        with self._lock:
            yieldpoints.hit("block.recycle.begin", block=self)
            self._version += 1  # now odd: mid-recycle
            yieldpoints.hit("block.recycle.odd", block=self, version=self._version)
            self.base_address = None
            self.filled = 0
            yieldpoints.hit("block.recycle.cleared", block=self)
            self._version += 1  # even again: stable
            yieldpoints.note(
                "block.recycle.done", block=self, version=self._version
            )
        if self.recycle_event is not None:
            self.recycle_event.set()

    # ------------------------------------------------------------------
    # Reader-side operations (any thread)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    def try_copy(self, address: int, length: int) -> Optional[bytes]:
        """Lock-free copy of ``[address, address+length)`` from this block.

        Returns the bytes, or ``None`` if the block does not (or no longer)
        covers the range — the seqlock validation failed, meaning the block
        was recycled mid-copy and the requested bytes are now in persistent
        storage.
        """
        live = yieldpoints.active
        v1 = self._version
        if live:
            yieldpoints.hit("block.try_copy.version1", block=self, version=v1)
        if v1 & 1:
            return None
        base = self.base_address
        filled = self.filled
        if live:
            yieldpoints.hit(
                "block.try_copy.bounds", block=self, base=base, filled=filled
            )
        if base is None or address < base or address + length > base + filled:
            return None
        off = address - base
        data = bytes(self._buf[off : off + length])
        if live:
            yieldpoints.hit(
                "block.try_copy.copied",
                block=self,
                address=address,
                length=length,
                base=base,
            )
        v2 = self._version
        if v1 != v2:
            if live:
                yieldpoints.note(
                    "block.try_copy.invalid", block=self, v1=v1, v2=v2
                )
            return None
        if live:
            yieldpoints.note(
                "block.try_copy.validated",
                block=self,
                address=address,
                length=length,
                base=base,
                version=v1,
            )
        return data

    def read_range(
        self,
        address: int,
        length: int,
        retries: int = DEFAULT_READ_RANGE_RETRIES,
    ) -> bytes:
        """Seqlock-validated copy with a bounded, explicit retry contract.

        Like :meth:`try_copy`, but instead of silently returning ``None``
        on a lost race it retries up to ``retries`` times and then raises
        :class:`SnapshotRetry`.  The seqlock contract: each attempt reads
        the version (must be even), copies, and re-reads the version
        (must be unchanged); a torn copy is retried only while the block
        still covers ``[address, address + length)`` — once the range has
        been recycled away, the bytes are durable in persistent storage
        by construction and retrying the block cannot succeed, so the
        method raises immediately.

        Raises:
            SnapshotRetry: the copy kept tearing (``attempts`` ==
                ``retries``) or the block no longer covers the range;
                the caller must read persistent storage instead.
        """
        attempts = 0
        for attempts in range(1, max(1, retries) + 1):
            data = self.try_copy(address, length)
            if data is not None:
                return data
            base = self.base_address
            if base is None or address < base or address + length > base + self.filled:
                # The range is gone from this block (recycled or never
                # here): no number of retries will bring it back.
                break
        raise SnapshotRetry(
            f"block copy of [{address}, {address + length}) failed after "
            f"{attempts} attempt(s); range now lives in persistent storage",
            address=address,
            attempts=attempts,
        )
