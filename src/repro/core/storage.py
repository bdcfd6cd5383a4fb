"""Persistent storage backends for hybrid logs.

A hybrid log (paper section 4.1) stages writes in two fixed-size in-memory
blocks and evicts full blocks to *persistent storage*.  This module defines
the storage interface and two implementations:

* :class:`FileStorage` — an append-only file, the production-shaped backend.
  Flushes are sequential writes of whole blocks, which is exactly the large,
  amortized I/O pattern the paper relies on for disk efficiency.  Reads
  are ``pread`` calls that return owned bytes.
* :class:`MemoryStorage` — an in-process backend used by tests and
  benchmarks that should not touch the filesystem.  It preserves the same
  address arithmetic and failure surface.  Internally it keeps a list of
  append *extents* rather than one growing ``bytearray``, so a flushed
  block is stored without growing (and copying) one big buffer and a
  recycled prefix frees whole extents.

Both backends expose a flat, append-only byte address space: the ``n``-th
byte ever appended lives at address ``n``.  The hybrid log guarantees blocks
are flushed in order, so storage holds a prefix ``[0, size)`` of the log's
logical address space at all times.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from typing import List, Optional

from .errors import AddressError, ClosedError, StorageError


class Storage:
    """Interface: an append-only, randomly readable byte store."""

    #: Exclusive upper bound of the *recycled prefix*: bytes below it were
    #: migrated to the cold tier and may be physically reclaimed.  Reads
    #: below it raise :class:`AddressError` — the archive, not this
    #: storage, is authoritative there.
    _recycled_upto: int = 0

    @property
    def recycled_upto(self) -> int:
        return self._recycled_upto

    def recycle_prefix(self, upto: int) -> None:
        """Mark ``[0, upto)`` recycled.

        Idempotent and monotonic: a smaller ``upto`` than the current
        boundary is a no-op.  The base implementation is metadata-only;
        backends override to also reclaim the physical bytes.  Every read
        returns owned bytes, so nothing a reader holds aliases what is
        reclaimed.
        """
        if upto > self.size:
            raise AddressError(
                f"recycle to {upto} beyond persisted size {self.size}"
            )
        if upto > self._recycled_upto:
            self._recycled_upto = upto

    def append(self, data: bytes) -> int:
        """Append ``data``; return the address of its first byte."""
        raise NotImplementedError

    def append_extent(self, view: memoryview) -> int:
        """Append a flushed block's bytes; return the address of the first.

        ``view`` aliases the staging block, which is recycled and reused
        after the flush, so every backend stores a copy.
        """
        return self.append(bytes(view))

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``.

        Raises :class:`AddressError` if the range is not fully persisted.
        """
        raise NotImplementedError

    @property
    def size(self) -> int:
        """Number of bytes persisted so far (the exclusive upper address)."""
        raise NotImplementedError

    def sync(self) -> None:
        """Force durability of all appended bytes (no-op where meaningless)."""

    def truncate(self, size: int) -> None:
        """Discard all bytes at addresses >= ``size``.

        Used by crash repair (drop a torn or corrupt tail so the log is a
        clean prefix again) and by the flush retry path (undo a torn block
        write before re-appending it).  ``size`` must not exceed the
        current :attr:`size`.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; subsequent operations raise :class:`ClosedError`."""

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0:
            raise AddressError(f"negative address or length: {address}, {length}")
        if address < self._recycled_upto:
            raise AddressError(
                f"read at {address} below recycled prefix "
                f"{self._recycled_upto} (serve it from the archive)"
            )
        if address + length > self.size:
            raise AddressError(
                f"read [{address}, {address + length}) beyond persisted size {self.size}"
            )


class MemoryStorage(Storage):
    """In-memory append-only store kept as a list of extents.

    Thread-safe for one appender plus concurrent readers: appends extend
    the extent list under a lock, and reads only touch the already-persisted
    prefix, which is immutable.  Keeping appends as separate extents (one
    per flushed block) instead of concatenating into one ``bytearray``
    stores a flush without a second copy, and lets :meth:`recycle_prefix`
    free whole extents.
    """

    def __init__(self) -> None:
        # _extents[i] spans addresses [_starts[i], _starts[i] + len(extent)).
        self._extents: List[bytes] = []
        self._starts: List[int] = []
        self._size = 0
        self._lock = threading.Lock()
        self._closed = False

    def append(self, data: bytes) -> int:
        if self._closed:
            raise ClosedError("storage is closed")
        with self._lock:
            address = self._size
            if len(data):
                self._extents.append(bytes(data))
                self._starts.append(address)
                self._size += len(data)
        return address

    def read(self, address: int, length: int) -> bytes:
        if self._closed:
            raise ClosedError("storage is closed")
        self._check_range(address, length)
        if length == 0:
            return b""
        i = bisect_right(self._starts, address) - 1
        parts: List[bytes] = []
        remaining = length
        offset = address - self._starts[i]
        while remaining > 0:
            extent = self._extents[i]
            take = min(remaining, len(extent) - offset)
            parts.append(extent[offset : offset + take])
            remaining -= take
            offset = 0
            i += 1
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _mutate_byte(self, address: int, mask: int) -> None:
        """Flip bits of one persisted byte (fault-injection hook).

        Extents are immutable ``bytes``, so the containing extent is
        replaced with a mutated copy.
        """
        with self._lock:
            if address < 0 or address >= self._size:
                raise AddressError(f"corrupt at {address} outside [0, {self._size})")
            i = bisect_right(self._starts, address) - 1
            mutated = bytearray(self._extents[i])
            mutated[address - self._starts[i]] ^= mask
            self._extents[i] = bytes(mutated)

    def recycle_prefix(self, upto: int) -> None:
        """Recycle ``[0, upto)`` and free the memory of covered extents.

        The boundary is published first, so a racing reader either fails
        the range check or reads still-intact bytes.  Extents fully below
        ``upto`` are then replaced *in place* with empty placeholders
        (single-item list stores are GIL-atomic), so the bisect arithmetic
        of lock-free concurrent readers over the surviving suffix never
        observes a torn list pair.
        """
        super().recycle_prefix(upto)
        with self._lock:
            for i, start in enumerate(self._starts):
                extent = self._extents[i]
                if start + len(extent) <= upto and len(extent):
                    self._extents[i] = b""
                elif start >= upto:
                    break

    @property
    def size(self) -> int:
        return self._size

    def truncate(self, size: int) -> None:
        if self._closed:
            raise ClosedError("storage is closed")
        with self._lock:
            if size < 0 or size > self._size:
                raise AddressError(f"truncate to {size} outside [0, {self._size}]")
            while self._starts and self._starts[-1] >= size:
                self._starts.pop()
                self._extents.pop()
            if self._starts:
                keep = size - self._starts[-1]
                if keep < len(self._extents[-1]):
                    self._extents[-1] = self._extents[-1][:keep]
            self._size = size

    def close(self) -> None:
        self._closed = True


class FileStorage(Storage):
    """Append-only file storage.

    Uses one file descriptor for appends and ``pread``-style reads via a
    separate handle so concurrent readers never disturb the append offset.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        try:
            self._write_f = open(path, "ab")
            self._read_f = open(path, "rb")
        except OSError as exc:  # pragma: no cover - environment dependent
            raise StorageError(f"cannot open {path}: {exc}") from exc
        self._size = os.fstat(self._write_f.fileno()).st_size
        self._lock = threading.Lock()
        self._closed = False

    @property
    def path(self) -> str:
        return self._path

    def append(self, data: bytes) -> int:
        if self._closed:
            raise ClosedError("storage is closed")
        with self._lock:
            address = self._size
            self._write_f.write(data)
            self._write_f.flush()
            self._size += len(data)
        return address

    def read(self, address: int, length: int) -> bytes:
        if self._closed:
            raise ClosedError("storage is closed")
        self._check_range(address, length)
        data = os.pread(self._read_f.fileno(), length, address)
        if len(data) != length:  # pragma: no cover - fs corruption only
            raise StorageError(
                f"short read at {address}: wanted {length}, got {len(data)}"
            )
        return data

    #: The bulk region read (:meth:`HybridLog.read_view
    #: <repro.core.hybridlog.HybridLog.read_view>`): the same ``pread``
    #: under its own name, so a profiler tells region fetches from point
    #: reads.
    read_view = read

    @property
    def size(self) -> int:
        return self._size

    def sync(self) -> None:
        if self._closed:
            raise ClosedError("storage is closed")
        os.fsync(self._write_f.fileno())

    def truncate(self, size: int) -> None:
        if self._closed:
            raise ClosedError("storage is closed")
        with self._lock:
            if size < 0 or size > self._size:
                raise AddressError(f"truncate to {size} outside [0, {self._size}]")
            self._write_f.flush()
            # The append handle is O_APPEND, so later writes land at the
            # new end of file regardless of any cached offset.
            os.ftruncate(self._write_f.fileno(), size)
            self._size = size

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._write_f.close()
            self._read_f.close()


def open_storage(path: Optional[str]) -> Storage:
    """Open :class:`FileStorage` at ``path``, or :class:`MemoryStorage` if None."""
    if path is None:
        return MemoryStorage()
    return FileStorage(path)
