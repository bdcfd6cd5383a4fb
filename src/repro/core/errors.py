"""Exception hierarchy for the Loom reproduction.

All errors raised by :mod:`repro.core` derive from :class:`LoomError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``ValueError`` subclasses) from
runtime conditions (e.g. a snapshot invalidated by a concurrent flush).
"""

from __future__ import annotations


class LoomError(Exception):
    """Base class for all errors raised by the Loom library."""


class ClosedError(LoomError):
    """An operation was attempted on a closed log, source, or index."""


class UnknownSourceError(LoomError, KeyError):
    """A ``source_id`` does not name a defined source."""

    def __init__(self, source_id: int) -> None:
        super().__init__(f"unknown source_id: {source_id}")
        self.source_id = source_id


class UnknownIndexError(LoomError, KeyError):
    """An ``index_id`` does not name a defined index."""

    def __init__(self, index_id: int) -> None:
        super().__init__(f"unknown index_id: {index_id}")
        self.index_id = index_id


class AddressError(LoomError, ValueError):
    """A log address is out of range or otherwise malformed."""


class SnapshotConflictError(LoomError):
    """A lock-free snapshot copy raced with a block flush and must retry.

    This is an internal signal: the read path catches it and falls back to
    reading the flushed data from persistent storage (paper section 5.5).
    It escapes to callers only if retries are exhausted, which indicates a
    bug or a pathologically small block size.
    """


class SnapshotRetry(SnapshotConflictError):
    """A bounded seqlock read kept tearing and must be retried elsewhere.

    Raised by :meth:`repro.core.block.Block.read_range` when every
    attempt raced a recycle (odd version, changed version, or the block
    no longer covers the range), and by
    :meth:`repro.core.hybridlog.HybridLog.read` when its overall retry
    budget is exhausted.  Unlike the ``None`` that
    :meth:`~repro.core.block.Block.try_copy` returns, this signal is
    explicit: the caller must decide to fall back to persistent storage
    (where recycled bytes live, by construction — paper section 5.5)
    or surface the failure.

    Attributes:
        address: first logical log address of the failed read, if known.
        attempts: how many copy attempts were made before giving up.
    """

    def __init__(
        self,
        message: str,
        address: "int | None" = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.address = address
        self.attempts = attempts


class StaleViewError(LoomError):
    """A zero-copy view was touched after its backing bytes were invalidated.

    Raised only under the view-lifetime guard (``LOOMSAN=1``, see
    :mod:`repro.core.viewguard`): storage truncation, storage close,
    fault-injection mutation, and staging-block recycle *poison* every
    outstanding tracked view over the affected byte range, and any later
    touch of a poisoned view raises this error instead of silently reading
    stale bytes.  Without the guard the same bug is undetectable memory
    aliasing — exactly the reference-stability hazard loomlint's LOOM201-208
    rules (``tools/loomlint``) prove absent from the read path.

    Attributes:
        borrow_site: ``path:line in function`` where the view was borrowed
            (captured at view creation), so the report points at the code
            holding the view too long, not at the innocent invalidator.
        reason: which invalidation event poisoned the view (e.g.
            ``"storage truncated to 4096"`` or ``"block recycled"``).
    """

    def __init__(
        self,
        message: str,
        borrow_site: "str | None" = None,
        reason: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.borrow_site = borrow_site
        self.reason = reason


class HistogramSpecError(LoomError, ValueError):
    """A histogram index specification is invalid (e.g. unsorted edges)."""


class StorageError(LoomError, IOError):
    """The persistent storage backend failed."""


class TransportError(LoomError, IOError):
    """A network transport failed (connect, send, receive, or framing).

    Raised by the wire client and transports in :mod:`repro.daemon` for
    connection-level failures: refused connections, resets, timeouts on
    the socket, and torn frames.  Transport failures are *retryable by
    construction* — ingest batches carry client-assigned sequence numbers
    and the server deduplicates resends, so a caller that retries after a
    ``TransportError`` never duplicates records.
    """


class DeadlineExceededError(LoomError, TimeoutError):
    """An operation's deadline expired before it completed.

    Deadlines propagate from the caller through the wire protocol: the
    client sends its remaining budget with every request and the server
    bounds queue waits and query execution by it.  When the budget runs
    out client-side (across retries and backoff sleeps), this error
    carries how long the caller waited.
    """

    def __init__(self, message: str, waited_s: "float | None" = None) -> None:
        super().__init__(message)
        self.waited_s = waited_s


class BackpressureError(LoomError):
    """The server shed an ingest batch and asked the client to retry later.

    The wire response is ``RETRY_AFTER``; the client normally absorbs it
    into its backoff/retry loop, so this escapes to callers only when the
    deadline expires while the server is still shedding (or when a caller
    opts out of retries).  ``retry_after_s`` is the server's hint.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CircuitOpenError(LoomError):
    """The client's circuit breaker is open: recent calls failed
    repeatedly, so new calls fail fast instead of burning their deadline
    against a shard that is down.  The breaker half-opens after a
    cooldown and closes again on the first success.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CorruptionError(LoomError, ValueError):
    """Persisted bytes failed an integrity check (checksum or framing).

    Raised by recovery scans and the optional verify-on-read mode when a
    record's CRC does not match its bytes, a flush-frame checksum fails,
    or a cross-log reference points past the valid data.  ``address`` is
    the logical log address of the offending frame, when known, so the
    operator can locate (and ``recover --repair`` can truncate at) the
    first bad byte.
    """

    def __init__(self, message: str, address: "int | None" = None) -> None:
        super().__init__(message)
        self.address = address
