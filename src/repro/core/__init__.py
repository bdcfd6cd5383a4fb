"""Loom core: hybrid logs, layered sparse indexes, and query operators.

This package is the reproduction of the paper's primary contribution.  The
main entry point is :class:`~repro.core.loom.Loom`; the submodules mirror
the architecture of paper Figure 5.
"""

from .archive import ArchiveLog, ChunkMigrator, MigrationReport, RetentionReport
from .clock import Clock, MonotonicClock, VirtualClock, micros, millis, seconds
from .config import LoomConfig, PAPER_CONFIG, RetentionPolicy, TierConfig
from .errors import (
    AddressError,
    ClosedError,
    CorruptionError,
    HistogramSpecError,
    LoomError,
    SnapshotConflictError,
    SnapshotRetry,
    StorageError,
    UnknownIndexError,
    UnknownSourceError,
)
from .faults import FaultInjectingStorage, corrupt_byte
from .histogram import (
    HistogramSpec,
    IndexDefinition,
    exponential_edges,
    uniform_edges,
)
from .hybridlog import NULL_ADDRESS, Health, HybridLog, LogStats
from .loom import Introspection, Loom, SourceIntrospection
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    LATENCY_EDGES_NS,
    MetricValue,
    MetricsRegistry,
    RegistrySnapshot,
)
from .operators import (
    QueryResult,
    QueryStats,
    QueryTrace,
    TraceEvent,
    indexed_aggregate,
    indexed_scan,
    raw_scan,
)
from .record import HEADER_SIZE, Record
from .recovery import (
    RecoveredSource,
    RecoveredState,
    recover,
    scan_persisted_records,
    scan_persisted_summaries,
    scan_persisted_timestamps,
    verify_frames,
)
from .record_log import RecordLog, SourceState
from .snapshot import Snapshot
from .storage import FileStorage, MemoryStorage, Storage
from .summary import BinStats, ChunkSummary, SourceChunkInfo
from .timestamp_index import TimestampIndex

__all__ = [
    "AddressError",
    "ArchiveLog",
    "ChunkMigrator",
    "BinStats",
    "ChunkSummary",
    "Clock",
    "ClosedError",
    "CorruptionError",
    "Counter",
    "FaultInjectingStorage",
    "FileStorage",
    "Gauge",
    "HEADER_SIZE",
    "Health",
    "Histogram",
    "HistogramSnapshot",
    "HistogramSpec",
    "HistogramSpecError",
    "HybridLog",
    "IndexDefinition",
    "Introspection",
    "LATENCY_EDGES_NS",
    "LogStats",
    "Loom",
    "LoomConfig",
    "LoomError",
    "MemoryStorage",
    "MetricValue",
    "MetricsRegistry",
    "MigrationReport",
    "MonotonicClock",
    "NULL_ADDRESS",
    "PAPER_CONFIG",
    "QueryResult",
    "QueryStats",
    "QueryTrace",
    "Record",
    "RegistrySnapshot",
    "RecoveredSource",
    "RecoveredState",
    "RecordLog",
    "RetentionPolicy",
    "RetentionReport",
    "TierConfig",
    "Snapshot",
    "SnapshotConflictError",
    "SnapshotRetry",
    "SourceChunkInfo",
    "SourceIntrospection",
    "SourceState",
    "Storage",
    "TraceEvent",
    "StorageError",
    "TimestampIndex",
    "UnknownIndexError",
    "UnknownSourceError",
    "VirtualClock",
    "corrupt_byte",
    "exponential_edges",
    "indexed_aggregate",
    "indexed_scan",
    "micros",
    "millis",
    "raw_scan",
    "recover",
    "scan_persisted_records",
    "scan_persisted_summaries",
    "scan_persisted_timestamps",
    "seconds",
    "uniform_edges",
    "verify_frames",
]
