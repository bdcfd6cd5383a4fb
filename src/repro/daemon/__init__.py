"""Monitoring-daemon substrate (paper Figure 4), the distributed
coordinator of section 8, long-term export (section 3), and the eBPF
front-end sink integration (section 8)."""

from .cli import CliError, CliResult, LoomCli, parse_duration
from .client import LoomClient
from .distributed import LoomCoordinator, NodeRef
from .export import ArchiveInfo, export_range, iter_archive, read_archive
from .frontends import LoomSink, StreamingAggregator
from .monitor import MonitoringDaemon, SourceHandle
from .otel import (
    OtelLoomExporter,
    OtelMetricPoint,
    OtelSpan,
    span_duration,
)
from .server import LoomServer, ServerConfig, shard_of
from .transport import FaultInjectingTransport, TcpTransport, Transport

__all__ = [
    "ArchiveInfo",
    "CliError",
    "CliResult",
    "FaultInjectingTransport",
    "LoomCli",
    "LoomClient",
    "LoomServer",
    "OtelLoomExporter",
    "OtelMetricPoint",
    "OtelSpan",
    "parse_duration",
    "span_duration",
    "LoomCoordinator",
    "LoomSink",
    "MonitoringDaemon",
    "NodeRef",
    "ServerConfig",
    "SourceHandle",
    "StreamingAggregator",
    "TcpTransport",
    "Transport",
    "export_range",
    "iter_archive",
    "read_archive",
    "shard_of",
]
