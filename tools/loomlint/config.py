"""Loom-specific knowledge the lint rules consult.

Everything here encodes an invariant stated in the paper (sections cited
per constant) or a structural fact about this codebase (which attribute
names hold which classes).  The index and the rule modules are generic AST
machinery; this module is the part a Loom maintainer edits when the
architecture grows: reader roots, typed attributes and the vocabulary of
LOOM101-116.  Every function or class named here must exist in the
analyzed tree: a run whose index cannot resolve one is a usage error,
never a silently smaller check.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Rule registry: code -> (slug, one-line description).
# Both the code and the slug are accepted in suppression comments, which
# are the one way to accept a finding:
#     # loomlint: disable=LOOM101
#     # loomlint: disable=reader-blocking
# ----------------------------------------------------------------------
RULES = {
    "LOOM101": (
        "reader-blocking",
        "no blocking primitive (lock, sleep, fsync, queue, IO) may be "
        "reachable from a reader/snapshot path (paper sections 4.4-4.5: "
        "queries never coordinate with ingest)",
    ),
    "LOOM102": (
        "version-parity",
        "seqlock version bumps (`self._version += 1`) must appear in "
        "balanced odd/even pairs within one function, with no return "
        "between them (section 5.5: odd while mutating, even when stable)",
    ),
    "LOOM103": (
        "publish-order",
        "watermark/publication stores must come after all payload stores "
        "in a function (section 5.4: readers may only see index entries "
        "for bytes already below the record log's watermark)",
    ),
    "LOOM104": (
        "nondeterminism",
        "no wall-clock or randomness source in repro.core outside "
        "clock.py (section 5.2: all timestamps flow through the Clock "
        "abstraction so replay and recovery stay deterministic)",
    ),
    "LOOM105": (
        "exception-hygiene",
        "no bare `except`, and no silently swallowed StorageError/"
        "CorruptionError in flush or recovery code (a dropped flush error "
        "would un-park the FAILED health state and lose data silently)",
    ),
    "LOOM106": (
        "seqlock-docstring",
        "functions implementing the seqlock/watermark contract must keep "
        "a docstring naming the contract (the convention is the spec; "
        "losing the docstring is how the invariant regresses)",
    ),
    "LOOM107": (
        "seqlock-mutation-visibility",
        "every store to seqlock-guarded block state (base_address, "
        "filled) must sit inside a version bracket or in a function that "
        "carries a yield-point marker, so the sanitizer's race detector "
        "observes every mutation it is asked to order (section 5.5)",
    ),
    "LOOM108": (
        "sanitizer-isolation",
        "production modules (src/repro) must not import anything under "
        "tools/: the shadow model, the schedule explorer and the model "
        "checker live beside the CLIs that drive them and reach the "
        "runtime only through the yieldpoints hooks",
    ),
    "LOOM109": (
        "shadow-totality",
        "the shadow model must stay total over the public ingest "
        "surface: every RecordLog ingest/lifecycle method has an "
        "on_<name> mirror on ShadowLog, and every mirror corresponds "
        "to a declared surface method (drift in either direction means "
        "the differential oracles silently stop covering an operation)",
    ),
    "LOOM110": (
        "stable-schedule-alphabet",
        "fuzzer schedules serialize only through the stable label "
        "alphabet: yield-point labels in core are literal dotted "
        "identifiers (never computed), and the FuzzSchedule wire format "
        "contains only its declared fields (object identities or "
        "ephemeral values would break cross-process replay)",
    ),
    "LOOM111": (
        "metrics-clock",
        "metrics-layer code (repro/scope, the loomscope consumers) takes "
        "timestamps from repro.core.clock, never from time.* directly — "
        "self-observation must stay as replayable and deterministic as "
        "the data path it observes (the same section 5.2 discipline "
        "LOOM104 enforces inside repro.core)",
    ),
    "LOOM112": (
        "async-blocking",
        "no blocking primitive (time.sleep, fsync, lock acquire, "
        "blocking queue get) may be reachable from an asyncio handler in "
        "repro.daemon: one stalled coroutine freezes every connection on "
        "the event loop — blocking work belongs on executor threads "
        "behind the propagated deadline",
    ),
    "LOOM113": (
        "await-shard-state",
        "async functions in repro.daemon must not touch shard worker "
        "state (pending/dedup/shedding/apply_error): the admission check "
        "and the worker own it single-threadedly, and an await between a "
        "read and the dependent write would interleave another "
        "connection's handler into the critical section",
    ),
    "LOOM114": (
        "deadline-propagation",
        "every LoomClient method that issues a request must accept a "
        "deadline_s parameter and forward it into _request, and every "
        "function doing raw frame I/O must arm set_timeout first — a "
        "call path that drops the deadline can hang a caller forever on "
        "a dead server",
    ),
    "LOOM115": (
        "wire-constant-single-source",
        "wire-format constants (LEN_PREFIX, HEADER_PREFIX, RECORD_ENTRY, "
        "frame limits, PROTOCOL_VERSION) are defined once in "
        "repro.daemon.protocol and imported everywhere else; a "
        "re-declared struct format or limit can drift from the one the "
        "peer actually speaks",
    ),
    "LOOM116": (
        "header-validated-before-use",
        "control-header fields arriving off the wire are attacker-"
        "controlled JSON: subscripting a request/response header outside "
        "a KeyError/TypeError/ValueError guard (or a membership test) "
        "turns a malformed frame into an unhandled exception instead of "
        "a protocol error",
    ),
}

# ----------------------------------------------------------------------
# LOOM101: reader-path roots.
#
# Functions any query thread may execute concurrently with the single
# writer.  Reachability closure from these roots must contain no blocking
# primitive.  ``*`` matches every method of a class.
# ----------------------------------------------------------------------
READER_ROOTS = (
    "repro.core.block.Block.try_copy",
    "repro.core.block.Block.read_range",
    "repro.core.block.Block.version",
    "repro.core.hybridlog.HybridLog.read",
    "repro.core.hybridlog.HybridLog.read_upto",
    "repro.core.hybridlog.HybridLog._copy_from_blocks",
    "repro.core.snapshot.Snapshot.*",
    "repro.core.record_log.RecordLog.read_record",
    "repro.core.record_log.RecordLog.iter_records_between",
    "repro.core.record_log.RecordLog.active_region_start",
    "repro.core.record_log.RecordLog.region_columns",
    "repro.core.record_log.RecordLog._hot_columns",
    "repro.core.record_log.decode_region",
    "repro.core.record_log.RecordLog._cold_columns",
    "repro.core.record_log.RecordLog._region_buffer",
    "repro.core.record_log.RegionColumns.*",
    "repro.core.archive.ArchiveLog.read_chunk_bytes",
    "repro.core.archive.decode_frame",
    "repro.core.archive.decode_chunk_region",
    "repro.core.archive.encode_region",
    "repro.core.record_log.RecordBatch.*",
    "repro.core.record_log.gather_payloads",
    "repro.core.chunk_index.ChunkIndex.summaries_in_time_range",
    "repro.core.chunk_index.ChunkIndex.summary_for_chunk",
    "repro.core.chunk_index.ChunkIndex.get",
    "repro.core.chunk_index.ChunkIndex.last",
    "repro.core.timestamp_index.TimestampIndex.first_record_after",
    "repro.core.timestamp_index.TimestampIndex.last_record_before",
    "repro.core.timestamp_index.TimestampIndex.chunk_id_window",
    "repro.core.operators.raw_scan",
    "repro.core.operators.raw_scan_batches",
    "repro.core.operators.indexed_scan",
    "repro.core.operators.indexed_scan_batches",
    "repro.core.operators.index_values",
    "repro.core.operators.indexed_aggregate",
    "repro.core.operators.bin_histogram",
    "repro.core.operators.bin_values",
)

# Attribute name -> class name(s): how the call-graph builder resolves
# ``something.attr.method()`` when ``attr`` is one of these well-known
# component attributes.  Subclasses of the named class are included
# automatically (e.g. Storage covers FileStorage / MemoryStorage /
# FaultInjectingStorage).
ATTR_TYPES = {
    "_storage": ("Storage",),
    "storage": ("Storage",),
    "_journal": ("Storage",),
    "journal": ("Storage",),
    "_inner": ("Storage",),
    "inner": ("Storage",),
    "log": ("HybridLog",),
    "record_log": ("RecordLog",),
    "_record_log": ("RecordLog",),
    "chunk_index": ("ChunkIndex",),
    "timestamp_index": ("TimestampIndex",),
    "stats": ("LogStats", "QueryStats"),
    "clock": ("Clock",),
    "snapshot": ("Snapshot",),
    "snap": ("Snapshot",),
    "_blocks": ("Block",),
    "block": ("Block",),
    "archive": ("ArchiveLog",),
    "_archive": ("ArchiveLog",),
    "migrator": ("ChunkMigrator",),
    "_migrator": ("ChunkMigrator",),
}

# Local variable names resolved the same way (a deliberately tiny list:
# only names whose meaning is unambiguous across the codebase).
LOCAL_TYPES = {
    "block": ("Block",),
    "summary": ("ChunkSummary",),
    "record": ("Record",),
    "hist": ("Histogram",),
}

# Method names too generic to resolve by name match against *arbitrary*
# classes; they resolve only through the typed maps above.  (``append`` on
# a bare local is a list append, not ChunkIndex.append.)
GENERIC_METHOD_NAMES = frozenset(
    {
        "append",
        "get",
        "read",
        "write",
        "close",
        "update",
        "add",
        "pop",
        "clear",
        "keys",
        "values",
        "items",
        "set",
        "sort",
        "extend",
        "copy",
        "encode",
        "decode",
        "restore",
        "size",
        "sync",
    }
)

# ----------------------------------------------------------------------
# LOOM103: publish-order vocabulary.
#
# A *publish event* makes data visible to readers; a *payload store*
# appends or mutates the data/index bytes being published.  Within one
# function, every payload store must precede every publish event.
# ----------------------------------------------------------------------
PUBLISH_CALL_NAMES = frozenset({"publish", "_publish"})
PUBLISH_STORE_ATTRS = frozenset({"_watermark", "published_head"})

PAYLOAD_CALL_NAMES = frozenset(
    {
        "append",
        "append_many",
        "write",
        "note_chunk",
        "note_records",
        "maybe_note_record",
        "add_record",
        "add_records",
        "add_indexed_value",
        "add_indexed_values",
        "add_indexed_values_array",
    }
)
# Receivers through which the payload calls above count as data stores
# (filters out list.append and friends).
PAYLOAD_RECEIVER_ATTRS = frozenset(
    {
        "log",
        "chunk_index",
        "timestamp_index",
        "_storage",
        "storage",
        "_journal",
        "_active_summary",
        "summary",
        "self",
    }
)
PAYLOAD_STORE_ATTRS = frozenset({"last_addr", "_tail", "filled"})

# ----------------------------------------------------------------------
# LOOM104: nondeterminism sources banned from repro.core outside clock.py.
# ----------------------------------------------------------------------
NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)
NONDETERMINISTIC_MODULES = frozenset({"random", "secrets"})
CLOCK_EXEMPT_SUFFIXES = ("repro/core/clock.py",)
CORE_PATH_FRAGMENT = "repro/core/"
#: The verification engines.  They sit beside the tools that drive them,
#: outside src/, but stay under the core-scoped rules (LOOM103/104/107/
#: 110: a recorded schedule or counterexample replays only if the engine
#: is as deterministic as the code it explores), and LOOM109/LOOM110 read
#: ShadowLog and FuzzSchedule out of them — so every run indexes these
#: files, whatever paths it was given.
ENGINE_PATHS = (
    "tools/loomsan/sanitizer.py",
    "tools/loomsan/schedule.py",
    "tools/loommc/modelcheck.py",
)

# ----------------------------------------------------------------------
# LOOM111: metrics-layer paths held to the same clock discipline as core.
# ``repro/core/metrics.py`` is already covered by LOOM104 (it lives in
# repro/core); these fragments extend the ban to the loomscope consumers.
# ----------------------------------------------------------------------
METRICS_PATH_FRAGMENTS = ("repro/scope/",)

# ----------------------------------------------------------------------
# LOOM105: flush/recovery-critical modules (silently swallowing a
# StorageError here converts data loss into silence).
# ----------------------------------------------------------------------
FLUSH_CRITICAL_MODULES = frozenset(
    {
        "repro.core.hybridlog",
        "repro.core.storage",
        "repro.core.recovery",
        "repro.core.record_log",
        "repro.core.loom",
        "repro.core.block",
        "repro.core.faults",
    }
)
SWALLOWABLE_EXCEPTIONS = frozenset(
    {
        "StorageError",
        "CorruptionError",
        "LoomError",
        "OSError",
        "IOError",
        "Exception",
        "BaseException",
    }
)

# ----------------------------------------------------------------------
# LOOM107: seqlock-guarded block state.  Stores to these attributes are
# the mutations the race detector must be able to observe: either they
# happen inside a version bracket (between paired `_version += 1` bumps)
# or the mutating function carries a yield-point marker
# (`yieldpoints.hit` / `yieldpoints.note`).  ``__init__`` is exempt —
# construction precedes sharing.
# ----------------------------------------------------------------------
SEQLOCK_STATE_ATTRS = frozenset({"base_address", "filled"})

# ----------------------------------------------------------------------
# LOOM108: the runtime package and the tooling package it must not import.
# ----------------------------------------------------------------------
RUNTIME_PACKAGE = "repro"
TOOLS_PACKAGE = "tools"

# ----------------------------------------------------------------------
# LOOM109: the public ingest/lifecycle surface of RecordLog that the
# shadow model mirrors.  Each name here must exist as
# ``RecordLog.<name>`` and as ``ShadowLog.on_<name>``; conversely every
# ``ShadowLog.on_*`` method must appear here.  Growing the ingest
# surface therefore forces a matching shadow mirror (totality).
# ----------------------------------------------------------------------
SHADOW_SURFACE = (
    "define_source",
    "close_source",
    "define_index",
    "close_index",
    "push",
    "push_many",
    "sync",
    "migrate",
    "apply_retention",
    "close",
    "reopen",
)
RECORD_LOG_QUALNAME = "repro.core.record_log.RecordLog"
SHADOW_LOG_QUALNAME = "tools.loomsan.sanitizer.ShadowLog"

# ----------------------------------------------------------------------
# LOOM110: the stable schedule-serialization alphabet.  Yield-point
# labels must be literal strings matching the dotted-identifier shape
# below, and the FuzzSchedule JSON payload may contain only these keys.
# ----------------------------------------------------------------------
YIELD_LABEL_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$"
YIELD_CALL_NAMES = frozenset({"hit", "note"})
FUZZ_SCHEDULE_FIELDS = frozenset({"version", "seed", "steps", "trace", "error"})
FUZZ_SCHEDULE_QUALNAME = "tools.loomsan.schedule.FuzzSchedule"

# ----------------------------------------------------------------------
# LOOM112-LOOM116: the networked service (repro.daemon).
# ----------------------------------------------------------------------
#: Module prefix that scopes the async rules to the daemon.
DAEMON_MODULE_PREFIX = "repro.daemon"

#: Blocking-fact descriptions that are *non*-blocking in the daemon's
#: admission path and therefore exempt from LOOM112: puts on the
#: unbounded shard queue never block (backpressure is watermark-based
#: shedding, not queue capacity), and the ``*_nowait`` variants are
#: non-blocking by contract.  Reader paths (LOOM101) still ban them —
#: there the objection is coordination, not stalling the event loop.
ASYNC_EXEMPT_FACT_TOKENS = (".put()", "put_nowait", "get_nowait")

#: LOOM113: shard worker state.  Owned by the admission check (under the
#: event loop, synchronously) and the worker thread; never visible to a
#: coroutine that can await.
SHARD_STATE_ATTRS = frozenset({"pending", "dedup", "shedding", "apply_error"})

#: LOOM114: the client module whose public request methods must thread
#: deadlines, the request primitive they call, and the parameter name.
CLIENT_MODULE = "repro.daemon.client"
REQUEST_CALL_NAME = "_request"
DEADLINE_PARAM = "deadline_s"
#: Raw frame I/O methods: any function calling these must also arm
#: ``set_timeout`` (transports themselves are the mechanism, so exempt).
FRAME_IO_METHODS = frozenset({"send_frame", "recv_frame"})
TIMEOUT_CALL_NAME = "set_timeout"
TRANSPORT_EXEMPT_SUFFIXES = ("repro/daemon/transport.py",)

#: LOOM115: the single source of wire truth, the struct formats that ARE
#: the wire framing (big-endian, per DESIGN.md section 11), and the
#: constant names that may only be bound there.
PROTOCOL_MODULE = "repro.daemon.protocol"
WIRE_STRUCT_FORMATS = frozenset({">I", ">H", ">QQI"})
WIRE_CONSTANT_NAMES = frozenset(
    {
        "LEN_PREFIX",
        "HEADER_PREFIX",
        "RECORD_ENTRY",
        "MAX_FRAME_BYTES",
        "MAX_HEADER_BYTES",
        "PROTOCOL_VERSION",
    }
)

#: LOOM116: variable names that hold wire-received control headers in
#: the daemon modules below, and the exception names whose handlers
#: count as a validation guard around a raw subscript.
HEADER_RECEIVER_NAMES = frozenset({"header", "resp", "resp_header"})
HEADER_GUARD_EXCEPTIONS = frozenset(
    {
        "KeyError",
        "TypeError",
        "ValueError",
        "IndexError",
        "LoomError",
        "TransportError",
        "Exception",
    }
)
HEADER_CHECKED_MODULES = frozenset(
    {
        "repro.daemon.server",
        "repro.daemon.client",
        "repro.daemon.protocol",
    }
)

# ----------------------------------------------------------------------
# LOOM106: contract functions and the keyword(s) at least one of which
# their docstring must mention (case-insensitive).  A missing function is
# itself a violation: renaming a contract function away silently drops
# its documented obligation.
# ----------------------------------------------------------------------
CONTRACT_DOCSTRINGS = {
    "repro.core.block.Block.try_copy": ("seqlock",),
    "repro.core.block.Block.read_range": ("seqlock", "SnapshotRetry"),
    "repro.core.block.Block.recycle": ("version",),
    "repro.core.hybridlog.HybridLog.read": ("seqlock",),
    "repro.core.hybridlog.HybridLog.publish": ("watermark",),
    "repro.core.record_log.RecordLog._publish": ("order",),
    "repro.core.snapshot.Snapshot.capture": ("linearization",),
}
