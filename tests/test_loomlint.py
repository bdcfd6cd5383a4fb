"""Tests for loomlint's concurrency rules (LOOM101-116), config and CLI.

Each rule test builds a tiny synthetic ``repro/core`` package in a temp
directory and runs the rules over it, so rule behaviour is pinned
independently of the real source tree.  The final tests run loomlint
over the actual repo ``src/`` (the same gate CI applies) and over a
copy of it with one configured name renamed: a lint config that no
longer resolves must be a usage error, not a smaller check.
"""

import json
import os
import shutil
import subprocess
import sys

from tools.loomlint import ProjectIndex, lint as run_rules, run
from tools.loomlint.config import ENGINE_PATHS, RULES

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_package(tmp_path, package, **modules):
    """Create repro/<package>/<name>.py files under tmp_path."""
    directory = tmp_path / "repro" / package
    directory.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (directory / "__init__.py").write_text("")
    for name, source in modules.items():
        (directory / (name + ".py")).write_text(source)


def make_engine(tmp_path, rel, source):
    """Write a stand-in for one verification engine (ENGINE_PATHS)."""
    assert rel in ENGINE_PATHS
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / "tools" / "__init__.py").write_text("")
    (path.parent / "__init__.py").write_text("")
    path.write_text(source)


def lint_tree(tmp_path):
    """The rules alone over a partial tree (``run`` would reject it:
    most of the lint config cannot resolve in a one-module project)."""
    return run_rules(ProjectIndex.build([str(tmp_path / "repro")], str(tmp_path)))


def lint(tmp_path, **modules):
    make_package(tmp_path, "core", **modules)
    return lint_tree(tmp_path)


def codes(result):
    return sorted(v.rule for v in result.findings)


# ----------------------------------------------------------------------
# LOOM101: reader-path blocking
# ----------------------------------------------------------------------
def test_lock_on_reader_path_flagged(tmp_path):
    result = lint(
        tmp_path,
        snapshot="""
class Snapshot:
    def capture(self):
        "Linearization point."
        with self._lock:
            return 1
""",
    )
    assert codes(result) == ["LOOM101"]
    (v,) = result.findings
    assert "lock" in v.message
    assert v.symbol == "repro.core.snapshot.Snapshot.capture"


def test_blocking_reached_through_typed_attribute(tmp_path):
    """self._storage.sync() resolves via ATTR_TYPES to Storage.sync."""
    result = lint(
        tmp_path,
        storage="""
import os


class Storage:
    def sync(self):
        os.fsync(1)
""",
        snapshot="""
class Snapshot:
    def capture(self):
        "Linearization point."
        self._storage.sync()
""",
    )
    assert codes(result) == ["LOOM101"]
    (v,) = result.findings
    assert "os.fsync" in v.message
    assert v.symbol == "repro.core.storage.Storage.sync"
    assert "reachable via" in v.message


def test_sleep_on_writer_path_not_flagged(tmp_path):
    """time.sleep is fine off the reader closure (flush retry backoff)."""
    result = lint(
        tmp_path,
        writer="""
import time


class HybridLog:
    def _flush_with_retry(self):
        time.sleep(0.01)
""",
    )
    assert result.findings == []


def test_subclass_override_included_in_closure(tmp_path):
    """A Storage subclass's blocking override is reachable via the base."""
    result = lint(
        tmp_path,
        storage="""
import os


class Storage:
    def sync(self):
        pass


class FileStorage(Storage):
    def sync(self):
        os.fsync(1)
""",
        snapshot="""
class Snapshot:
    def capture(self):
        "Linearization point."
        self._storage.sync()
""",
    )
    assert codes(result) == ["LOOM101"]
    assert result.findings[0].symbol == "repro.core.storage.FileStorage.sync"


def test_columnar_read_path_is_a_reader_root(tmp_path):
    """RecordLog.region_columns/_region_buffer are the query read path;
    they are roots in their own right, not only via Snapshot.*."""
    result = lint(
        tmp_path,
        record_log="""
class RecordLog:
    def _publish(self):
        "Publication order: payload stores before the watermark."

    def region_columns(self, start, end):
        return self._region_buffer(start, end)

    def _region_buffer(self, start, end):
        with self._region_lock:
            return self._cache[start]
""",
    )
    assert codes(result) == ["LOOM101"]
    assert result.findings[0].symbol.endswith("RecordLog._region_buffer")


# ----------------------------------------------------------------------
# LOOM102: version parity
# ----------------------------------------------------------------------
def test_unbalanced_version_bump_flagged(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def half_recycle(self):
        self._version += 1
        self.closed = True
""",
    )
    assert codes(result) == ["LOOM102"]


def test_return_between_bumps_flagged(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def recycle(self, fast):
        self._version += 1
        if fast:
            return
        self._version += 1
""",
    )
    assert codes(result) == ["LOOM102"]
    assert "return/raise between version bumps" in result.findings[0].message


def test_direct_version_store_flagged_outside_init(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def __init__(self):
        self._version = 0

    def reset(self):
        self._version = 0
""",
    )
    assert codes(result) == ["LOOM102"]
    assert result.findings[0].symbol == "repro.core.blk.Block.reset"


def test_balanced_bumps_clean(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def recycle(self):
        self._version += 1
        self.filled = 0
        self._version += 1
""",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LOOM103: publish order
# ----------------------------------------------------------------------
def test_payload_store_after_publish_flagged(tmp_path):
    result = lint(
        tmp_path,
        rlog="""
class RecordLog:
    def push(self, summary):
        self._watermark = 10
        self.chunk_index.append(summary)
""",
    )
    assert codes(result) == ["LOOM103"]


def test_payload_before_publish_clean(tmp_path):
    result = lint(
        tmp_path,
        rlog="""
class RecordLog:
    def push(self, summary):
        self.chunk_index.append(summary)
        self._watermark = 10
""",
    )
    assert result.findings == []


def test_columnar_summary_fold_is_a_payload_store(tmp_path):
    """push_many folds through add_indexed_values_array, not the
    per-record add_indexed_value; the rule must see both."""
    result = lint(
        tmp_path,
        rlog="""
class RecordLog:
    def push_many(self, values):
        self._publish()
        self._active_summary.add_indexed_values_array(0, values)
""",
    )
    assert codes(result) == ["LOOM103"]
    assert "add_indexed_values_array" in result.findings[0].message


def test_list_append_not_a_payload_store(tmp_path):
    """Plain list.append after publish is not an index mutation."""
    result = lint(
        tmp_path,
        rlog="""
class RecordLog:
    def push(self, out):
        self._watermark = 10
        out.append(1)
""",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LOOM104: nondeterminism in core
# ----------------------------------------------------------------------
def test_wall_clock_in_core_flagged(tmp_path):
    result = lint(
        tmp_path,
        rlog="""
import time


def now():
    return time.time()
""",
    )
    assert codes(result) == ["LOOM104"]


def test_random_in_core_flagged(tmp_path):
    result = lint(
        tmp_path,
        summary="""
import random


def jitter():
    return random.random()
""",
    )
    assert codes(result) == ["LOOM104"]


def test_clock_module_exempt(tmp_path):
    result = lint(
        tmp_path,
        clock="""
import time


class Clock:
    def now(self):
        return time.time()
""",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LOOM111: nondeterminism in the metrics layer (repro/scope)
# ----------------------------------------------------------------------
def lint_scope(tmp_path, **modules):
    make_package(tmp_path, "scope", **modules)
    return lint_tree(tmp_path)


def test_wall_clock_in_scope_flagged(tmp_path):
    result = lint_scope(
        tmp_path,
        selfscope="""
import time


def stamp():
    return time.perf_counter_ns()
""",
    )
    assert codes(result) == ["LOOM111"]
    (v,) = result.findings
    assert "repro.core.clock" in v.message


def test_scope_clock_usage_clean(tmp_path):
    result = lint_scope(
        tmp_path,
        selfscope="""
def stamp(registry):
    return registry.clock.now()
""",
    )
    assert result.findings == []


def test_scope_suppression_applies_to_loom111(tmp_path):
    result = lint_scope(
        tmp_path,
        exposition="""
import time


def stamp():
    return time.time()  # loomlint: disable=metrics-clock
""",
    )
    assert result.findings == []
    assert [v.rule for v in result.suppressed] == ["LOOM111"]


# ----------------------------------------------------------------------
# LOOM105: exception hygiene
# ----------------------------------------------------------------------
def test_bare_except_flagged(tmp_path):
    result = lint(
        tmp_path,
        summary="""
def f():
    try:
        pass
    except:
        pass
""",
    )
    assert codes(result) == ["LOOM105"]


def test_swallowed_storage_error_in_flush_module_flagged(tmp_path):
    result = lint(
        tmp_path,
        recovery="""
def flush():
    try:
        pass
    except StorageError:
        pass
""",
    )
    assert codes(result) == ["LOOM105"]
    assert "discards the error" in result.findings[0].message


def test_handler_that_reraises_clean(tmp_path):
    result = lint(
        tmp_path,
        recovery="""
def flush():
    try:
        pass
    except StorageError:
        raise
""",
    )
    assert result.findings == []


def test_handler_that_uses_error_clean(tmp_path):
    result = lint(
        tmp_path,
        recovery="""
def flush(self):
    try:
        pass
    except StorageError as exc:
        self.park(exc)
""",
    )
    assert result.findings == []


def test_swallow_outside_flush_modules_allowed(tmp_path):
    result = lint(
        tmp_path,
        summary="""
def tidy():
    try:
        pass
    except ValueError:
        pass
""",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LOOM106: contract docstrings
# ----------------------------------------------------------------------
def test_contract_docstring_missing_keyword_flagged(tmp_path):
    result = lint(
        tmp_path,
        block="""
class Block:
    def try_copy(self, address, length):
        "Copy bytes."

    def read_range(self, address, length):
        "Seqlock-validated read; raises SnapshotRetry when torn."

    def recycle(self):
        "Bump version odd, clear, bump even."
        self._version += 1
        self._version += 1
""",
        hybridlog="""
class HybridLog:
    def read(self, address, length):
        "Seqlock fast path."

    def publish(self, target):
        "Advance the watermark."
""",
        record_log="""
class RecordLog:
    def _publish(self):
        "Publication order: log, chunk index, timestamp index, head."
""",
        snapshot="""
class Snapshot:
    @classmethod
    def capture(cls, record_log):
        "Linearization point for queries."
""",
    )
    # Only try_copy lacks its keyword ("seqlock").
    assert codes(result) == ["LOOM106"]
    assert result.findings[0].symbol == "repro.core.block.Block.try_copy"


def test_contract_function_deleted_flagged(tmp_path):
    """Analyzing block.py without read_range reports the missing contract."""
    result = lint(
        tmp_path,
        block="""
class Block:
    def try_copy(self, address, length):
        "Seqlock-validated copy."

    def recycle(self):
        "Version goes odd, then even."
        self._version += 1
        self._version += 1
""",
    )
    missing = [v for v in result.findings if "is missing" in v.message]
    assert len(missing) == 1
    assert missing[0].symbol == "repro.core.block.Block.read_range"


# ----------------------------------------------------------------------
# LOOM107: seqlock-state mutation visibility
# ----------------------------------------------------------------------
def test_unmarked_seqlock_store_flagged(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def silently_unmap(self):
        self.base_address = None
""",
    )
    assert codes(result) == ["LOOM107"]
    assert "base_address" in result.findings[0].message


def test_seqlock_store_with_yield_marker_clean(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def map(self, base):
        self.base_address = base
        self.filled = 0
        yieldpoints.hit("block.map", block=self)
""",
    )
    assert result.findings == []


def test_seqlock_store_inside_version_bracket_clean(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def recycle(self):
        self._version += 1
        self.base_address = None
        self.filled = 0
        self._version += 1
""",
    )
    assert result.findings == []


def test_seqlock_store_outside_bracket_flagged(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def recycle(self):
        self._version += 1
        self.base_address = None
        self._version += 1
        self.filled = 0
""",
    )
    assert codes(result) == ["LOOM107"]
    assert "filled" in result.findings[0].message


def test_init_exempt_from_seqlock_visibility(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def __init__(self):
        self.base_address = None
        self.filled = 0
""",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LOOM108: the runtime never imports the tooling
# ----------------------------------------------------------------------
def test_runtime_import_of_tools_flagged(tmp_path):
    result = lint(
        tmp_path,
        hot="""
def enable():
    from tools.loomsan import sanitizer

    sanitizer.install()
""",
    )
    assert codes(result) == ["LOOM108"]
    assert "tools.loomsan" in result.findings[0].message


def test_runtime_import_of_own_package_clean(tmp_path):
    result = lint(
        tmp_path,
        hot="""
import toolshed
from . import viewguard
from repro.core import yieldpoints
""",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LOOM109: shadow totality
# ----------------------------------------------------------------------
_RECORD_LOG_SRC = """
class RecordLog:
    def _publish(self):
        "Publication order: payload stores before the watermark."

    def define_source(self): pass
    def close_source(self): pass
    def define_index(self): pass
    def close_index(self): pass
    def push(self): pass
    def push_many(self): pass
    def sync(self): pass
    def migrate(self): pass
    def apply_retention(self): pass
    def close(self): pass
    def reopen(self): pass
"""

_SHADOW_MIRRORS = [
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
]


def _shadow_src(mirrors, extra=()):
    lines = ["class ShadowLog:"]
    for name in mirrors:
        lines.append(f"    def on_{name}(self): pass")
    for name in extra:
        lines.append(f"    def on_{name}(self): pass")
    return "\n".join(lines) + "\n"


def lint_shadow(tmp_path, shadow_src):
    make_engine(tmp_path, "tools/loomsan/sanitizer.py", shadow_src)
    return lint(tmp_path, record_log=_RECORD_LOG_SRC)


def test_complete_shadow_surface_clean(tmp_path):
    result = lint_shadow(tmp_path, _shadow_src(_SHADOW_MIRRORS))
    assert result.findings == []


def test_missing_shadow_mirror_flagged(tmp_path):
    result = lint_shadow(
        tmp_path, _shadow_src([m for m in _SHADOW_MIRRORS if m != "push_many"])
    )
    assert codes(result) == ["LOOM109"]
    assert "on_push_many" in result.findings[0].message


def test_unmapped_shadow_mirror_flagged(tmp_path):
    result = lint_shadow(tmp_path, _shadow_src(_SHADOW_MIRRORS, extra=["truncate"]))
    assert codes(result) == ["LOOM109"]
    assert "on_truncate" in result.findings[0].message


def test_shadow_rule_inert_without_both_classes(tmp_path):
    result = lint(tmp_path, record_log=_RECORD_LOG_SRC)
    assert result.findings == []


# ----------------------------------------------------------------------
# LOOM110: stable schedule alphabet
# ----------------------------------------------------------------------
def test_computed_yield_label_flagged(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def poke(self, name):
        yieldpoints.note(f"dyn.{name}")
""",
    )
    assert codes(result) == ["LOOM110"]
    assert "computed" in result.findings[0].message


def test_nonconforming_literal_label_flagged(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def poke(self):
        yieldpoints.hit("Block Recycled!")
""",
    )
    assert codes(result) == ["LOOM110"]
    assert "alphabet" in result.findings[0].message


def test_dotted_literal_label_clean(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def poke(self):
        yieldpoints.hit("block.recycle.begin", block=self)
        yieldpoints.note("block.try_copy.version1", version=2)
""",
    )
    assert result.findings == []


def test_foreign_wire_format_key_flagged(tmp_path):
    make_engine(
        tmp_path,
        "tools/loomsan/schedule.py",
        """
class FuzzSchedule:
    def to_json(self):
        payload = {
            "version": 1,
            "seed": self.seed,
            "steps": list(self.steps),
            "trace": list(self.trace),
            "error": self.error,
            "recorded_at": self.wall_clock,
        }
        return payload
""",
    )
    result = lint(tmp_path)
    assert codes(result) == ["LOOM110"]
    assert "recorded_at" in result.findings[0].message


def test_declared_wire_format_clean(tmp_path):
    make_engine(
        tmp_path,
        "tools/loomsan/schedule.py",
        """
class FuzzSchedule:
    def to_json(self):
        return {
            "version": 1,
            "seed": self.seed,
            "steps": list(self.steps),
            "trace": list(self.trace),
            "error": self.error,
        }
""",
    )
    assert lint(tmp_path).findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_line_suppression_by_code_and_slug(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def a(self):
        self._version += 1  # loomlint: disable=LOOM102

    def b(self):
        self._version += 1  # loomlint: disable=version-parity
""",
    )
    assert result.findings == []
    assert len(result.suppressed) == 2


def test_def_line_suppression_covers_function(tmp_path):
    result = lint(
        tmp_path,
        snapshot="""
class Snapshot:
    def capture(self):  # loomlint: disable=LOOM101
        "Linearization point."
        with self._lock:
            return 1
""",
    )
    assert result.findings == []
    assert len(result.suppressed) == 1


def test_suppression_does_not_leak_to_other_rules(tmp_path):
    result = lint(
        tmp_path,
        blk="""
class Block:
    def a(self):
        self._version += 1  # loomlint: disable=LOOM101
""",
    )
    assert codes(result) == ["LOOM102"]


# ----------------------------------------------------------------------
# LOOM112-LOOM116: the networked service rules
# ----------------------------------------------------------------------
def lint_daemon(tmp_path, **modules):
    make_package(tmp_path, "daemon", **modules)
    return lint_tree(tmp_path)


def test_sleep_reachable_from_async_handler_flagged(tmp_path):
    result = lint_daemon(
        tmp_path,
        server="""
import time


class Server:
    async def handle(self):
        return self._settle()

    def _settle(self):
        time.sleep(0.1)
""",
    )
    assert codes(result) == ["LOOM112"]
    (v,) = result.findings
    assert "time.sleep" in v.message
    assert v.symbol == "repro.daemon.server.Server._settle"


def test_awaited_wait_is_cooperative_not_blocking(tmp_path):
    result = lint_daemon(
        tmp_path,
        server="""
class Server:
    async def serve(self):
        await self._stop.wait()
""",
    )
    assert result.findings == []


def test_admission_queue_put_exempt_blocking_get_flagged(tmp_path):
    result = lint_daemon(
        tmp_path,
        server="""
class Server:
    async def handle(self):
        return self._pump()

    def _pump(self):
        self.queue.put(("batch", 1))
        return self.queue.get(timeout=1.0)
""",
    )
    assert codes(result) == ["LOOM112"]
    assert "queue" in result.findings[0].message
    assert "get" in result.findings[0].message


def test_sync_sleep_outside_async_closure_clean(tmp_path):
    result = lint_daemon(
        tmp_path,
        worker="""
import time


class Worker:
    def run(self):
        time.sleep(0.1)
""",
    )
    assert result.findings == []


def test_async_touching_shard_state_flagged(tmp_path):
    result = lint_daemon(
        tmp_path,
        server="""
class Server:
    async def handle(self, shard):
        if shard.shedding:
            shard.pending = set()
""",
    )
    assert codes(result) == ["LOOM113", "LOOM113"]
    reads = [v for v in result.findings if "reads" in v.message]
    writes = [v for v in result.findings if "mutates" in v.message]
    assert len(reads) == 1 and ".shedding" in reads[0].message
    assert len(writes) == 1 and ".pending" in writes[0].message


def test_sync_admission_touching_shard_state_clean(tmp_path):
    result = lint_daemon(
        tmp_path,
        server="""
class Shard:
    def admit(self, key):
        if self.shedding:
            return "retry_after"
        self.pending.add(key)
        return "ack"
""",
    )
    assert result.findings == []


def test_request_method_without_deadline_param_flagged(tmp_path):
    result = lint_daemon(
        tmp_path,
        client="""
class LoomClient:
    def _request(self, header, body=b"", deadline_s=None):
        return {}

    def health(self):
        return self._request({"op": "health"})
""",
    )
    assert codes(result) == ["LOOM114", "LOOM114"]
    messages = " / ".join(v.message for v in result.findings)
    assert "deadline_s" in messages
    assert all(v.symbol.endswith("LoomClient.health") for v in result.findings)


def test_request_method_forwarding_deadline_clean(tmp_path):
    result = lint_daemon(
        tmp_path,
        client="""
class LoomClient:
    def _request(self, header, body=b"", deadline_s=None):
        return {}

    def health(self, deadline_s=None):
        return self._request({"op": "health"}, deadline_s=deadline_s)
""",
    )
    assert result.findings == []


def test_frame_io_without_timeout_flagged(tmp_path):
    result = lint_daemon(
        tmp_path,
        client="""
class LoomClient:
    def poke(self, frame):
        self._transport.send_frame(frame)
        return self._transport.recv_frame()
""",
    )
    assert codes(result) == ["LOOM114"]
    assert "set_timeout" in result.findings[0].message


def test_frame_io_with_timeout_clean(tmp_path):
    result = lint_daemon(
        tmp_path,
        client="""
class LoomClient:
    def poke(self, frame, timeout_s):
        self._transport.set_timeout(timeout_s)
        self._transport.send_frame(frame)
        return self._transport.recv_frame()
""",
    )
    assert result.findings == []


def test_redeclared_wire_struct_format_flagged(tmp_path):
    result = lint_daemon(
        tmp_path,
        export="""
import struct

_PREFIX = struct.Struct(">I")
""",
    )
    assert codes(result) == ["LOOM115"]
    assert "'>I'" in result.findings[0].message


def test_rebound_wire_constant_flagged(tmp_path):
    result = lint_daemon(
        tmp_path,
        export="""
MAX_FRAME_BYTES = 1 << 20
""",
    )
    assert codes(result) == ["LOOM115"]
    assert "MAX_FRAME_BYTES" in result.findings[0].message


def test_protocol_module_owns_wire_constants(tmp_path):
    """protocol.py itself may (must) declare the wire constants."""
    result = lint_daemon(
        tmp_path,
        protocol="""
import struct

LEN_PREFIX = struct.Struct(">I")
MAX_FRAME_BYTES = 8 << 20
""",
    )
    assert result.findings == []


def test_foreign_struct_format_not_a_wire_constant(tmp_path):
    """Little-endian file formats (export/otel) are not wire framing."""
    result = lint_daemon(
        tmp_path,
        export="""
import struct

_FRAME = struct.Struct("<IQI")
""",
    )
    assert result.findings == []


def test_raw_header_subscript_flagged(tmp_path):
    result = lint_daemon(
        tmp_path,
        server="""
class Server:
    def dispatch(self, header):
        return header["op"]
""",
    )
    assert codes(result) == ["LOOM116"]
    assert "header['op']" in result.findings[0].message


def test_guarded_header_subscript_clean(tmp_path):
    result = lint_daemon(
        tmp_path,
        server="""
class Server:
    def t_range(self, header):
        try:
            return int(header["t_start"]), int(header["t_end"])
        except (KeyError, TypeError, ValueError):
            raise RuntimeError("bad range")

    def count(self, header):
        if "records" in header:
            return header["records"]
        return None
""",
    )
    assert result.findings == []


def test_header_store_and_get_are_not_raw_reads(tmp_path):
    result = lint_daemon(
        tmp_path,
        client="""
class LoomClient:
    def build(self, header):
        header["v"] = 1
        return header.get("op")
""",
    )
    assert result.findings == []


def test_header_subscript_outside_daemon_modules_ignored(tmp_path):
    result = lint_daemon(
        tmp_path,
        monitor="""
def peek(header):
    return header["op"]
""",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# The real tree, config resolution and the CLI
# ----------------------------------------------------------------------
def test_repo_src_is_clean():
    result = run([os.path.join(_REPO_ROOT, "src")], root=_REPO_ROOT)
    rendered = "\n".join(v.render() for v in result.findings)
    assert result.clean, f"new loomlint findings:\n{rendered}"
    # The fuzzer's seeded randomness, the only two accepted findings.
    assert [(v.rule, v.path) for v in result.suppressed] == [
        ("LOOM104", "tools/loomsan/schedule.py")
    ] * 2


def project_copy(tmp_path):
    """The real tree loomlint analyses, copied so a test can edit it."""
    shutil.copytree(os.path.join(_REPO_ROOT, "src", "repro"), tmp_path / "src" / "repro")
    for rel in ENGINE_PATHS:
        with open(os.path.join(_REPO_ROOT, rel), encoding="utf-8") as f:
            make_engine(tmp_path, rel, f.read())
    return tmp_path


def loomlint_cli(monkeypatch, capsys, cwd, *args):
    """``loomlint <args>`` run in-process from the project's root.  (A
    subprocess started there would import the copy's stand-in ``tools``
    package instead of the real one.)"""
    from tools.loomlint.__main__ import main

    monkeypatch.chdir(cwd)
    returncode = main(list(args))
    return subprocess.CompletedProcess(args, returncode, *capsys.readouterr())


def rewrite(path, old, new):
    source = path.read_text()
    assert old in source
    path.write_text(source.replace(old, new))


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    project = project_copy(tmp_path)
    clean = loomlint_cli(monkeypatch, capsys, project, "src/")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "clean (2 suppressed)" in clean.stdout

    missing = loomlint_cli(monkeypatch, capsys, project, "no/such/dir")
    assert missing.returncode == 2

    # One LOOM1xx and one LOOM2xx finding: exit 1, both in the JSON artifact.
    (project / "src" / "repro" / "core" / "cache.py").write_text(
        "class Cache:\n"
        "    def bump(self):\n"
        "        self._version += 1\n"
        "\n"
        "    def warm(self, storage):\n"
        "        self._hot = storage.read_view(0, 64)\n"
    )
    out = tmp_path / "findings.json"
    bad = loomlint_cli(monkeypatch, capsys, project, "src/", "--out", str(out))
    assert bad.returncode == 1, bad.stdout + bad.stderr
    assert "LOOM102" in bad.stdout and "LOOM202" in bad.stdout
    payload = json.loads(out.read_text())
    assert [f["rule"] for f in payload["findings"]] == ["LOOM102", "LOOM202"]
    assert payload["findings"][1]["borrow_site"] == "src/repro/core/cache.py:6"
    assert len(payload["suppressed"]) == 2


def test_renamed_reader_root_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """A root that no longer resolves must not silently leave LOOM101."""
    project = project_copy(tmp_path)
    rewrite(
        project / "src" / "repro" / "core" / "record_log.py",
        "def read_record(",
        "def fetch_record(",
    )
    proc = loomlint_cli(monkeypatch, capsys, project, "src/")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "READER_ROOTS: repro.core.record_log.RecordLog.read_record" in proc.stderr


def test_renamed_configured_class_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """Typed-attribute classes and the LOOM109/110 qualnames resolve too."""
    project = project_copy(tmp_path)
    rewrite(
        project / "src" / "repro" / "core" / "archive.py",
        "class ChunkMigrator",
        "class Migrator",
    )
    rewrite(
        project / "tools" / "loomsan" / "schedule.py",
        "class FuzzSchedule",
        "class Schedule",
    )
    proc = loomlint_cli(monkeypatch, capsys, project, "src/")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "ATTR_TYPES: class ChunkMigrator" in proc.stderr
    assert "FUZZ_SCHEDULE_QUALNAME: tools.loomsan.schedule.FuzzSchedule" in proc.stderr


def test_subtree_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """loomlint analyses the project: a path list that leaves configured
    names out (here, everything but one package) cannot run the rules."""
    project = project_copy(tmp_path)
    proc = loomlint_cli(monkeypatch, capsys, project, "src/repro/scope")
    assert proc.returncode == 2
    assert "READER_ROOTS" in proc.stderr


def test_list_rules_covers_registry(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tools.loomlint", "--list-rules"],
        cwd=str(tmp_path),
        env=dict(os.environ, PYTHONPATH=_REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(RULES) == 24
    for code in RULES:
        assert code in proc.stdout
