"""loomsan: dynamic sanitizers for the Loom core.

The static half of the correctness stack (loomlint, mypy) proves shape;
this module checks *behavior*, continuously:

* :class:`RaceDetector` — a vector-clock happens-before checker that
  consumes the yield-point event stream (:mod:`repro.core.yieldpoints`)
  and models the seqlock's publish/acquire edges: block map/write/recycle
  release into a per-block publish clock, a reader's bounds load acquires
  it, and watermark stores/loads do the same for each hybrid log.  Any
  *validated* ``try_copy`` whose bytes came from a write not ordered
  before the reader is flagged as a race.  It attaches to scenarios run
  by the exhaustive :class:`~tools.loomsan.schedule.InterleavingExplorer`
  or the randomized :class:`~tools.loomsan.schedule.ScheduleFuzzer`.
* :class:`ShadowLog` — a trivially-correct reference model (per-source
  Python lists) mirroring every ``push``/``push_many``/schema operation
  on a :class:`~repro.core.record_log.RecordLog`, with differential
  oracles (:func:`verify_log`) asserting ``raw_scan`` ≡ ``indexed_scan``
  ≡ shadow, timestamp-index seeks landing within one entry period,
  ``indexed_aggregate``/percentile answers inside the bounds derivable
  from chunk-summary bins, and the columnar ``region_columns`` decode
  field-identical to the scalar record iterator.
* :func:`install` — monkey-wraps ``RecordLog`` so every instance carries
  a shadow, cheap invariants run at each ``sync`` and the full
  differential oracle at ``close``.  The whole tier-1 suite runs
  sanitized this way under ``LOOMSAN=1`` (see ``tests/conftest.py``).

Nothing under ``src/repro`` imports this module (enforced statically by
loomlint LOOM108): production pays only for the yield points, which are
inert without a hook or observer.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import weakref
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.clock import Clock
from repro.core.config import LoomConfig
from repro.core.errors import LoomError
from repro.core.histogram import HistogramSpec, IndexDefinition, IndexFunc
from repro.core.hybridlog import NULL_ADDRESS, Health
from repro.core.archive import MigrationReport, RetentionReport
from repro.core.record_log import RecordLog, SourceState
from repro.core.snapshot import Snapshot

__all__ = [
    "RaceDetector",
    "SanitizerError",
    "ShadowLog",
    "ShadowRecord",
    "enabled_via_env",
    "install",
    "installed",
    "shadow_of",
    "uninstall",
    "verify_log",
]


class SanitizerError(LoomError):
    """A differential oracle or cheap invariant found a divergence."""


# ----------------------------------------------------------------------
# Vector-clock happens-before race detection
# ----------------------------------------------------------------------
VectorClock = Dict[int, int]


def _join_into(dst: VectorClock, src: VectorClock) -> None:
    for key, value in src.items():
        if value > dst.get(key, 0):
            dst[key] = value


def _leq(a: VectorClock, b: VectorClock) -> bool:
    return all(value <= b.get(key, 0) for key, value in a.items())


def _as_int(info: Dict[str, object], key: str) -> Optional[int]:
    value = info.get(key)
    return value if isinstance(value, int) else None


@dataclass
class _Write:
    """The last observed write to one block byte offset."""

    vc: VectorClock
    thread: str


@dataclass
class _Pending:
    """A copy made by a reader, awaiting seqlock validation."""

    address: int
    length: int
    conflicts: List[Tuple[int, _Write]]


@dataclass
class _BlockState:
    index: int
    publish_vc: VectorClock = field(default_factory=dict)
    writes: Dict[int, _Write] = field(default_factory=dict)
    pending: Dict[int, _Pending] = field(default_factory=dict)


@dataclass
class _LogState:
    index: int
    publish_vc: VectorClock = field(default_factory=dict)


class RaceDetector:
    """Happens-before checker over the seqlock's publish/acquire edges.

    The model (release → acquire, per object):

    ====================================  =======================================
    event (release)                       event (acquire)
    ====================================  =======================================
    ``block.map`` / ``block.write.stored``
    / ``block.recycle.cleared`` /
    ``block.recycle.done``                ``block.try_copy.bounds``
    ``hybridlog.publish.stored``          ``hybridlog.read.begin`` /
                                          ``snapshot.capture``
    ====================================  =======================================

    Each ``block.write.stored`` additionally stamps the written byte
    offsets with the writer's clock.  When a ``try_copy`` *validates*
    (``block.try_copy.validated``), every copied byte's producing write
    must be ordered before the reader's clock as of the copy; otherwise
    the validation accepted bytes from the block's next life — the exact
    failure the seqlock version bumps exist to prevent.  A copy that
    fails validation (``block.try_copy.invalid``) is discarded without
    complaint: retrying is the contract, not a race.

    Implements the :class:`~tools.loomsan.schedule.ScenarioObserver`
    protocol, so it can ride along any explorer or fuzzer scenario via
    ``Scenario(observers=[detector])``.
    """

    def __init__(self) -> None:
        self._clocks: Dict[int, VectorClock] = {}
        self._blocks: Dict[int, _BlockState] = {}
        self._logs: Dict[int, _LogState] = {}
        #: Strong refs to observed objects so ``id()`` keys stay unique.
        self._keepalive: List[object] = []
        self.races: List[str] = []
        self.events: int = 0

    # -- bookkeeping ----------------------------------------------------
    def _tick(self, tid: int) -> VectorClock:
        vc = self._clocks.get(tid)
        if vc is None:
            vc = {}
            self._clocks[tid] = vc
        vc[tid] = vc.get(tid, 0) + 1
        return vc

    def _block(self, info: Dict[str, object]) -> Optional[_BlockState]:
        obj = info.get("block")
        if obj is None:
            return None
        state = self._blocks.get(id(obj))
        if state is None:
            state = _BlockState(index=len(self._blocks))
            self._blocks[id(obj)] = state
            self._keepalive.append(obj)
        return state

    def _log(self, info: Dict[str, object]) -> Optional[_LogState]:
        obj = info.get("log")
        if obj is None:
            return None
        state = self._logs.get(id(obj))
        if state is None:
            state = _LogState(index=len(self._logs))
            self._logs[id(obj)] = state
            self._keepalive.append(obj)
        return state

    # -- ScenarioObserver -----------------------------------------------
    def on_event(self, label: str, info: Dict[str, object]) -> None:
        self.events += 1
        tid = threading.get_ident()
        vc = self._tick(tid)
        thread_name = threading.current_thread().name

        if label in (
            "block.map",
            "block.write.stored",
            "block.recycle.cleared",
            "block.recycle.done",
        ):
            block = self._block(info)
            if block is None:
                return
            _join_into(block.publish_vc, vc)
            if label == "block.write.stored":
                offset = _as_int(info, "offset")
                length = _as_int(info, "length")
                if offset is not None and length is not None:
                    stamp = dict(vc)
                    write = _Write(vc=stamp, thread=thread_name)
                    for off in range(offset, offset + length):
                        block.writes[off] = write
        elif label == "block.try_copy.bounds":
            block = self._block(info)
            if block is not None:
                _join_into(vc, block.publish_vc)  # acquire
        elif label == "block.try_copy.copied":
            block = self._block(info)
            address = _as_int(info, "address")
            base = _as_int(info, "base")
            length = _as_int(info, "length")
            if block is None or address is None or base is None or length is None:
                return
            start = address - base
            conflicts: List[Tuple[int, _Write]] = []
            for off in range(start, start + length):
                write = block.writes.get(off)
                if write is not None and not _leq(write.vc, vc):
                    conflicts.append((off, write))
            block.pending[tid] = _Pending(
                address=address, length=length, conflicts=conflicts
            )
        elif label == "block.try_copy.validated":
            block = self._block(info)
            if block is None:
                return
            pending = block.pending.pop(tid, None)
            if pending is None:
                return
            for off, write in pending.conflicts:
                self.races.append(
                    f"validated copy of [{pending.address}, "
                    f"{pending.address + pending.length}) by {thread_name!r} "
                    f"includes block#{block.index} byte offset {off} from an "
                    f"unordered write by {write.thread!r} (no happens-before "
                    f"edge orders the write before the read)"
                )
        elif label == "block.try_copy.invalid":
            block = self._block(info)
            if block is not None:
                block.pending.pop(tid, None)
        elif label == "hybridlog.publish.stored":
            log = self._log(info)
            if log is not None:
                _join_into(log.publish_vc, vc)
        elif label in ("hybridlog.read.begin", "snapshot.capture"):
            log = self._log(info)
            if log is not None:
                _join_into(vc, log.publish_vc)  # acquire

    def finish(self) -> Optional[str]:
        if not self.races:
            return None
        return (
            f"race detector: {len(self.races)} unordered read(s); "
            f"first: {self.races[0]}"
        )


# ----------------------------------------------------------------------
# Shadow reference model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShadowRecord:
    """One mirrored record: exactly what the real log must reproduce."""

    timestamp: int
    payload: bytes
    address: int


@dataclass
class ShadowIndex:
    """Mirror of one histogram index definition."""

    index_id: int
    source_id: int
    index_func: IndexFunc
    spec: HistogramSpec
    #: Shadow record count of the source when the index was defined.
    #: Indexing is forward-only (paper section 5.3): exact result-set
    #: equality holds only when ``birth == 0``; otherwise the oracle
    #: checks containment bounds instead.
    birth: int


class ShadowLog:
    """Trivially-correct reference model of the RecordLog ingest surface.

    Every mutating public method of :class:`RecordLog` has an ``on_*``
    mirror here (loomlint LOOM109 enforces totality), each a few lines
    of obviously-correct Python over plain lists and dicts.  Divergence
    between the real structure and this model is, by construction, a bug
    in the real structure.
    """

    def __init__(self) -> None:
        self.records: Dict[int, List[ShadowRecord]] = {}
        self.closed_sources: Set[int] = set()
        self.indexes: Dict[int, ShadowIndex] = {}
        #: True once reseeded from a recovered log.  Recovery legitimately
        #: loses timestamp-index RECORD entries that were staged but not
        #: flushed at crash time, so the one-entry-period seek bound is
        #: not claimable afterwards.
        self.reseeded = False
        self.closed = False
        #: Retention floor mirrored from apply_retention / reopen: records
        #: below it were trimmed from the per-source mirrors.
        self.chain_floor = 0
        #: Records trimmed by retention, per source — the real per-source
        #: counts are lifetime counts, so the count oracle adds these back.
        self.removed: Dict[int, int] = {}
        #: Trimmed records from summary-only (downsample-kept) chunks.
        #: Scans no longer return them, but fully-in-range aggregates and
        #: histograms still count them exactly via the resident summaries.
        self.agg_records: Dict[int, List[ShadowRecord]] = {}
        #: False once the summary-only pool is unknowable (reseed from a
        #: retention-floored log) — aggregate oracles degrade to bounds.
        self.agg_exact = True

    # -- mirrors of the public ingest surface ---------------------------
    def on_define_source(self, source_id: int) -> None:
        self.records.setdefault(source_id, [])
        self.closed_sources.discard(source_id)

    def on_close_source(self, source_id: int) -> None:
        self.closed_sources.add(source_id)
        for index in list(self.indexes.values()):
            if index.source_id == source_id:
                self.indexes.pop(index.index_id, None)

    def on_define_index(
        self,
        index_id: int,
        source_id: int,
        index_func: IndexFunc,
        spec: HistogramSpec,
    ) -> None:
        self.indexes[index_id] = ShadowIndex(
            index_id=index_id,
            source_id=source_id,
            index_func=index_func,
            spec=spec,
            birth=len(self.records.get(source_id, [])),
        )

    def on_close_index(self, index_id: int) -> None:
        self.indexes.pop(index_id, None)

    def on_push(
        self, source_id: int, timestamp: int, payload: bytes, address: int
    ) -> None:
        self.records[source_id].append(
            ShadowRecord(timestamp=timestamp, payload=bytes(payload), address=address)
        )

    def on_push_many(
        self,
        source_id: int,
        timestamp: int,
        payloads: Sequence[bytes],
        addresses: Sequence[int],
    ) -> None:
        mirror = self.records[source_id]
        for payload, address in zip(payloads, addresses):
            mirror.append(
                ShadowRecord(
                    timestamp=timestamp, payload=bytes(payload), address=address
                )
            )

    def on_sync(self) -> None:
        # Publication changes visibility, not contents; the differential
        # oracle re-derives visibility from the real watermark.
        pass

    def on_migrate(self, record_log: RecordLog) -> None:
        """Migration moves bytes between tiers without changing contents.

        The mirror stays as-is; the install wrapper re-runs the full
        differential oracle right after, which is exactly the cold-tier
        totality claim: every answer must be identical across the
        migration boundary.
        """

    def on_apply_retention(self, record_log: RecordLog) -> None:
        """Trim mirrored records below the new retention floor.

        Records from downsample-kept (summary-only) chunks move into the
        per-source aggregate pool: scans must no longer return them, but
        whole-range aggregates and histograms still count them exactly
        from the resident summaries.  Everything else below the floor is
        gone for good; the per-source trim counts keep the lifetime-count
        oracle balanced.
        """
        floor = record_log.retention_floor
        if floor <= self.chain_floor:
            return
        self.chain_floor = floor
        # Address ranges of chunks that kept their summaries (scannable
        # or not, the mirror only needs the summary-only ones — and all
        # non-retired chunks above the floor keep their records anyway).
        index = record_log.chunk_index
        kept_ranges: List[Tuple[int, int]] = []
        for i in range(len(index)):
            summary = index.get(i)
            if summary.end_addr > floor:
                break
            if not index.is_scannable(summary.chunk_id):
                if index.summary_for_chunk(summary.chunk_id) is not None:
                    kept_ranges.append((summary.start_addr, summary.end_addr))
        starts = [lo for lo, _hi in kept_ranges]
        for source_id, mirror in self.records.items():
            cut = bisect.bisect_left([r.address for r in mirror], floor)
            if cut == 0:
                continue
            trimmed = mirror[:cut]
            del mirror[:cut]
            self.removed[source_id] = self.removed.get(source_id, 0) + len(trimmed)
            pool = self.agg_records.setdefault(source_id, [])
            for record in trimmed:
                i = bisect.bisect_right(starts, record.address) - 1
                if i >= 0 and record.address < kept_ranges[i][1]:
                    pool.append(record)

    def on_close(self) -> None:
        self.closed = True

    def on_reopen(self, record_log: RecordLog) -> None:
        """Reseed the model from a recovered log's persisted contents.

        A crash legitimately loses un-flushed records; after recovery the
        *surviving* records are the new ground truth, so the shadow is
        rebuilt from a full scan rather than carried across the restart.
        """
        self.records = {sid: [] for sid in record_log.source_ids()}
        watermark = record_log.log.watermark
        floor = record_log.retention_floor
        for record in record_log.iter_records_between(floor, watermark):
            self.records.setdefault(record.source_id, []).append(
                ShadowRecord(
                    timestamp=record.timestamp,
                    payload=bytes(record.payload),
                    address=record.address,
                )
            )
        self.closed_sources = {
            sid
            for sid in record_log.source_ids()
            if record_log.get_source(sid).closed
        }
        self.indexes = {}
        self.reseeded = True
        self.chain_floor = floor
        if floor > 0:
            # Summary-only records below the floor are unrecoverable (the
            # raw bytes are gone; only their bins survive), so aggregate
            # oracles can claim bounds, not equality, from here on.
            self.agg_exact = False


# ----------------------------------------------------------------------
# Differential oracles
# ----------------------------------------------------------------------
#: Sources larger than this skip the O(n) full-scan oracles at close
#: (count/head invariants still hold); keeps LOOMSAN runs tractable.
FULL_CHECK_CAP = 4096

#: How many newest records the capped raw-scan comparison still checks.
CAPPED_SCAN_DEPTH = 1024

#: Regions larger than this skip the full columnar-vs-scalar decode oracle.
COLUMNAR_CHECK_CAP = 1 << 20

_PERCENTILES = (0.0, 50.0, 95.0, 100.0)


def _check_counts(
    record_log: RecordLog, shadow: ShadowLog, failures: List[str]
) -> None:
    """Cheap invariants: per-source counts and chain heads match.

    Real per-source counts are *lifetime* counts (retention does not
    decrement them), so records the shadow trimmed at the floor are added
    back.  A source whose every record was retired keeps its last (dead)
    chain head in the real log; the head claim is vacuous then.
    """
    for source_id, mirror in shadow.records.items():
        try:
            state: SourceState = record_log.get_source(source_id)
        except LoomError:
            failures.append(f"source {source_id} missing from the real log")
            continue
        removed = shadow.removed.get(source_id, 0)
        if state.record_count != len(mirror) + removed:
            failures.append(
                f"source {source_id}: record_count {state.record_count} != "
                f"shadow count {len(mirror)} + {removed} retired"
            )
        if not mirror and removed:
            continue
        expected_head = mirror[-1].address if mirror else NULL_ADDRESS
        if state.last_addr != expected_head:
            failures.append(
                f"source {source_id}: chain head {state.last_addr} != "
                f"shadow head {expected_head}"
            )


def _check_columnar_decode(
    record_log: RecordLog, snapshot: Snapshot, failures: List[str]
) -> None:
    """Columnar header decode ≡ scalar record decode, field by field.

    ``region_columns`` (the vectorized scan substrate) must reproduce
    exactly the records the trivially-correct scalar iterator yields:
    same count, and identical (source, timestamp, prev, address, payload)
    per record.  Below the cold boundary the columns are sliced from the
    archive's numpy frame decode, while the scalar iterator walks the
    bytes re-framed from them (``encode_region``).  Skipped for very
    large logs to keep LOOMSAN tractable.
    """
    start = record_log.retention_floor
    end = snapshot.watermark
    if end <= start or end - start > COLUMNAR_CHECK_CAP:
        return
    columns = snapshot.region_columns(start, end)
    assert columns is not None  # the region is non-empty
    scalar = list(record_log.iter_records_between(start, end))
    if len(columns) != len(scalar):
        failures.append(
            f"region_columns decoded {len(columns)} records where the "
            f"scalar iterator found {len(scalar)}"
        )
        return
    addresses = columns.addresses
    for i, record in enumerate(scalar):
        if (
            int(columns.source_ids[i]) != record.source_id
            or int(columns.timestamps[i]) != record.timestamp
            or int(columns.prev_addrs[i]) != record.prev_addr
            or int(addresses[i]) != record.address
            or columns.payload_view(i) != record.payload
        ):
            failures.append(
                f"region_columns diverges from the scalar decode at record "
                f"{i} (address {record.address})"
            )
            return


def _expected_newest_first(mirror: List[ShadowRecord]) -> Iterable[
    Tuple[int, bytes, int]
]:
    return ((r.timestamp, r.payload, r.address) for r in reversed(mirror))


def _check_raw_scan(
    snapshot: Snapshot,
    source_id: int,
    mirror: List[ShadowRecord],
    t_end: int,
    failures: List[str],
) -> None:
    from repro.core.operators import raw_scan

    capped = len(mirror) > FULL_CHECK_CAP
    depth = CAPPED_SCAN_DEPTH if capped else len(mirror)
    got = [
        (r.timestamp, bytes(r.payload), r.address)
        for r in islice(raw_scan(snapshot, source_id, 0, t_end), depth)
    ]
    want = list(islice(_expected_newest_first(mirror), depth))
    if got != want:
        failures.append(
            f"source {source_id}: raw_scan diverges from shadow "
            f"(first {depth} newest records; got {len(got)} rows, "
            f"want {len(want)})"
        )


def _check_indexed_scan(
    snapshot: Snapshot,
    index: ShadowIndex,
    mirror: List[ShadowRecord],
    t_end: int,
    failures: List[str],
) -> None:
    from repro.core.operators import indexed_scan

    definition = IndexDefinition(
        index_id=index.index_id,
        source_id=index.source_id,
        index_func=index.index_func,
        spec=index.spec,
    )
    got = [
        r.address
        for r in indexed_scan(snapshot, index.source_id, definition, 0, t_end)
    ]
    all_addrs = [r.address for r in mirror]
    if index.birth == 0:
        if got != all_addrs:
            failures.append(
                f"index {index.index_id} on source {index.source_id}: "
                f"indexed_scan returned {len(got)} records, shadow has "
                f"{len(all_addrs)}, or the order diverged"
            )
        return
    # Forward-only indexing: the scan may miss records from chunks sealed
    # before the index existed, but must cover everything after ``birth``
    # and never invent records.
    got_set = set(got)
    post = set(all_addrs[index.birth :])
    universe = set(all_addrs)
    if not post <= got_set:
        failures.append(
            f"index {index.index_id}: indexed_scan is missing "
            f"{len(post - got_set)} record(s) indexed since the index "
            f"was defined"
        )
    if not got_set <= universe:
        failures.append(
            f"index {index.index_id}: indexed_scan returned "
            f"{len(got_set - universe)} record(s) the shadow never saw"
        )


def _check_seeks(
    record_log: RecordLog,
    source_id: int,
    mirror: List[ShadowRecord],
    failures: List[str],
) -> None:
    """Timestamp-index seeks must land within one entry period."""
    if not mirror:
        return
    interval = record_log.config.timestamp_interval
    timestamps = [r.timestamp for r in mirror]
    addresses = [r.address for r in mirror]
    probes = {
        timestamps[0] - 1,
        timestamps[0],
        timestamps[len(timestamps) // 2],
        timestamps[-1] - 1,
        timestamps[-1],
    }
    for probe in probes:
        hit = record_log.timestamp_index.first_record_after(source_id, probe)
        first_after = bisect.bisect_right(timestamps, probe)
        if hit is None:
            if len(mirror) - first_after >= interval:
                failures.append(
                    f"source {source_id}: seek(t>{probe}) found nothing but "
                    f"{len(mirror) - first_after} newer records exist "
                    f"(>= one entry period of {interval})"
                )
            continue
        hit_ts, hit_addr = hit
        pos = bisect.bisect_left(addresses, hit_addr)
        if pos >= len(addresses) or addresses[pos] != hit_addr:
            failures.append(
                f"source {source_id}: seek(t>{probe}) points at address "
                f"{hit_addr} which the shadow never saw"
            )
            continue
        if mirror[pos].timestamp != hit_ts or hit_ts <= probe:
            failures.append(
                f"source {source_id}: seek(t>{probe}) returned "
                f"(ts={hit_ts}, addr={hit_addr}) inconsistent with the "
                f"shadow record at that address"
            )
            continue
        if pos - first_after >= interval:
            failures.append(
                f"source {source_id}: seek(t>{probe}) overshot by "
                f"{pos - first_after} records (>= one entry period of "
                f"{interval})"
            )


def _nearest_rank(sorted_values: List[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _check_aggregates(
    snapshot: Snapshot,
    index: ShadowIndex,
    mirror: List[ShadowRecord],
    t_end: int,
    failures: List[str],
    agg_pool: Sequence[ShadowRecord] = (),
    agg_exact: bool = True,
) -> None:
    from repro.core.operators import bin_histogram, indexed_aggregate

    definition = IndexDefinition(
        index_id=index.index_id,
        source_id=index.source_id,
        index_func=index.index_func,
        spec=index.spec,
    )
    source_id = index.source_id
    values = [index.index_func(r.payload) for r in mirror]

    if index.birth > 0:
        if agg_pool or not agg_exact:
            # Forward-only indexing *and* retention below the floor: no
            # usefully tight bound remains claimable.
            return
        # Bounds only: at least the post-definition records are counted,
        # never more than the shadow holds.
        agg = indexed_aggregate(snapshot, source_id, definition, 0, t_end, "count")
        post = len(values) - index.birth
        if not post <= agg.count <= len(values):
            failures.append(
                f"index {index.index_id}: count {agg.count} outside shadow "
                f"bounds [{post}, {len(values)}]"
            )
        return

    if agg_pool or not agg_exact:
        # Retention trimmed the mirror.  Whole-range distributive
        # aggregates stay exact when the summary-only pool is known
        # (records fold in via resident summary bins); after a reopen the
        # pool is unknowable and only a lower bound holds.  Percentiles
        # are approximated in-bin for summary-only chunks, so their exact
        # oracle is not claimable either way.
        pool_values = [index.index_func(r.payload) for r in agg_pool]
        all_values = pool_values + values
        agg = indexed_aggregate(snapshot, source_id, definition, 0, t_end, "count")
        if not agg_exact:
            if agg.count < len(values):
                failures.append(
                    f"index {index.index_id}: count {agg.count} below the "
                    f"{len(values)} live records the shadow holds"
                )
            return
        if agg.count != len(all_values):
            failures.append(
                f"index {index.index_id}: count {agg.count} != shadow "
                f"{len(values)} live + {len(pool_values)} summary-only"
            )
            return
        if not all_values:
            return
        for method, expected in (
            ("sum", math.fsum(all_values)),
            ("min", min(all_values)),
            ("max", max(all_values)),
            ("mean", math.fsum(all_values) / len(all_values)),
        ):
            agg = indexed_aggregate(
                snapshot, source_id, definition, 0, t_end, method
            )
            got = agg.value
            if got is None or not math.isclose(
                got, expected, rel_tol=1e-9, abs_tol=1e-9
            ):
                failures.append(
                    f"index {index.index_id}: {method} {got!r} != shadow "
                    f"{expected!r} (live + summary-only)"
                )
        shadow_hist: Dict[int, int] = {}
        for value in all_values:
            b = index.spec.bin_of(value)
            shadow_hist[b] = shadow_hist.get(b, 0) + 1
        got_hist = {
            b: n
            for b, n in bin_histogram(
                snapshot, source_id, definition, 0, t_end
            ).items()
            if n
        }
        if got_hist != shadow_hist:
            failures.append(
                f"index {index.index_id}: bin_histogram {got_hist!r} != "
                f"shadow {shadow_hist!r} (live + summary-only)"
            )
        return

    agg = indexed_aggregate(snapshot, source_id, definition, 0, t_end, "count")
    if agg.count != len(values):
        failures.append(
            f"index {index.index_id}: count {agg.count} != shadow "
            f"{len(values)}"
        )
        return
    if not values:
        return
    for method, expected in (
        ("sum", math.fsum(values)),
        ("min", min(values)),
        ("max", max(values)),
        ("mean", math.fsum(values) / len(values)),
    ):
        agg = indexed_aggregate(snapshot, source_id, definition, 0, t_end, method)
        got = agg.value
        exact = method in ("min", "max")
        ok = (
            got is not None
            and (
                got == expected
                if exact
                else math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)
            )
        )
        if not ok:
            failures.append(
                f"index {index.index_id}: {method} {got!r} != shadow "
                f"{expected!r}"
            )

    sorted_values = sorted(values)
    for percentile in _PERCENTILES:
        agg = indexed_aggregate(
            snapshot,
            source_id,
            definition,
            0,
            t_end,
            "percentile",
            percentile=percentile,
        )
        expected = _nearest_rank(sorted_values, percentile)
        if agg.value != expected:
            failures.append(
                f"index {index.index_id}: p{percentile} {agg.value!r} != "
                f"shadow nearest-rank {expected!r}"
            )
            continue
        # Belt and braces: the answer must sit inside the value range of
        # its own histogram bin — the error bound the chunk-summary bins
        # make derivable (circllhist-style mergeable bins).
        lo, hi = index.spec.bin_range(index.spec.bin_of(expected))
        if not lo <= expected <= hi:
            failures.append(
                f"index {index.index_id}: p{percentile} {expected!r} "
                f"escapes its bin bounds [{lo}, {hi}]"
            )

    shadow_hist: Dict[int, int] = {}
    for value in values:
        b = index.spec.bin_of(value)
        shadow_hist[b] = shadow_hist.get(b, 0) + 1
    got_hist = {
        b: n
        for b, n in bin_histogram(snapshot, source_id, definition, 0, t_end).items()
        if n
    }
    if got_hist != shadow_hist:
        failures.append(
            f"index {index.index_id}: bin_histogram {got_hist!r} != shadow "
            f"{shadow_hist!r}"
        )


def verify_log(
    record_log: RecordLog, shadow: ShadowLog, check_seeks: bool = True
) -> List[str]:
    """Run every differential oracle; return human-readable divergences.

    Callers must publish first (``sync``/``close`` do) so the snapshot
    covers everything the shadow mirrored.  Returns ``[]`` when the real
    structures and the reference model agree; skips entirely when the
    log is not HEALTHY, because fault injection makes divergence the
    *expected* outcome.
    """
    if record_log.health() != Health.HEALTHY:
        return []
    failures: List[str] = []
    _check_counts(record_log, shadow, failures)
    snapshot = Snapshot.capture(record_log)
    _check_columnar_decode(record_log, snapshot, failures)
    for source_id, mirror in shadow.records.items():
        if source_id not in snapshot.heads:
            continue
        t_end = mirror[-1].timestamp if mirror else 0
        pool = shadow.agg_records.get(source_id, [])
        if pool and not mirror:
            # Everything live was retired; aggregates still answer from
            # the resident summaries up to the last pooled timestamp.
            t_end = pool[-1].timestamp
        _check_raw_scan(snapshot, source_id, mirror, t_end, failures)
        if check_seeks and not shadow.reseeded and shadow.chain_floor == 0:
            # Seek probes address records below the retention floor; once
            # retention retired any prefix the probe set is no longer a
            # uniform sample of live data, so the oracle stands down.
            _check_seeks(record_log, source_id, mirror, failures)
        if len(mirror) > FULL_CHECK_CAP:
            continue
        for index in shadow.indexes.values():
            if index.source_id != source_id:
                continue
            _check_indexed_scan(snapshot, index, mirror, t_end, failures)
            _check_aggregates(
                snapshot,
                index,
                mirror,
                t_end,
                failures,
                agg_pool=pool,
                agg_exact=shadow.agg_exact,
            )
    return failures


# ----------------------------------------------------------------------
# LOOMSAN=1 instrumentation: wrap RecordLog with a shadow per instance
# ----------------------------------------------------------------------
_shadows: "weakref.WeakKeyDictionary[RecordLog, ShadowLog]" = (
    weakref.WeakKeyDictionary()
)
_originals: Dict[str, Callable[..., object]] = {}
_installed = False


def enabled_via_env() -> bool:
    """True when the process opted into sanitized runs with LOOMSAN=1."""
    return os.environ.get("LOOMSAN") == "1"


def installed() -> bool:
    return _installed


def shadow_of(record_log: RecordLog) -> Optional[ShadowLog]:
    """The shadow mirroring ``record_log``, if instrumentation is on."""
    return _shadows.get(record_log)


def _verdict(failures: List[str]) -> "None":
    if failures:
        raise SanitizerError(
            f"{len(failures)} divergence(s) between the real log and the "
            f"shadow model: " + "; ".join(failures[:5])
        )


def install() -> None:
    """Wrap :class:`RecordLog` so every instance runs against a shadow.

    Idempotent.  Guarded by the ``LOOMSAN`` environment variable at the
    call sites (conftest, CLI); production code never reaches here.
    """
    global _installed
    if _installed:
        return

    orig_init = RecordLog.__init__
    orig_define_source = RecordLog.define_source
    orig_close_source = RecordLog.close_source
    orig_define_index = RecordLog.define_index
    orig_close_index = RecordLog.close_index
    orig_push = RecordLog.push
    orig_push_many = RecordLog.push_many
    orig_sync = RecordLog.sync
    orig_migrate = RecordLog.migrate
    orig_apply_retention = RecordLog.apply_retention
    orig_close = RecordLog.close
    orig_reopen = RecordLog.__dict__["reopen"].__func__
    _originals.update(
        init=orig_init,
        define_source=orig_define_source,
        close_source=orig_close_source,
        define_index=orig_define_index,
        close_index=orig_close_index,
        push=orig_push,
        push_many=orig_push_many,
        sync=orig_sync,
        migrate=orig_migrate,
        apply_retention=orig_apply_retention,
        close=orig_close,
        reopen=orig_reopen,
    )

    def init(self: RecordLog, *args: object, **kwargs: object) -> None:
        orig_init(self, *args, **kwargs)  # type: ignore[arg-type]
        _shadows[self] = ShadowLog()

    def define_source(self: RecordLog, source_id: int) -> SourceState:
        state = orig_define_source(self, source_id)
        shadow = _shadows.get(self)
        if shadow is not None:
            shadow.on_define_source(source_id)
        return state

    def close_source(self: RecordLog, source_id: int) -> None:
        orig_close_source(self, source_id)
        shadow = _shadows.get(self)
        if shadow is not None:
            shadow.on_close_source(source_id)

    def define_index(
        self: RecordLog,
        source_id: int,
        index_func: IndexFunc,
        spec: HistogramSpec,
    ) -> int:
        index_id = orig_define_index(self, source_id, index_func, spec)
        shadow = _shadows.get(self)
        if shadow is not None:
            shadow.on_define_index(index_id, source_id, index_func, spec)
        return index_id

    def close_index(self: RecordLog, index_id: int) -> None:
        orig_close_index(self, index_id)
        shadow = _shadows.get(self)
        if shadow is not None:
            shadow.on_close_index(index_id)

    def push(self: RecordLog, source_id: int, payload: bytes) -> int:
        address = orig_push(self, source_id, payload)
        shadow = _shadows.get(self)
        if shadow is not None:
            timestamp = self.get_source(source_id).last_timestamp
            shadow.on_push(source_id, timestamp, payload, address)
        return address

    def push_many(
        self: RecordLog, source_id: int, payloads: Sequence[bytes]
    ) -> List[int]:
        addresses = orig_push_many(self, source_id, payloads)
        shadow = _shadows.get(self)
        if shadow is not None and addresses:
            timestamp = self.get_source(source_id).last_timestamp
            shadow.on_push_many(source_id, timestamp, payloads, addresses)
        return addresses

    def sync(self: RecordLog, source_id: Optional[int] = None) -> None:
        orig_sync(self, source_id)
        shadow = _shadows.get(self)
        if shadow is not None and self.health() == Health.HEALTHY:
            shadow.on_sync()
            failures: List[str] = []
            _check_counts(self, shadow, failures)
            _verdict(failures)

    def migrate(self: RecordLog, force: bool = True) -> "MigrationReport":
        report = orig_migrate(self, force=force)
        shadow = _shadows.get(self)
        if shadow is not None and self.health() == Health.HEALTHY:
            shadow.on_migrate(self)
            # Cold-tier totality: migration must not change any answer, so
            # the full oracle reruns against the unchanged shadow.
            _verdict(verify_log(self, shadow))
        return report

    def apply_retention(
        self: RecordLog, now: Optional[int] = None
    ) -> "RetentionReport":
        report = orig_apply_retention(self, now=now)
        shadow = _shadows.get(self)
        if shadow is not None and self.health() == Health.HEALTHY:
            shadow.on_apply_retention(self)
            _verdict(verify_log(self, shadow))
        return report

    def close(self: RecordLog) -> None:
        shadow = _shadows.get(self)
        if shadow is None or self._closed or shadow.closed:
            orig_close(self)
            return
        failures: List[str] = []
        if self.health() == Health.HEALTHY:
            # Publish first so the oracle's snapshot covers everything
            # the shadow mirrored, then verify against live blocks+storage.
            orig_sync(self, None)
            failures = verify_log(self, shadow)
        orig_close(self)
        shadow.on_close()
        _verdict(failures)

    def reopen(
        cls: type,
        config: Optional[LoomConfig] = None,
        clock: Optional[Clock] = None,
        repair: bool = True,
        verify: bool = True,
    ) -> RecordLog:
        log: RecordLog = orig_reopen(
            cls, config=config, clock=clock, repair=repair, verify=verify
        )
        shadow = ShadowLog()
        shadow.on_reopen(log)
        _shadows[log] = shadow
        return log

    setattr(RecordLog, "__init__", init)
    setattr(RecordLog, "define_source", define_source)
    setattr(RecordLog, "close_source", close_source)
    setattr(RecordLog, "define_index", define_index)
    setattr(RecordLog, "close_index", close_index)
    setattr(RecordLog, "push", push)
    setattr(RecordLog, "push_many", push_many)
    setattr(RecordLog, "sync", sync)
    setattr(RecordLog, "migrate", migrate)
    setattr(RecordLog, "apply_retention", apply_retention)
    setattr(RecordLog, "close", close)
    setattr(RecordLog, "reopen", classmethod(reopen))
    _installed = True


def uninstall() -> None:
    """Undo :func:`install` (test isolation helper)."""
    global _installed
    if not _installed:
        return
    setattr(RecordLog, "__init__", _originals["init"])
    setattr(RecordLog, "define_source", _originals["define_source"])
    setattr(RecordLog, "close_source", _originals["close_source"])
    setattr(RecordLog, "define_index", _originals["define_index"])
    setattr(RecordLog, "close_index", _originals["close_index"])
    setattr(RecordLog, "push", _originals["push"])
    setattr(RecordLog, "push_many", _originals["push_many"])
    setattr(RecordLog, "sync", _originals["sync"])
    setattr(RecordLog, "migrate", _originals["migrate"])
    setattr(RecordLog, "apply_retention", _originals["apply_retention"])
    setattr(RecordLog, "close", _originals["close"])
    setattr(RecordLog, "reopen", classmethod(_originals["reopen"]))
    _originals.clear()
    _shadows.clear()
    _installed = False
