"""Shared machinery and the three in-process workloads.

Every workload follows one shape: set-up (done :data:`SETUP_PASSES` times,
the median is ``setup_s``), a timed phase of ``--seconds`` whose samples
are each checked against the reference outside their own timed section,
and a few fixed-size *secondary* measurements taken from work the workload
does anyway (see README.md, "Primary and secondary cells").  Load comes
from one thread of this process.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro.core import Loom, LoomConfig, TierConfig, VirtualClock
from repro.core.record import HEADER_SIZE

from .dataset import (
    BATCH,
    INDEX_EDGES,
    INDEXED_SOURCES,
    NEEDLE_QUERY_MIN,
    PAYLOAD_BYTES,
    QUERY_SOURCE,
    SOURCES,
    TICK_NS,
    Dataset,
    Oracle,
    Query,
    check_result,
    query_plan,
    value_of,
)
from .spans import Tracer

SETUP_PASSES = 5
CHUNK_SIZE = 64 * 1024
BLOCK_SIZE = 4 << 20
FLUSH_POLICY = (
    "inline flush of full 4 MiB staging blocks to files in a fresh directory; "
    "fsync only on close"
)
MIX_ORDER = ("scan_window", "needle", "dense", "agg_summary", "pctl")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Scratch space, statistics, the per-run ledger
# ----------------------------------------------------------------------
class Scratch:
    """Fresh directories under the checkout, removed on exit."""

    def __init__(self) -> None:
        self._parent = os.path.join(REPO_ROOT, ".perf_tmp")
        os.makedirs(self._parent, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=self._parent)
        self._serial = 0

    def fresh(self, label: str) -> str:
        self._serial += 1
        path = os.path.join(self.root, f"{label}-{self._serial}")
        os.makedirs(path)
        return path

    def drop(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(self._parent)


def tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the
    median when the sample is too small to have one above it)."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[max(n - 11, n // 2)]


def quarters(values: List[float]) -> List[float]:
    """Medians of four consecutive slices: the within-run rounds that
    ``compare`` reads a spread from."""
    n = len(values)
    if n < 8:
        return list(values)
    cuts = [n * i // 4 for i in range(5)]
    return [median(values[cuts[i] : cuts[i + 1]]) for i in range(4)]


def to_ms(seconds: float) -> float:
    return 1e3 * seconds


def summarize(
    samples: List[float], convert: Callable[[float], float]
) -> Tuple[float, List[float]]:
    """A metric from its samples: ``convert`` of the median sample, and of
    each quarter's median as the within-run rounds."""
    return convert(median(samples)), [convert(q) for q in quarters(samples)]


def tail_counters(latencies: Dict[str, List[float]], aggregate_kind: str) -> Dict[str, float]:
    """The per-kind ``*.tail_ms`` layer metrics of a query loop."""
    kinds = {
        "scan_window": "scan_window",
        "needle": "needle",
        "dense": "dense",
        "aggregate": aggregate_kind,
        "percentile": "pctl",
    }
    return {f"{name}.tail_ms": to_ms(tail(latencies[kind])) for name, kind in kinds.items()}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Ledger:
    """Operations attempted and failed, and per-kind latency samples."""

    attempted: int = 0
    failed: int = 0
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Summed ``QueryStats`` counters per query kind (exact for a seed).
    work: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def op(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def sample(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def note_work(self, kind: str, stats: Any) -> None:
        work = self.work.setdefault(kind, {})
        for key in (
            "summaries_examined",
            "chunks_skipped",
            "records_scanned",
            "records_matched",
            "cold_chunks_decompressed",
        ):
            work[key] = work.get(key, 0) + getattr(stats, key)


@dataclass
class RunResult:
    """What one workload run hands back to the command line."""

    ledger: Ledger
    #: End-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).
    metrics: Dict[str, float]
    #: Within-run round values per end-to-end metric, for ``compare``.
    rounds: Dict[str, List[float]] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    trace_export: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# The loaded Loom every in-process workload starts from
# ----------------------------------------------------------------------
def loom_config(data_dir: str, metrics_enabled: bool = True) -> LoomConfig:
    return LoomConfig(
        chunk_size=CHUNK_SIZE,
        record_block_size=BLOCK_SIZE,
        data_dir=data_dir,
        metrics_enabled=metrics_enabled,
        tier=TierConfig(auto_migrate=False),
    )


def new_loom(data_dir: str, metrics_enabled: bool = True) -> Tuple[Loom, VirtualClock, int]:
    """A fresh file-backed Loom with the four sources and the ``value``
    index on sources 1 and 2; returns the index id of the query source."""
    clock = VirtualClock()
    loom = Loom(loom_config(data_dir, metrics_enabled), clock=clock)
    index_id = -1
    for source_id in SOURCES:
        loom.define_source(source_id)
        if source_id in INDEXED_SOURCES:
            defined = loom.define_index(source_id, value_of, INDEX_EDGES)
            if source_id == QUERY_SOURCE:
                index_id = defined
    return loom, clock, index_id


class WriteClock:
    """Seconds spent inside ``FileStorage.append``'s ``write(2)``.

    Write throughputs are reported net of this time.  In this sandbox the
    cost of a page-cache write flips between about 0.1 and 1.5 ms per MiB
    in phases several seconds long (the host backs guest memory lazily),
    which moves a gross ``push_many`` rate by a third whatever the program
    does; everything the program itself does to flush — the block copy,
    the journal entry, the bookkeeping — stays inside the measurement, and
    the excluded time is still reported, as ``storage.append.self_s``.
    """

    def __init__(self) -> None:
        self.seconds = 0.0

    def install(self) -> None:
        from repro.core.storage import FileStorage

        inner = FileStorage.append

        def append(storage: Any, data: bytes) -> int:
            started = perf_counter()
            try:
                return inner(storage, data)
            finally:
                self.seconds += perf_counter() - started

        FileStorage.append = append  # type: ignore[method-assign]


WRITE_CLOCK = WriteClock()


def load(loom: Loom, clock: VirtualClock, dataset: Dataset) -> float:
    """Push the whole dataset once (batch path) and sync; returns the
    seconds it took, net of :class:`WriteClock` time."""
    written = WRITE_CLOCK.seconds
    started = perf_counter()
    push_many = loom.push_many
    for source_id, timestamp, payloads in dataset.batches():
        clock.set(timestamp)
        push_many(source_id, payloads)
    loom.sync()
    return perf_counter() - started - (WRITE_CLOCK.seconds - written)


def stored_bytes(loom: Loom) -> int:
    """Log, index, journal and archive bytes the instance holds (the hot
    log counts from the cold boundary up: a migrated prefix is recycled)."""
    footprint = loom.footprint()
    return (
        footprint["hot_bytes"]
        + footprint["archive_log_bytes"]
        + footprint["chunk_index_bytes"]
        + footprint["timestamp_index_bytes"]
        + footprint["journal_bytes"]
    )


@dataclass
class Loaded:
    """The kept set-up pass: the dataset, its reference, a Loom holding it
    — and what every pass measured."""

    dataset: Dataset
    oracle: Oracle
    plan: Dict[str, List[Query]]
    loom: Loom
    clock: VirtualClock
    index_id: int
    setup_durations: List[float]
    load_rates: List[float]
    migrate_rates: List[float]


def setup_loaded(scratch: Scratch, seed: int, n_batches: int, migrate: bool = False) -> Loaded:
    """Generate the inputs, load a fresh Loom with them and (``migrate``)
    move it to the cold tier — :data:`SETUP_PASSES` times, keeping the
    last pass's Loom and every pass's timings."""
    durations: List[float] = []
    load_rates: List[float] = []
    migrate_rates: List[float] = []
    loom: Optional[Loom] = None
    data_dir = ""
    for _ in range(SETUP_PASSES):
        if loom is not None:
            loom.close()
            scratch.drop(data_dir)
        started = perf_counter()
        dataset = Dataset(seed, n_batches)
        oracle = Oracle(dataset)
        plan = query_plan(oracle, seed)
        data_dir = scratch.fresh("loaded")
        loom, clock, index_id = new_loom(data_dir)
        load_rates.append(len(dataset) / load(loom, clock, dataset))
        if migrate:
            migrate_rates.append(migrate_rate(loom))
        durations.append(perf_counter() - started)
    assert loom is not None
    # The inputs stay for the whole run: keep the collector from walking
    # them again on every full collection inside the timed phase.
    gc.collect()
    gc.freeze()
    return Loaded(
        dataset, oracle, plan, loom, clock, index_id,
        durations, load_rates, migrate_rates,
    )


def migrate_rate(loom: Loom) -> float:
    """Move every finalized, persisted chunk to the cold tier; returns
    records migrated per second."""
    started = perf_counter()
    report = loom.migrate(force=True)
    return report.records_migrated / (perf_counter() - started)


# ----------------------------------------------------------------------
# Query mix
# ----------------------------------------------------------------------
def call_query(target: Any, source: Any, index: Any, kind: str, t_range: Tuple[int, int]) -> Any:
    """Issue one query of ``kind``; ``target`` is a ``Loom`` (ids) or a
    ``LoomClient`` (names), whose query verbs share one signature."""
    if kind == "scan_window":
        return target.scan(source, t_range)
    if kind == "needle":
        return target.scan_indexed(source, index, t_range, (NEEDLE_QUERY_MIN, math.inf))
    if kind in ("dense", "scan_pinned"):
        return target.scan_indexed(source, index, t_range)
    if kind == "agg_summary":
        return target.aggregate(source, index, t_range, "max")
    if kind == "agg_count":
        return target.aggregate(source, index, t_range, "count")
    if kind == "pctl":
        return target.aggregate(source, index, t_range, "percentile", 99.0)
    raise ValueError(f"unknown query kind {kind!r}")


class LoadGen:
    """Hands out the ``loadgen`` span (a no-op when untraced) and bumps
    the operation id that spans carry."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._idle: ContextManager[None] = contextlib.nullcontext()

    def __call__(self) -> ContextManager[None]:
        if self._tracer is None:
            return self._idle
        return self._tracer.span("loadgen")

    def next_op(self) -> None:
        if self._tracer is not None:
            self._tracer.op += 1


def pinned_query(loaded: Loaded) -> Query:
    """One fixed window covering a single batch of the query source —
    one or two chunks, well inside the four-chunk archive cache."""
    row = loaded.oracle.n_batches // 3
    t_range = loaded.oracle.window(row, 1)
    return Query(t_range, loaded.oracle.value_scan(t_range))


def run_mix(
    loaded: Loaded,
    ledger: Ledger,
    tracer: Optional[Tracer] = None,
    seconds: Optional[float] = None,
    cycles: Optional[int] = None,
    pinned: Optional[Query] = None,
) -> float:
    """Closed loop over the query mix for ``seconds`` (or ``cycles``);
    returns the wall time spent.  Each sample is timed alone and checked
    after its clock stops."""
    loom, index_id, plan = loaded.loom, loaded.index_id, loaded.plan
    loadgen = LoadGen(tracer)
    started = perf_counter()
    deadline = started + seconds if seconds is not None else math.inf
    cycle = 0
    while perf_counter() < deadline and (cycles is None or cycle < cycles):
        for kind in MIX_ORDER:
            with loadgen():
                loadgen.next_op()
                queries = plan[kind]
                query = queries[cycle % len(queries)]
            t0 = perf_counter()
            result = call_query(loom, QUERY_SOURCE, index_id, kind, query.t_range)
            elapsed = perf_counter() - t0
            with loadgen():
                ledger.sample(kind, elapsed)
                ledger.op(check_result(result, query.expected))
                ledger.note_work(kind, result.stats)
        if pinned is not None:
            # Back to back, so the second and third find the window's
            # chunks still cached whatever the mix evicted in between.
            for _ in range(3):
                loadgen.next_op()
                t0 = perf_counter()
                result = call_query(loom, QUERY_SOURCE, index_id, "scan_pinned", pinned.t_range)
                elapsed = perf_counter() - t0
                with loadgen():
                    ledger.sample("scan_pinned", elapsed)
                    ledger.op(check_result(result, pinned.expected))
                    ledger.note_work("scan_pinned", result.stats)
        cycle += 1
    return perf_counter() - started


def read_metrics(
    ledger: Ledger, plan: Dict[str, List[Query]]
) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """The five read metrics, and their rounds, from a ledger's samples."""
    lat = ledger.latencies
    scan_count = plan["scan_window"][0].expected.count
    dense_count = plan["dense"][0].expected.count

    both = {
        "scan_rps": summarize(lat["scan_window"], lambda s: scan_count / s),
        "scan_indexed_rps": summarize(lat["dense"], lambda s: dense_count / s),
        "needle_p50_ms": summarize(lat["needle"], to_ms),
        "aggregate_p50_ms": summarize(lat["agg_summary"], to_ms),
        "percentile_p50_ms": summarize(lat["pctl"], to_ms),
    }
    return {k: v[0] for k, v in both.items()}, {k: v[1] for k, v in both.items()}


# ----------------------------------------------------------------------
# Write rounds
# ----------------------------------------------------------------------
def batch_round(
    loom: Loom, clock: VirtualClock, dataset: Dataset, seconds: float, loadgen: LoadGen
) -> Tuple[int, float]:
    """``push_many`` the dataset's batches, cycling, for ``seconds``;
    returns records pushed and the time the loop took, net of
    :class:`WriteClock` time."""
    payloads = dataset.payloads
    n_batches = dataset.n_batches
    push_many = loom.push_many
    pushed = 0
    batch = 0
    written = WRITE_CLOCK.seconds
    started = perf_counter()
    deadline = started + seconds
    while perf_counter() < deadline:
        with loadgen():
            loadgen.next_op()
            slot = batch % n_batches
            chunk = payloads[slot * BATCH : (slot + 1) * BATCH]
            source_id = SOURCES[batch % len(SOURCES)]
            clock.advance(TICK_NS)
        push_many(source_id, chunk)
        pushed += BATCH
        batch += 1
    return pushed, perf_counter() - started - (WRITE_CLOCK.seconds - written)


def single_round(
    loom: Loom,
    clock: VirtualClock,
    dataset: Dataset,
    loadgen: LoadGen,
    seconds: Optional[float] = None,
    records: Optional[int] = None,
) -> Tuple[int, float, List[Tuple[int, int, List[bytes]]]]:
    """Per-record ``push`` in the same round-robin order, for ``seconds``
    or ``records``; the time returned is net of :class:`WriteClock` time.
    Also returns the last two ``(source, time, payloads)`` groups pushed,
    for the reopen check."""
    payloads = dataset.payloads
    n_batches = dataset.n_batches
    push = loom.push
    pushed = 0
    batch = 0
    recent: List[Tuple[int, int, List[bytes]]] = []
    written = WRITE_CLOCK.seconds
    started = perf_counter()
    deadline = started + seconds if seconds is not None else math.inf
    while perf_counter() < deadline and (records is None or pushed < records):
        with loadgen():
            loadgen.next_op()
            slot = batch % n_batches
            chunk = payloads[slot * BATCH : (slot + 1) * BATCH]
            source_id = SOURCES[batch % len(SOURCES)]
            now = clock.advance(TICK_NS)
            recent = recent[-1:] + [(source_id, now, chunk)]
        for payload in chunk:
            push(source_id, payload)
        pushed += BATCH
        batch += 1
    return pushed, perf_counter() - started - (WRITE_CLOCK.seconds - written), recent


def append_singles(loaded: Loaded, slices: int = 3, records: int = 20 * BATCH) -> List[float]:
    """Secondary ``ingest_single_rps``: per-record pushes onto the loaded
    log, after its queries are done; one rate per slice."""
    loaded.clock.set(max(loaded.clock.now(), Dataset.batch_time(loaded.dataset.n_batches)))
    rates = []
    for _ in range(slices):
        pushed, elapsed, _ = single_round(
            loaded.loom, loaded.clock, loaded.dataset, LoadGen(None), records=records
        )
        rates.append(pushed / elapsed)
    return rates


def log_counters(loom: Loom) -> Dict[str, float]:
    """Exact per-layer counts read off a Loom's three logs."""
    log = loom.record_log
    logs = (log.log, log.chunk_index.log, log.timestamp_index.log)
    footprint = loom.footprint()
    chunks = max(1, footprint["finalized_chunks"])
    return {
        "hybridlog.flushes": float(sum(h.stats.block_flushes for h in logs)),
        "storage.bytes_written": float(sum(h.stats.bytes_flushed for h in logs)),
        "timestamp_index.entries": float(footprint["timestamp_entries"]),
        "chunk_index.bytes_per_chunk": footprint["chunk_index_bytes"] / chunks,
    }


# ----------------------------------------------------------------------
# Workload: ingest
# ----------------------------------------------------------------------
# Many short rounds and their median, not a few long ones: this sandbox
# hands freed memory back to its host every two seconds, and the first
# touch of a page after that is several times dearer, so about one round
# in five pays for fresh page-cache pages whatever the program does.  A
# round's files are deleted before the next begins, so the others reuse
# pages that are still backed; the median reads that steady state.
WARMUP_ROUNDS = 2
BATCH_ROUNDS = 10
SINGLE_ROUNDS = 6
ROUND_SHARE = 0.9 / (WARMUP_ROUNDS + BATCH_ROUNDS + SINGLE_ROUNDS)
#: Cycles of the query mix read back from the loaded log (secondary cells).
READ_BACK_CYCLES = 20


def reopen_check(
    data_dir: str, pushed: int, recent: List[Tuple[int, int, List[bytes]]]
) -> bool:
    """Durability: what a reopened directory holds equals what was pushed.

    Checks the recovered total, the per-source counts, the records the
    finalized chunk summaries account for (they tile the log up to the
    last chunk boundary), and — by a chain scan — the payloads of the
    last two groups pushed, which sat in the final staging block.
    """
    loom = Loom.open(loom_config(data_dir), clock=VirtualClock())
    try:
        ok = loom.total_records == pushed
        groups = pushed // BATCH
        for lane, source_id in enumerate(SOURCES):
            expected = (groups - lane + len(SOURCES) - 1) // len(SOURCES) * BATCH
            ok = ok and loom.source_record_count(source_id) == expected
        index = loom.record_log.chunk_index
        summarized = sum(index.get(i).record_count for i in range(len(index)))
        boundary = index.get(len(index) - 1).end_addr if len(index) else 0
        ok = ok and summarized == boundary // (HEADER_SIZE + PAYLOAD_BYTES)
        for source_id, timestamp, chunk in recent:
            records = loom.scan(source_id, (timestamp, timestamp)).records or []
            ok = ok and [r.payload for r in records] == chunk[::-1]
        return ok
    finally:
        loom.close()


def ingest_rounds(
    scratch: Scratch,
    dataset: Dataset,
    seconds: float,
    ledger: Ledger,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """The timed phase of ``ingest``: batch rounds, per-record rounds,
    then the reopen check on the last round's directory."""
    loadgen = LoadGen(tracer)
    batch_rates: List[float] = []
    single_rates: List[float] = []
    out: Dict[str, Any] = {"counters": {}}
    # Batch and per-record rounds alternate (5 : 3), so a slow spell of the
    # host lands on some rounds of each kind, not on all rounds of one.
    schedule = ["warmup"] * WARMUP_ROUNDS + [
        "single" if i % 8 in (1, 4, 6) else "batch"
        for i in range(BATCH_ROUNDS + SINGLE_ROUNDS)
    ]
    last_single = len(schedule) - 1 - schedule[::-1].index("single")
    for i, kind in enumerate(schedule):
        data_dir = scratch.fresh("ingest")
        loom, clock, _ = new_loom(data_dir)
        if kind == "single":
            pushed, elapsed, recent = single_round(
                loom, clock, dataset, loadgen, seconds=seconds * ROUND_SHARE
            )
            single_rates.append(pushed / elapsed)
            ledger.op(loom.total_records == pushed, pushed)
        else:
            pushed, elapsed = batch_round(loom, clock, dataset, seconds * ROUND_SHARE, loadgen)
            if kind == "batch":  # a warm-up round is run and discarded
                batch_rates.append(pushed / elapsed)
                ledger.op(loom.total_records == pushed, pushed // BATCH)
                out["stored_ratio"] = stored_bytes(loom) / (pushed * PAYLOAD_BYTES)
                for name, value in log_counters(loom).items():
                    out["counters"][name] = out["counters"].get(name, 0.0) + value
        loom.close()
        if i == last_single:
            ledger.op(reopen_check(data_dir, pushed, recent))
        scratch.drop(data_dir)
    out["counters"]["chunk_index.bytes_per_chunk"] /= BATCH_ROUNDS
    out["batch_rates"] = batch_rates
    out["single_rates"] = single_rates
    return out


def metrics_overhead_pct(scratch: Scratch, dataset: Dataset, seconds: float) -> float:
    """``ingest_rps`` with ``metrics_enabled`` on against off, eight
    interleaved pairs of rounds."""
    rates: Dict[bool, List[float]] = {True: [], False: []}
    for i in range(16):
        enabled = i % 2 == 0
        data_dir = scratch.fresh("overhead")
        loom, clock, _ = new_loom(data_dir, metrics_enabled=enabled)
        pushed, elapsed = batch_round(loom, clock, dataset, seconds, LoadGen(None))
        rates[enabled].append(pushed / elapsed)
        loom.close()
        scratch.drop(data_dir)
    off = median(rates[False])
    return 100.0 * (off - median(rates[True])) / off


def run_ingest(scratch: Scratch, seed: int, seconds: float, n_batches: int, trace: bool) -> RunResult:
    loaded = setup_loaded(scratch, seed, n_batches)
    ledger = Ledger()
    timed = ingest_rounds(scratch, loaded.dataset, seconds, ledger)
    info = {"samples": {"batch_rounds": BATCH_ROUNDS, "single_rounds": SINGLE_ROUNDS}}
    if trace:
        overhead = metrics_overhead_pct(scratch, loaded.dataset, seconds * ROUND_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            traced_ledger = Ledger()
            started = perf_counter()
            traced = ingest_rounds(scratch, loaded.dataset, seconds, traced_ledger, tracer)
            wall = perf_counter() - started
        finally:
            tracer.uninstall()
        ledger.attempted += traced_ledger.attempted
        ledger.failed += traced_ledger.failed
        counters = dict(traced["counters"])
        counters["metrics.overhead_pct"] = overhead
        counters["trace.overhead_pct"] = overhead_pct(
            median(timed["batch_rates"]), median(traced["batch_rates"])
        )
        loaded.loom.close()
        export = tracer.export()
        return RunResult(
            ledger, counters, info={**info, "traced_wall_s": wall}, trace_export=export
        )

    # Secondary cells: read the loaded (warm-up) log back, then migrate it.
    reads = Ledger()
    run_mix(loaded, reads, cycles=READ_BACK_CYCLES)
    ledger.attempted += reads.attempted
    ledger.failed += reads.failed
    read_values, read_rounds = read_metrics(reads, loaded.plan)
    migrate_rps = migrate_rate(loaded.loom)
    loaded.loom.close()
    metrics = {
        "setup_s": median(loaded.setup_durations),
        "ingest_rps": median(timed["batch_rates"]),
        "ingest_single_rps": median(timed["single_rates"]),
        **read_values,
        "migrate_rps": migrate_rps,
        "stored_bytes_per_user_byte": timed["stored_ratio"],
        "peak_rss_mb": peak_rss_mb(),
    }
    rounds = {
        "setup_s": loaded.setup_durations,
        "ingest_rps": timed["batch_rates"],
        "ingest_single_rps": timed["single_rates"],
        **read_rounds,
    }
    return RunResult(ledger, metrics, rounds, info)


def overhead_pct(untraced: float, traced: float) -> float:
    return 100.0 * (untraced - traced) / untraced


# ----------------------------------------------------------------------
# Workloads: query-hot, query-cold
# ----------------------------------------------------------------------
def query_counters(ledger: Ledger, loom: Loom, read_calls: int) -> Dict[str, float]:
    """Ratios measured where the work happens, from ``QueryStats``."""
    needle = ledger.work.get("needle", {})
    dense = ledger.work.get("dense", {})
    summary = ledger.work.get("agg_summary", {})
    out = {
        "chunk_index.prune_ratio": needle.get("chunks_skipped", 0)
        / max(1, needle.get("summaries_examined", 0)),
        "operators.match_ratio": dense.get("records_matched", 0)
        / max(1, dense.get("records_scanned", 0)),
        "archive.cold_chunks_decompressed": float(
            summary.get("cold_chunks_decompressed", 0)
        ),
        **tail_counters(ledger.latencies, "agg_summary"),
    }
    archive = loom.record_log.archive
    if archive is not None and archive.chunk_count:
        out["archive.compression_ratio"] = archive.compression_ratio
    if "scan_pinned" in ledger.latencies:
        out["scan_pinned.p50_ms"] = 1e3 * median(ledger.latencies["scan_pinned"])
    if read_calls:
        decompressed = sum(w.get("cold_chunks_decompressed", 0) for w in ledger.work.values())
        out["archive.cache_hit_ratio"] = 1.0 - decompressed / read_calls
    return out


def mechanism_checks(ledger: Ledger) -> None:
    """The workload exercised what it was built for: the needle query
    pruned more than nine chunks in ten, and the summary-answered
    aggregate inflated no cold chunk."""
    needle = ledger.work["needle"]
    ledger.op(needle["chunks_skipped"] > 0.9 * needle["summaries_examined"])
    ledger.op(ledger.work["agg_summary"]["cold_chunks_decompressed"] == 0)


def run_query(
    scratch: Scratch, seed: int, seconds: float, n_batches: int, trace: bool, cold: bool
) -> RunResult:
    loaded = setup_loaded(scratch, seed, n_batches, migrate=cold)
    stored_ratio = stored_bytes(loaded.loom) / loaded.dataset.user_bytes
    pinned = pinned_query(loaded) if cold else None
    ledger = Ledger()
    info: Dict[str, Any] = {}
    if trace:
        run_mix(loaded, ledger, seconds=seconds / 2, pinned=pinned)
        untraced_rps = read_metrics(ledger, loaded.plan)[0]["scan_rps"]
        tracer = Tracer()
        tracer.install()
        try:
            traced_ledger = Ledger()
            wall = run_mix(loaded, traced_ledger, tracer, seconds=seconds, pinned=pinned)
        finally:
            tracer.uninstall()
        export = tracer.export()
        mechanism_checks(traced_ledger)
        ledger.attempted += traced_ledger.attempted
        ledger.failed += traced_ledger.failed
        read_calls = export["totals"].get("archive.read_chunk_bytes", [0, 0])[1]
        counters = query_counters(traced_ledger, loaded.loom, read_calls)
        counters.update(log_counters(loaded.loom))
        counters["trace.overhead_pct"] = overhead_pct(
            untraced_rps, read_metrics(traced_ledger, loaded.plan)[0]["scan_rps"]
        )
        info["samples"] = {k: len(v) for k, v in traced_ledger.latencies.items()}
        info["traced_wall_s"] = wall
        loaded.loom.close()
        return RunResult(ledger, counters, info=info, trace_export=export)

    run_mix(loaded, ledger, seconds=seconds, pinned=pinned)
    mechanism_checks(ledger)
    read_values, read_rounds = read_metrics(ledger, loaded.plan)
    single_rates = append_singles(loaded)
    migrate_rates = loaded.migrate_rates if cold else [migrate_rate(loaded.loom)]
    loaded.loom.close()
    metrics = {
        "setup_s": median(loaded.setup_durations),
        "ingest_rps": median(loaded.load_rates),
        "ingest_single_rps": median(single_rates),
        **read_values,
        "migrate_rps": median(migrate_rates),
        "stored_bytes_per_user_byte": stored_ratio,
        "peak_rss_mb": peak_rss_mb(),
    }
    rounds = {
        "setup_s": loaded.setup_durations,
        "ingest_rps": loaded.load_rates,
        "ingest_single_rps": single_rates,
        "migrate_rps": migrate_rates,
        **read_rounds,
    }
    info["samples"] = {k: len(v) for k, v in ledger.latencies.items()}
    return RunResult(ledger, metrics, rounds, info)
