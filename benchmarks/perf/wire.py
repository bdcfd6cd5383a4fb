"""Workload ``wire-mixed``: writes beside reads over loopback.

One server child process (one shard), one ``LoomClient`` connection, one
closed loop: sixteen 256-record batches to source ``live``, four
one-record calls to source ``live1``, then one query, rotating through
five kinds.  Query windows open at a client-side ``time.monotonic_ns()``
stamp taken when the batch sent *W* batches earlier was ACKed, so a query
covers about *W* batches however long the log has grown and however fast
ingest ran.  (Server timestamps are ``time.monotonic_ns()`` too; set-up
asserts the two processes share that clock.)

The server ACKs a batch when it is queued, not when it is applied, so
which batches a query sees cannot be known in advance: every batch still
queued when the stamp was taken is applied, and timestamped, after it.
Each sample is therefore checked for what must hold whatever the
interleaving — whole batches only, no more than *W + 1* plus a full queue
of them, payloads byte-equal to the generated ones and contiguous,
percentile a generated value — and the exact check comes at the end:
after ``sync``, the summary-answered count over the whole run equals the
records ACKed, and so does the count the stopped server reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.clock import MonotonicClock
from repro.daemon import LoomClient, MonitoringDaemon

from .dataset import (
    INDEX_EDGES,
    NEEDLE_QUERY_MIN,
    PAYLOAD_BYTES,
    T_MAX,
    Dataset,
    counter_of,
    value_of,
)
from .engine import (
    SETUP_PASSES,
    WRITE_CLOCK,
    LoadGen,
    Ledger,
    RunResult,
    Scratch,
    call_query,
    loom_config,
    overhead_pct,
    peak_rss_mb,
    summarize,
    tail_counters,
    to_ms,
)
from .spans import Tracer, merge_exports

WIRE_BATCH = 256
BATCHES_PER_CYCLE = 16
SINGLES_PER_CYCLE = 4
SOURCE, SINGLES_SOURCE, INDEX = "live", "live1", "value"
#: ``(kind, W)``: the query sees roughly the last W batches.
ROTATION = (
    ("agg_count", 64),
    ("pctl", 16),
    ("dense", 4),
    ("scan_window", 4),
    ("needle", 64),
)
SLICES = 8
#: ``ServerConfig.queue_high_watermark`` default: the most batches that can
#: sit queued, unapplied, behind an ACK.
QUEUE_LIMIT = 64
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "wire_child.py")


@dataclass
class WireStats:
    """What one timed phase over the wire measured."""

    wall_s: float
    batch_rates: List[float]
    batch_records: int
    single_records: int
    retries: int
    backpressure_hits: int


class Session:
    """A server child plus the client connected to it."""

    def __init__(self, scratch: Scratch, trace: bool = False) -> None:
        self.data_dir = scratch.fresh("wire")
        self.report_path = os.path.join(self.data_dir, "child-report.json")
        command = [sys.executable, CHILD, "--data-dir", self.data_dir, "--report", self.report_path]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.client: Optional[LoomClient] = None
        try:
            assert self.process.stdout is not None
            hello = self.process.stdout.readline()
            if not hello:
                raise RuntimeError("server child exited before listening")
            self.client = LoomClient(
                "127.0.0.1", json.loads(hello)["port"], deadline_s=30.0, attempt_timeout_s=10.0
            )
            for source in (SOURCE, SINGLES_SOURCE):
                self.client.enable_source(source)
                self.client.add_index(source, INDEX, INDEX_EDGES)
        except BaseException:
            self.kill()
            raise

    def stop(self) -> Dict[str, Any]:
        """Ask the child to stop; returns the report it wrote."""
        try:
            if self.client is not None:
                self.client.close()
            assert self.process.stdin is not None
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
            if self.process.wait(timeout=120) != 0:
                raise RuntimeError(f"server child exited with {self.process.returncode}")
            with open(self.report_path) as f:
                report: Dict[str, Any] = json.load(f)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()


def assert_shared_clock(client: LoomClient, payloads: List[bytes]) -> int:
    """One batch, bracketed by two local stamps, must be the only thing a
    count over that bracket sees; returns the records ingested."""
    t0 = time.monotonic_ns()
    client.ingest(SOURCE, payloads)
    client.sync(SOURCE)
    t1 = time.monotonic_ns()
    seen = client.aggregate(SOURCE, INDEX, (t0, t1), "count").count
    if seen != len(payloads):
        raise RuntimeError(
            f"client and server do not share CLOCK_MONOTONIC: a bracketed "
            f"batch of {len(payloads)} counted {seen}"
        )
    return len(payloads)


class Checker:
    """Per-sample checks that hold under any apply/ACK interleaving."""

    def __init__(self, dataset: Dataset) -> None:
        self.payloads = dataset.payloads
        self.sorted_values = np.sort(dataset.values)

    def _genuine(self, record: Any) -> bool:
        payload = record.payload
        position = counter_of(payload)
        return position < len(self.payloads) and payload == self.payloads[position]

    def check(self, kind: str, width: int, result: Any) -> bool:
        count = result.count
        if kind == "needle":
            return all(
                self._genuine(r) and value_of(r.payload) >= NEEDLE_QUERY_MIN
                for r in result.records
            )
        if count % WIRE_BATCH or count > (width + 1 + QUEUE_LIMIT) * WIRE_BATCH:
            return False
        if kind == "agg_count":
            return result.value is None if count == 0 else result.value == count
        if kind == "pctl":
            if count == 0:
                return result.value is None
            at = int(np.searchsorted(self.sorted_values, result.value))
            return at < len(self.sorted_values) and self.sorted_values[at] == result.value
        records = result.records
        if len(records) != count:
            return False
        if count == 0:
            return True
        first, last = records[0], records[-1]
        if kind == "scan_window":  # newest first
            first, last = last, first
        span = (counter_of(last.payload) - counter_of(first.payload)) % len(self.payloads)
        return self._genuine(first) and self._genuine(last) and span == count - 1


def timed_phase(
    client: LoomClient,
    dataset: Dataset,
    checker: Checker,
    seconds: float,
    ledger: Ledger,
    tracer: Optional[Tracer] = None,
) -> WireStats:
    loadgen = LoadGen(tracer)
    payloads = dataset.payloads
    pool = len(payloads) // WIRE_BATCH
    stamps: Deque[int] = deque(maxlen=max(w for _, w in ROTATION) + 1)
    slice_len = seconds / SLICES
    batch_rates: List[float] = []
    batch_records = single_records = 0
    sent = singles = queries = 0
    retries0, backpressure0 = client.retries, client.backpressure_hits
    started = perf_counter()
    for i in range(SLICES):
        slice_started = perf_counter()
        deadline = started + (i + 1) * slice_len
        batch_acked = 0
        while perf_counter() < deadline:
            for _ in range(BATCHES_PER_CYCLE):
                with loadgen():
                    loadgen.next_op()
                    slot = sent % pool
                    chunk = payloads[slot * WIRE_BATCH : (slot + 1) * WIRE_BATCH]
                acked = client.ingest(SOURCE, chunk)
                stamps.append(time.monotonic_ns())
                ledger.op(acked == WIRE_BATCH)
                batch_acked += acked
                sent += 1
            for _ in range(SINGLES_PER_CYCLE):
                with loadgen():
                    loadgen.next_op()
                    one = payloads[singles % len(payloads) : singles % len(payloads) + 1]
                t0 = perf_counter()
                acked = client.ingest(SINGLES_SOURCE, one)
                ledger.sample("single", perf_counter() - t0)
                ledger.op(acked == 1)
                single_records += acked
                singles += 1
            kind, width = ROTATION[queries % len(ROTATION)]
            queries += 1
            if len(stamps) <= width:
                continue
            with loadgen():
                loadgen.next_op()
                t_range = (stamps[-1 - width], T_MAX)
            t0 = perf_counter()
            result = call_query(client, SOURCE, INDEX, kind, t_range)
            elapsed = perf_counter() - t0
            with loadgen():
                ledger.sample(kind, elapsed)
                if kind in ("dense", "scan_window") and result.count:
                    ledger.sample(kind + ".rps", result.count / elapsed)
                ledger.op(checker.check(kind, width, result))
        # Batches: records ACKed per second of wall time, queries and all
        # — an ACK only says "queued", so time inside ingest calls alone
        # would leave out the applying that goes on between them.
        batch_rates.append(batch_acked / (perf_counter() - slice_started))
        batch_records += batch_acked
    return WireStats(
        wall_s=perf_counter() - started,
        batch_rates=batch_rates,
        batch_records=batch_records,
        single_records=single_records,
        retries=client.retries - retries0,
        backpressure_hits=client.backpressure_hits - backpressure0,
    )


def exactly_once(client: LoomClient, batch_records: int, single_records: int) -> bool:
    """After ``sync``, summary-answered counts equal the records ACKed."""
    client.sync()
    whole = (0, T_MAX)
    return (
        client.aggregate(SOURCE, INDEX, whole, "count").count == batch_records
        and client.aggregate(SINGLES_SOURCE, INDEX, whole, "count").count == single_records
    )


def scrape(stats_text: str, metric: str) -> float:
    """Sum a counter's samples out of the server's exposition text."""
    total = 0.0
    for line in stats_text.splitlines():
        if line.startswith(metric) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def in_process_rate(scratch: Scratch, dataset: Dataset, seconds: float) -> float:
    """The same batch script through ``MonitoringDaemon.receive_batch``
    with no wire in between (the base of ``server.wire_overhead_factor``)."""
    data_dir = scratch.fresh("inproc")
    daemon = MonitoringDaemon(config=loom_config(data_dir), clock=MonotonicClock())
    daemon.enable_source(SOURCE)
    daemon.add_index(SOURCE, INDEX, value_of, INDEX_EDGES)
    payloads = dataset.payloads
    pool = len(payloads) // WIRE_BATCH
    sent = 0
    written = WRITE_CLOCK.seconds
    started = perf_counter()
    deadline = started + seconds
    while perf_counter() < deadline:
        slot = sent % pool
        daemon.receive_batch(SOURCE, payloads[slot * WIRE_BATCH : (slot + 1) * WIRE_BATCH])
        sent += 1
    elapsed = perf_counter() - started - (WRITE_CLOCK.seconds - written)
    daemon.close()
    scratch.drop(data_dir)
    return sent * WIRE_BATCH / elapsed


def health_rtt_us(client: LoomClient, calls: int = 200) -> float:
    samples = []
    for _ in range(calls):
        t0 = perf_counter()
        client.health()
        samples.append(perf_counter() - t0)
    return 1e6 * median(samples)


def run_session(
    dataset: Dataset,
    checker: Checker,
    session: Session,
    seconds: float,
    ledger: Ledger,
    tracer: Optional[Tracer] = None,
) -> Tuple[WireStats, Dict[str, Any], Dict[str, float]]:
    """Timed phase, exactly-once check and shutdown of one session."""
    client = session.client
    assert client is not None
    try:
        warm = assert_shared_clock(client, dataset.payloads[:WIRE_BATCH])
        extras: Dict[str, float] = {}
        if tracer is not None:
            extras["transport.health_rtt_us"] = health_rtt_us(client)
        stats = timed_phase(client, dataset, checker, seconds, ledger, tracer)
        acked = warm + stats.batch_records
        ledger.op(exactly_once(client, acked, stats.single_records))
        if tracer is not None:
            text = client.server_stats()
            extras["server.retry_afters"] = scrape(text, "loom_server_retry_after")
            extras["server.dedup_hits"] = scrape(text, "loom_server_dedup_hits")
    except BaseException:
        session.kill()
        raise
    report = session.stop()
    ledger.op(report["total_records"] == acked + stats.single_records)
    return stats, report, extras


def run_wire(scratch: Scratch, seed: int, seconds: float, n_batches: int, trace: bool) -> RunResult:
    setup_durations: List[float] = []
    session: Optional[Session] = None
    for _ in range(SETUP_PASSES):
        if session is not None:
            session.stop()
        started = perf_counter()
        dataset = Dataset(seed, n_batches)
        checker = Checker(dataset)
        session = Session(scratch)
        setup_durations.append(perf_counter() - started)
    assert session is not None
    ledger = Ledger()
    untraced_seconds = seconds / 2 if trace else seconds
    stats, report, _ = run_session(dataset, checker, session, untraced_seconds, ledger)
    lat = ledger.latencies
    info: Dict[str, Any] = {
        "samples": {k: len(v) for k, v in lat.items() if not k.endswith(".rps")},
        "records_acked": stats.batch_records + stats.single_records,
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_ledger = Ledger()
            traced_session = Session(scratch, trace=True)
            traced, traced_report, counters = run_session(
                dataset, checker, traced_session, seconds, traced_ledger, tracer
            )
        finally:
            tracer.uninstall()
        ledger.attempted += traced_ledger.attempted
        ledger.failed += traced_ledger.failed
        own = tracer.export()
        merged = merge_exports([own, traced_report["trace"]])
        ingest_ns = merged["durations"].get("client.ingest", [0])
        counters.update(traced_report["log_counters"])
        counters.update(
            {
                "trace.overhead_pct": overhead_pct(
                    median(stats.batch_rates), median(traced.batch_rates)
                ),
                "server.queue_depth_max": float(traced_report["queue_depth_max"]),
                "server.wire_overhead_factor": in_process_rate(scratch, dataset, seconds / 5)
                / median(stats.batch_rates),
                "client.retries": float(traced.retries),
                "client.backpressure_hits": float(traced.backpressure_hits),
                "client.ingest.p99_us": float(np.percentile(ingest_ns, 99)) / 1e3,
                "archive.compression_ratio": traced_report["compression_ratio"],
                **tail_counters(traced_ledger.latencies, "agg_count"),
            }
        )
        info["traced_wall_s"] = traced.wall_s
        info["samples"] = {
            k: len(v) for k, v in traced_ledger.latencies.items() if not k.endswith(".rps")
        }
        return RunResult(ledger, counters, info=info, trace_export=merged)

    both = {
        # One record per call: the rate of the median call, so that a call
        # told to RETRY_AFTER (a 25 ms sleep) does not set the figure.
        "ingest_single_rps": summarize(lat["single"], lambda s: 1.0 / s),
        "scan_rps": summarize(lat["scan_window.rps"], float),
        "scan_indexed_rps": summarize(lat["dense.rps"], float),
        "needle_p50_ms": summarize(lat["needle"], to_ms),
        "aggregate_p50_ms": summarize(lat["agg_count"], to_ms),
        "percentile_p50_ms": summarize(lat["pctl"], to_ms),
    }
    metrics = {
        "setup_s": median(setup_durations),
        "ingest_rps": median(stats.batch_rates),
        **{name: value for name, (value, _) in both.items()},
        "migrate_rps": report["migrate_rps"],
        "stored_bytes_per_user_byte": report["stored_bytes"]
        / (report["total_records"] * PAYLOAD_BYTES),
        "peak_rss_mb": peak_rss_mb(),
    }
    rounds = {
        "setup_s": setup_durations,
        "ingest_rps": stats.batch_rates,
        **{name: quarter_values for name, (_, quarter_values) in both.items()},
    }
    return RunResult(ledger, metrics, rounds, info)
