"""Per-engine ingest cost models.

The hardware-gated results in the paper (drop fractions in Figures 2 and
11, CPU shares in Figure 2, probe effect in Figure 14) are outcomes of
resource arithmetic: each engine spends some number of CPU cycles per
record on I/O/request handling and on index maintenance; when the arrival
rate times the per-record cost exceeds the host's capacity, the engine
sheds data.  This module encodes that arithmetic with per-engine cost
models.

Calibration
-----------

The constants are *anchored to operating points the paper publishes* and
are mechanistic in between:

* InfluxDB/ClickHouse-style TSDB (Figure 2 anchors): index maintenance
  CPU is 2% of 16 CPUs at 100k rec/s, 15% at 500k, 23% (≈4 cores) at
  1.4M where 9% of data drops, plateauing thereafter (77% dropped at 6M).
  Solving those anchors gives an index cost per record of
  ``8,640 + 2,684·ln(R / 100k)`` cycles (growing because higher rates
  deepen compaction), a background-indexing CPU cap of 23%, and an
  I/O/request-handling cost of ≈26,100 cycles/record.
* Loom: "writes take only a few hundred cycles" on one core, sustaining
  the observed 9M records/second (≈300 cycles at 2.7 GHz).
* FishStore: log append plus one PSF evaluation per installed PSF
  (Figure 14: probe effect proportional to PSF count).
* Raw file: a buffered framed append, the cheapest possible path.

Every calibrated constant is a module-level name so the benchmarks can
print the calibration table alongside the simulated results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional


# ----------------------------------------------------------------------
# Calibrated constants (cycles per record unless stated otherwise)
# ----------------------------------------------------------------------
#: TSDB I/O + request-handling cost (from the 9%-drop anchor at 1.4M/s).
TSDB_IO_CYCLES = 26_110.0
#: TSDB index cost at the 100k rec/s anchor (2% of 16 CPUs).
TSDB_IDX_BASE_CYCLES = 8_640.0
#: TSDB index cost growth per ln(rate ratio) (from the 15% @ 500k anchor).
TSDB_IDX_GROWTH = 2_684.0
#: Fraction of host CPU the TSDB's background indexing saturates at.
TSDB_IDX_CAP_FRACTION = 0.23
#: End-to-end multiplier on TSDB I/O cost (line-protocol parsing and
#: concurrent-query interference present in Figure 11 but not Figure 2).
TSDB_E2E_IO_MULTIPLIER = 2.3

#: Loom's write-path cost ("a few hundred cycles") and single ingest core.
LOOM_CYCLES = 300.0
LOOM_CORES = 1
#: Share of Loom's write-path cycles that are fixed per push call rather
#: than per byte — clock read, bounds/rotation checks, summary and
#: timestamp-index dict lookups, watermark publication.  Measured on this
#: reproduction's ingest workload (``python -m benchmarks.perf run
#: --workload ingest``: ``ingest_rps`` against ``ingest_single_rps``): the
#: batched path amortizes roughly this share of the per-record cost.
LOOM_BATCH_AMORTIZABLE = 0.7

#: FishStore: log append plus hashing, plus per-PSF evaluation.
FISHSTORE_APPEND_CYCLES = 800.0
FISHSTORE_PSF_CYCLES = 270.0
FISHSTORE_CORES = 8

#: Raw file buffered append.
RAWFILE_CYCLES = 200.0

#: Client-side emission cost charged to the monitored application for
#: every telemetry event, regardless of backend (Figure 14 calibration).
EMIT_CYCLES = 800.0

#: Effective per-*offered*-event collection cost of the TSDB in the
#: co-located probe experiment.  Under overload the TSDB rejects/drops
#: most events before its heavy write path, so its contention footprint is
#: far below ``io + idx`` per event; this constant is anchored directly to
#: Figure 14's 14.1% probe effect at 8M events/s on the 72-thread host.
TSDB_PROBE_COLLECT_CYCLES = 2_627.0


@dataclass(frozen=True)
class IngestCostModel:
    """How many cycles one engine spends per record, and on what.

    Attributes:
        name: engine label used in reports.
        io_cycles: request handling + storage cycles per record.
        idx_cycles: rate-dependent index-maintenance cycles per record
            (None for engines with no write-path indexing).
        idx_cap_fraction: ceiling on the host fraction the engine's
            background indexing may consume (None = unbounded).
        cores: ingest-side cores the engine may use.
        probe_collect_cycles: override for the effective per-offered-event
            collection cost in the co-located probe experiment; None means
            "use ``io_cycles + idx_cycles``" (correct for engines that keep
            up; engines that shed load under overload need the override).
        batch_amortizable_fraction: fraction of ``io_cycles`` that is
            fixed per *request* rather than per record (framing setup,
            bounds checks, watermark publication, clock reads) and hence
            amortizes across a batched ingest call.  0 (the default)
            means batching does not help the engine.
    """

    name: str
    io_cycles: float
    idx_cycles: Optional[Callable[[float], float]] = None
    idx_cap_fraction: Optional[float] = None
    cores: Optional[int] = None
    probe_collect_cycles: Optional[float] = None
    batch_amortizable_fraction: float = 0.0

    def index_cycles_at(self, rate: float) -> float:
        if self.idx_cycles is None:
            return 0.0
        return self.idx_cycles(rate)

    def io_cycles_at(self, batch_size: int = 1) -> float:
        """Effective per-record I/O cost when records arrive in batches of
        ``batch_size``: the amortizable share is divided across the batch,
        the rest is paid per record."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        f = self.batch_amortizable_fraction
        return self.io_cycles * ((1.0 - f) + f / batch_size)


def _tsdb_idx_cycles(rate: float) -> float:
    """Per-record index-maintenance cost, growing with the ingest rate."""
    ratio = max(1.0, rate / 100_000.0)
    return TSDB_IDX_BASE_CYCLES + TSDB_IDX_GROWTH * math.log(ratio)


def influxdb_model(e2e: bool = False) -> IngestCostModel:
    """The InfluxDB-style TSDB (Figure 2 synthetic or Figure 11 end-to-end)."""
    multiplier = TSDB_E2E_IO_MULTIPLIER if e2e else 1.0
    return IngestCostModel(
        name="InfluxDB" + ("-e2e" if e2e else ""),
        io_cycles=TSDB_IO_CYCLES * multiplier,
        idx_cycles=_tsdb_idx_cycles,
        idx_cap_fraction=TSDB_IDX_CAP_FRACTION,
        probe_collect_cycles=TSDB_PROBE_COLLECT_CYCLES,
    )


def clickhouse_model() -> IngestCostModel:
    """ClickHouse behaves like InfluxDB in Figure 2 (the paper plots them
    together); its MergeTree has marginally cheaper request handling."""
    return IngestCostModel(
        name="ClickHouse",
        io_cycles=TSDB_IO_CYCLES * 0.92,
        idx_cycles=lambda r: _tsdb_idx_cycles(r) * 1.05,
        idx_cap_fraction=0.25,
    )


def loom_model() -> IngestCostModel:
    return IngestCostModel(
        name="Loom",
        io_cycles=LOOM_CYCLES,
        cores=LOOM_CORES,
        batch_amortizable_fraction=LOOM_BATCH_AMORTIZABLE,
    )


def fishstore_model(n_psfs: int = 0) -> IngestCostModel:
    suffix = f"-I({n_psfs})" if n_psfs else "-N"
    return IngestCostModel(
        name=f"FishStore{suffix}",
        io_cycles=FISHSTORE_APPEND_CYCLES + n_psfs * FISHSTORE_PSF_CYCLES,
        cores=FISHSTORE_CORES,
    )


def rawfile_model() -> IngestCostModel:
    return IngestCostModel(name="raw file", io_cycles=RAWFILE_CYCLES, cores=1)
