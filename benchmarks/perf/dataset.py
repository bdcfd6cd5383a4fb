"""Seeded inputs and the numpy reference that checks every answer.

The program under test sees only what this module generates.  One
:class:`Dataset` is a fixed number of 512-record batches dealt round-robin
to four sources on a virtual clock that ticks 1 ms per batch, so every
timestamp — and therefore every count — repeats exactly for a seed.

Payload layout (64 bytes, little-endian)::

    f64 value | u32 kind | u64 counter | 16 seeded-random bytes | 28 zero bytes

``value`` is lognormal(mu=3, sigma=1) with *needles* (``>= 50 000``)
planted at 1 in 20 000, far above the last histogram edge, so they land
alone in the high outlier bin and chunk summaries can prune for them.
Each source gets its needles in the middle of equal stretches of the first
85 % of its records, the same places for every seed (the seed draws their
values, like everything else): how many records a needle query has to
look at depends on where a needle falls in its chunk, and a metric that
moved with the seed for that reason would hide what the program does.
All of them sit in the prefix that ``query-cold`` migrates.  The random bytes keep the
payload from compressing like zero padding; the zero tail keeps it from
being incompressible.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

BATCH = 512
SOURCES = (1, 2, 3, 4)
#: Sources that carry the histogram index on ``value``.
INDEXED_SOURCES = (1, 2)
#: The source every query of the mix runs on.
QUERY_SOURCE = 1
TICK_NS = 1_000_000
PAYLOAD_BYTES = 64
NEEDLE_ONE_IN = 20_000
NEEDLE_FLOOR = 50_000.0
#: ``v_range`` lower bound of the needle query (below every needle, above
#: the last histogram edge).
NEEDLE_QUERY_MIN = 40_000.0
#: Query windows start, and needles sit, inside this share of a source's
#: range, so the same plan stays inside the migrated prefix on
#: ``query-cold`` (a forced migration leaves the last 4 MiB staging block,
#: about 9 % of the log, hot).
PREFIX_SHARE = 0.85
#: 16 geometric edges over [1, 10 000]; Loom adds the two outlier bins.
INDEX_EDGES = [float(e) for e in np.geomspace(1.0, 10_000.0, 16)]
T_MAX = 2**62

PAYLOAD_DTYPE = np.dtype(
    [
        ("value", "<f8"),
        ("kind", "<u4"),
        ("counter", "<u8"),
        ("noise", "V16"),
        ("pad", "V28"),
    ]
)
assert PAYLOAD_DTYPE.itemsize == PAYLOAD_BYTES

_VALUE = struct.Struct("<d")
_COUNTER = struct.Struct("<Q")


def value_of(payload: "bytes | memoryview") -> float:
    """The index function: the f64 at offset 0 (what the wire's
    ``f64_le`` extractor reads too)."""
    return _VALUE.unpack_from(payload)[0]


def counter_of(payload: "bytes | memoryview") -> int:
    """Position of a payload in its :class:`Dataset` (unique per record)."""
    return _COUNTER.unpack_from(payload, 12)[0]


class Dataset:
    """``n_batches`` batches of :data:`BATCH` records, generated from a seed."""

    def __init__(self, seed: int, n_batches: int = 800) -> None:
        if n_batches % len(SOURCES):
            raise ValueError("n_batches must be a multiple of the source count")
        self.seed = seed
        self.n_batches = n_batches
        n = n_batches * BATCH
        rng = np.random.default_rng(seed)
        values = rng.lognormal(3.0, 1.0, n)
        lanes = len(SOURCES)
        per_source = n // lanes
        needles = max(1, per_source // NEEDLE_ONE_IN)
        stretch = int(per_source * PREFIX_SHARE) // needles
        for lane in range(lanes):
            for k in range(needles):
                # Position within the source's own records -> dataset position.
                own = k * stretch + stretch // 2
                batch = (own // BATCH) * lanes + lane
                values[batch * BATCH + own % BATCH] = NEEDLE_FLOOR + 1000.0 * rng.random()
        table = np.zeros(n, PAYLOAD_DTYPE)
        table["value"] = values
        table["kind"] = rng.integers(0, 8, n)
        table["counter"] = np.arange(n)
        table["noise"] = np.frombuffer(rng.bytes(16 * n), "V16")
        raw = table.tobytes()
        self.values = values
        self.payloads: List[bytes] = [
            raw[i : i + PAYLOAD_BYTES] for i in range(0, len(raw), PAYLOAD_BYTES)
        ]

    def __len__(self) -> int:
        return len(self.payloads)

    @property
    def user_bytes(self) -> int:
        return len(self.payloads) * PAYLOAD_BYTES

    @staticmethod
    def batch_time(batch: int) -> int:
        """Virtual timestamp shared by every record of batch ``batch``."""
        return (batch + 1) * TICK_NS

    @staticmethod
    def batch_source(batch: int) -> int:
        return SOURCES[batch % len(SOURCES)]

    def batches(self) -> Iterator[Tuple[int, int, List[bytes]]]:
        """``(source_id, timestamp, payloads)`` in ingest order."""
        payloads = self.payloads
        for b in range(self.n_batches):
            yield (
                self.batch_source(b),
                self.batch_time(b),
                payloads[b * BATCH : (b + 1) * BATCH],
            )


@dataclass(frozen=True)
class Expected:
    """Reference answer of one query.

    ``first``/``last`` are the payloads of the first and last record a
    scan must return, in the operator's own order; ``None`` for
    aggregates and empty scans.
    """

    count: int
    value: Optional[float] = None
    first: Optional[bytes] = None
    last: Optional[bytes] = None


@dataclass(frozen=True)
class Query:
    t_range: Tuple[int, int]
    expected: Expected


class Oracle:
    """Answers every query kind from the generated arrays alone."""

    def __init__(self, dataset: Dataset, source_id: int = QUERY_SOURCE) -> None:
        self.dataset = dataset
        lane = SOURCES.index(source_id)
        stride = len(SOURCES)
        #: Global batch numbers of this source's batches, in time order.
        self.batch_ids = np.arange(lane, dataset.n_batches, stride)
        self.times = (self.batch_ids + 1) * TICK_NS
        self.values = dataset.values.reshape(dataset.n_batches, BATCH)[lane::stride]

    @property
    def n_batches(self) -> int:
        return len(self.batch_ids)

    def _span(self, t_range: Tuple[int, int]) -> Tuple[int, int]:
        lo = int(np.searchsorted(self.times, t_range[0], "left"))
        hi = int(np.searchsorted(self.times, t_range[1], "right"))
        return lo, hi

    def _payload(self, batch_row: int, offset: int) -> bytes:
        return self.dataset.payloads[int(self.batch_ids[batch_row]) * BATCH + offset]

    def chain_scan(self, t_range: Tuple[int, int]) -> Expected:
        """``Loom.scan``: every record in the window, newest first."""
        lo, hi = self._span(t_range)
        if hi <= lo:
            return Expected(0)
        return Expected(
            count=(hi - lo) * BATCH,
            first=self._payload(hi - 1, BATCH - 1),
            last=self._payload(lo, 0),
        )

    def value_scan(
        self, t_range: Tuple[int, int], v_min: float = -math.inf
    ) -> Expected:
        """``Loom.scan_indexed``: records with ``value >= v_min`` in the
        window, in arrival order."""
        lo, hi = self._span(t_range)
        hits = np.flatnonzero(self.values[lo:hi].ravel() >= v_min)
        if hits.size == 0:
            return Expected(0)

        def payload(flat: int) -> bytes:
            return self._payload(lo + flat // BATCH, flat % BATCH)

        return Expected(
            count=int(hits.size),
            first=payload(int(hits[0])),
            last=payload(int(hits[-1])),
        )

    def maximum(self, t_range: Tuple[int, int]) -> Expected:
        lo, hi = self._span(t_range)
        window = self.values[lo:hi]
        return Expected(count=int(window.size), value=float(window.max()))

    def percentile(self, t_range: Tuple[int, int], p: float) -> Expected:
        """Nearest-rank percentile as Loom defines it: the smallest value
        whose cumulative share is at least ``p`` percent."""
        lo, hi = self._span(t_range)
        window = np.sort(self.values[lo:hi].ravel())
        rank = max(1, math.ceil(p / 100.0 * window.size))
        return Expected(count=int(window.size), value=float(window[rank - 1]))

    def window(self, first_row: int, rows: int) -> Tuple[int, int]:
        """Time range covering ``rows`` consecutive batches of this source."""
        return int(self.times[first_row]), int(self.times[first_row + rows - 1])


#: Query kinds of the in-process mix, in cycle order, with the share of
#: the source's time range each one covers.
MIX_SHARES = {
    "scan_window": 0.05,
    "needle": 1.0,
    "dense": 0.10,
    "agg_summary": 0.80,
    "pctl": 0.20,
}
WINDOWS_PER_KIND = 48


def query_plan(oracle: Oracle, seed: int) -> Dict[str, List[Query]]:
    """Seeded window positions per query kind, each with its reference
    answer worked out here, in set-up, so that checking a sample inside
    the timed phase is a comparison and nothing more."""
    rng = np.random.default_rng([seed, 0x51])
    rows_total = oracle.n_batches
    plan: Dict[str, List[Query]] = {}
    for kind, share in MIX_SHARES.items():
        if kind == "needle":
            t_range = (0, T_MAX)
            plan[kind] = [
                Query(t_range, oracle.value_scan(t_range, NEEDLE_QUERY_MIN))
            ]
            continue
        rows = max(1, round(rows_total * share))
        last_start = max(0, int(rows_total * PREFIX_SHARE) - rows)
        if kind == "agg_summary":
            last_start = max(0, min(last_start, rows_total - rows))
        starts = rng.integers(0, last_start + 1, WINDOWS_PER_KIND)
        queries = []
        for start in starts.tolist():
            t_range = oracle.window(start, rows)
            if kind == "scan_window":
                expected = oracle.chain_scan(t_range)
            elif kind == "dense":
                expected = oracle.value_scan(t_range)
            elif kind == "agg_summary":
                expected = oracle.maximum(t_range)
            else:
                expected = oracle.percentile(t_range, 99.0)
            queries.append(Query(t_range, expected))
        plan[kind] = queries
    return plan


def check_result(result: object, expected: Expected) -> bool:
    """Compare a ``QueryResult`` with the reference answer."""
    count = getattr(result, "count")
    if count != expected.count:
        return False
    if expected.value is not None:
        return getattr(result, "value") == expected.value
    records: Optional[Sequence[object]] = getattr(result, "records")
    if records is None or len(records) != expected.count:
        return False
    if expected.count == 0:
        return True
    return (
        getattr(records[0], "payload") == expected.first
        and getattr(records[-1], "payload") == expected.last
    )
