"""Chunk summaries: the entries of the chunk index (paper Figure 8).

While records accumulate in the *active chunk* of the record log, Loom
incrementally maintains one :class:`ChunkSummary` for it.  When the chunk
fills and becomes immutable, the summary is appended to the chunk index and
only then becomes visible to queries (this delayed exposure is what lets
ingest avoid any coordination with readers).

A summary holds, per ``(source, index)`` pair with records in the chunk,
one :class:`BinStats` per histogram bin that received at least one value:
``count``, ``sum``, ``min``, ``max``, plus the arrival-timestamp range of
the contributing records.  It also tracks, per source, the record count,
timestamp range, and the address of the source's *last* record in the chunk
(the entry point for walking the back-pointer chain within the chunk).

Summaries are serialized into the chunk-index hybrid log so the index has
the same persistence story as the record log; a decoded in-memory mirror of
the finalized summaries is what queries actually scan, matching the paper's
observation that a large fraction of the (much smaller) index logs stays in
memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def group_rows(
    source_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by source, sources in order of first appearance.

    Returns ``(sids, first, last, inverse)``: each source's id and the
    indexes of its first and last rows, and each row's group.
    """
    sids, first, inverse = np.unique(source_ids, return_index=True, return_inverse=True)
    last = len(source_ids) - 1 - np.unique(source_ids[::-1], return_index=True)[1]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return sids[order], first[order], last[order], rank[inverse]


@dataclass
class BinStats:
    """Statistics for values of one (source, index) falling into one bin."""

    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    t_min: int = 0
    t_max: int = 0

    def update(self, value: float, timestamp: int) -> None:
        if self.count == 0:
            self.t_min = timestamp
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.t_max = timestamp

    def merge(self, other: "BinStats") -> None:
        """Fold another BinStats into this one (used by partial aggregation)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.sum = other.sum
            self.min = other.min
            self.max = other.max
            self.t_min = other.t_min
            self.t_max = other.t_max
            return
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        if other.t_min < self.t_min:
            self.t_min = other.t_min
        if other.t_max > self.t_max:
            self.t_max = other.t_max


@dataclass
class SourceChunkInfo:
    """Per-source bookkeeping inside one chunk."""

    record_count: int = 0
    t_min: int = 0
    t_max: int = 0
    #: Address of this source's most recent record in the chunk; walking the
    #: back-pointer chain from here visits all of the source's records in
    #: the chunk (and continues into earlier chunks).
    last_record_addr: int = 0

    def update(self, timestamp: int, address: int) -> None:
        if self.record_count == 0:
            self.t_min = timestamp
        self.record_count += 1
        self.t_max = timestamp
        self.last_record_addr = address


@dataclass
class ChunkSummary:
    """Summary of one fixed-size chunk of the record log."""

    chunk_id: int
    start_addr: int
    end_addr: int  # exclusive
    t_min: int = 0
    t_max: int = 0
    record_count: int = 0
    sources: Dict[int, SourceChunkInfo] = field(default_factory=dict)
    #: bins[(source_id, index_id)][bin_idx] -> BinStats
    bins: Dict[Tuple[int, int], Dict[int, BinStats]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Incremental maintenance during ingest
    # ------------------------------------------------------------------
    def add_record(self, source_id: int, timestamp: int, address: int) -> None:
        """Account for a record landing in this chunk (cheap, no indexing)."""
        if self.record_count == 0:
            self.t_min = timestamp
        self.record_count += 1
        self.t_max = timestamp
        info = self.sources.get(source_id)
        if info is None:
            info = self.sources[source_id] = SourceChunkInfo()
        info.update(timestamp, address)

    def add_records(
        self, source_id: int, timestamp: int, addresses: Sequence[int]
    ) -> None:
        """Batch form of :meth:`add_record` for a run of same-source
        records sharing one arrival timestamp (the ``push_many`` path).

        Equivalent to calling :meth:`add_record` once per address, but
        touches the per-source dict once for the whole run.
        """
        n = len(addresses)
        if n == 0:
            return
        if self.record_count == 0:
            self.t_min = timestamp
        self.record_count += n
        self.t_max = timestamp
        info = self.sources.get(source_id)
        if info is None:
            info = self.sources[source_id] = SourceChunkInfo()
        if info.record_count == 0:
            info.t_min = timestamp
        info.record_count += n
        info.t_max = timestamp
        info.last_record_addr = addresses[-1]

    @classmethod
    def from_rows(
        cls,
        chunk_id: int,
        start_addr: int,
        end_addr: int,
        source_ids: np.ndarray,
        timestamps: np.ndarray,
        addresses: np.ndarray,
    ) -> "ChunkSummary":
        """The summary one :meth:`add_record` per row would build from a
        non-empty run of rows of any sources, in address order, in one
        columnar fold (recovery's re-finalize of a lost chunk): each
        source's first and last rows give its timestamps and chain head."""
        sids, first, last, inverse = group_rows(source_ids)
        rows = zip(
            sids.tolist(),
            np.bincount(inverse).tolist(),
            timestamps[first].tolist(),
            timestamps[last].tolist(),
            addresses[last].tolist(),
        )
        return cls(
            chunk_id, start_addr, end_addr, int(timestamps[0]), int(timestamps[-1]),
            len(source_ids), {sid: SourceChunkInfo(*info) for sid, *info in rows},
        )

    def add_indexed_value(
        self,
        source_id: int,
        index_id: int,
        bin_idx: int,
        value: float,
        timestamp: int,
    ) -> None:
        """Account for a record's UDF value in its histogram bin."""
        key = (source_id, index_id)
        per_bin = self.bins.get(key)
        if per_bin is None:
            per_bin = self.bins[key] = {}
        stats = per_bin.get(bin_idx)
        if stats is None:
            stats = per_bin[bin_idx] = BinStats()
        stats.update(value, timestamp)

    def add_indexed_values(
        self,
        source_id: int,
        index_id: int,
        binned_values: Iterable[Tuple[int, float]],
        timestamp: int,
    ) -> None:
        """Bulk form of :meth:`add_indexed_value` for one batch segment.

        ``binned_values`` is ``(bin_idx, value)`` pairs in arrival order,
        all sharing one arrival ``timestamp``.  Values are grouped per bin
        into local accumulators first, so the nested ``bins`` dicts are
        touched once per occupied bin instead of once per record.

        Per-bin values are accumulated in arrival order, so for values
        whose running sums are exactly representable (integers, telemetry
        counters) the resulting ``BinStats`` are bit-identical to the
        per-record path; otherwise sums may differ in the last ulp from a
        differently-batched ingest of the same stream (floating-point
        addition is not associative).
        """
        key = (source_id, index_id)
        per_bin = self.bins.get(key)
        if per_bin is None:
            per_bin = self.bins[key] = {}
        local: Dict[int, List[float]] = {}
        for bin_idx, value in binned_values:
            acc = local.get(bin_idx)
            if acc is None:
                local[bin_idx] = [1, value, value, value]
            else:
                acc[0] += 1
                acc[1] += value
                if value < acc[2]:
                    acc[2] = value
                if value > acc[3]:
                    acc[3] = value
        for bin_idx, (count, total, low, high) in local.items():
            stats = per_bin.get(bin_idx)
            if stats is None:
                stats = per_bin[bin_idx] = BinStats()
            if stats.count == 0:
                stats.t_min = timestamp
            stats.count += count
            stats.sum += total
            if low < stats.min:
                stats.min = low
            if high > stats.max:
                stats.max = high
            stats.t_max = timestamp

    def add_indexed_values_array(
        self,
        source_id: int,
        index_id: int,
        bins: np.ndarray,
        values: np.ndarray,
        timestamp: int,
    ) -> None:
        """Columnar form of :meth:`add_indexed_values`.

        ``bins``/``values`` are parallel columns for one batch segment, in
        arrival order, sharing one arrival ``timestamp``.  Per-bin count,
        sum, min, and max are folded with vectorized reductions
        (``np.bincount`` accumulates weights in input order, so sums see
        the same addition sequence as the scalar loop).

        Bit-exactness caveats force a scalar fallback in two cases the
        vectorized reductions cannot reproduce: NaN values (the scalar
        strict-comparison fold *keeps* a NaN that arrives first in a bin,
        where ``minimum.at`` would not) and negative zeros (``bincount``
        seeds its accumulator with +0.0, so an all ``-0.0`` bin would sum
        to ``+0.0`` instead of ``-0.0``).
        """
        n = len(values)
        if n == 0:
            return
        if bool(np.isnan(values).any()) or bool(
            ((values == 0.0) & np.signbit(values)).any()
        ):
            self.add_indexed_values(
                source_id,
                index_id,
                zip(bins.tolist(), values.tolist()),
                timestamp,
            )
            return
        key = (source_id, index_id)
        per_bin = self.bins.get(key)
        if per_bin is None:
            per_bin = self.bins[key] = {}
        n_bins = int(bins.max()) + 1
        counts = np.bincount(bins, minlength=n_bins)
        sums = np.bincount(bins, weights=values, minlength=n_bins)
        mins = np.full(n_bins, np.inf)
        maxs = np.full(n_bins, -np.inf)
        np.minimum.at(mins, bins, values)
        np.maximum.at(maxs, bins, values)
        for bin_idx in np.flatnonzero(counts).tolist():
            stats = per_bin.get(bin_idx)
            if stats is None:
                stats = per_bin[bin_idx] = BinStats()
            if stats.count == 0:
                stats.t_min = timestamp
            stats.count += int(counts[bin_idx])
            stats.sum += float(sums[bin_idx])
            low = float(mins[bin_idx])
            high = float(maxs[bin_idx])
            if low < stats.min:
                stats.min = low
            if high > stats.max:
                stats.max = high
            stats.t_max = timestamp

    # ------------------------------------------------------------------
    # Query-side helpers
    # ------------------------------------------------------------------
    def source_info(self, source_id: int) -> Optional[SourceChunkInfo]:
        return self.sources.get(source_id)

    def bins_for(self, source_id: int, index_id: int) -> Dict[int, BinStats]:
        return self.bins.get((source_id, index_id), {})

    def overlaps_time(self, t_start: int, t_end: int) -> bool:
        """Does the chunk's timestamp range intersect [t_start, t_end]?"""
        return self.record_count > 0 and self.t_min <= t_end and self.t_max >= t_start

    def fully_inside_time(self, t_start: int, t_end: int) -> bool:
        """Is every record in the chunk within [t_start, t_end]?"""
        return self.record_count > 0 and t_start <= self.t_min and self.t_max <= t_end

    # ------------------------------------------------------------------
    # Serialization (for the chunk-index hybrid log)
    # ------------------------------------------------------------------
    _HEAD = struct.Struct("<QQQQQIII")
    _SRC = struct.Struct("<IIQQQ")
    _BIN = struct.Struct("<IIIIQddddQQ")

    def encode(self) -> bytes:
        """Serialize to bytes for appending to the chunk-index log."""
        n_bins = sum(len(v) for v in self.bins.values())
        out = bytearray(
            self._HEAD.pack(
                self.chunk_id,
                self.start_addr,
                self.end_addr,
                self.t_min,
                self.t_max,
                self.record_count,
                len(self.sources),
                n_bins,
            )
        )
        for sid, info in sorted(self.sources.items()):
            out += self._SRC.pack(
                sid, info.record_count, info.t_min, info.t_max, info.last_record_addr
            )
        for (sid, iid), per_bin in sorted(self.bins.items()):
            for bin_idx, st in sorted(per_bin.items()):
                out += self._BIN.pack(
                    sid, iid, bin_idx, 0, st.count, st.sum, st.min, st.max, 0.0,
                    st.t_min, st.t_max,
                )
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "ChunkSummary":
        """Inverse of :meth:`encode`."""
        (
            chunk_id,
            start_addr,
            end_addr,
            t_min,
            t_max,
            record_count,
            n_sources,
            n_bins,
        ) = cls._HEAD.unpack_from(data, 0)
        summary = cls(
            chunk_id=chunk_id,
            start_addr=start_addr,
            end_addr=end_addr,
            t_min=t_min,
            t_max=t_max,
            record_count=record_count,
        )
        off = cls._HEAD.size
        for _ in range(n_sources):
            sid, cnt, st_min, st_max, last = cls._SRC.unpack_from(data, off)
            off += cls._SRC.size
            summary.sources[sid] = SourceChunkInfo(
                record_count=cnt, t_min=st_min, t_max=st_max, last_record_addr=last
            )
        for _ in range(n_bins):
            sid, iid, bin_idx, _pad, cnt, s, mn, mx, _r, bt_min, bt_max = cls._BIN.unpack_from(
                data, off
            )
            off += cls._BIN.size
            summary.bins.setdefault((sid, iid), {})[bin_idx] = BinStats(
                count=cnt, sum=s, min=mn, max=mx, t_min=bt_min, t_max=bt_max
            )
        return summary

    @property
    def encoded_size(self) -> int:
        n_bins = sum(len(v) for v in self.bins.values())
        return self._HEAD.size + len(self.sources) * self._SRC.size + n_bins * self._BIN.size
