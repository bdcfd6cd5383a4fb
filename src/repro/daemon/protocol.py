"""Wire protocol of the networked Loom service (DESIGN.md section 12).

A deliberately small length-prefixed binary framing, shared by the
asyncio server (:mod:`repro.daemon.server`) and the blocking client
(:mod:`repro.daemon.client`):

::

    frame     := u32_be total_len | payload          (total_len = len(payload))
    payload   := u16_be header_len | header | body
    header    := UTF-8 JSON object (control plane: op, args, stats, ...)
    body      := raw bytes (data plane: record payloads, scan results)

JSON carries the control plane — cheap to evolve, trivially debuggable
with ``tcpdump`` — while bulk record bytes ride in the opaque body so
telemetry payloads are never base64-inflated or JSON-escaped.  The body
layout is op-specific:

* **ingest** requests concatenate the batch's payloads; the header's
  ``sizes`` array carries the split points.
* **scan** responses concatenate per-record entries, each
  ``u64_be timestamp | u64_be address | u32_be len | payload``; the
  header carries the record count.

Every request header carries ``op`` plus ``deadline_ms`` — the client's
*remaining* time budget, which the server uses to bound queue waits and
query execution (deadline propagation).  Every response carries ``ok``;
refusals under backpressure use ``status: "retry_after"`` with a
``retry_after_ms`` hint instead of an error, so clients distinguish
"back off and resend" from "this request can never succeed".

Framing errors raise :class:`~repro.core.errors.TransportError`; both
ends treat a torn frame as a connection death, never as data.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import TransportError
from ..core.operators import QueryResult, QueryStats, Records
from ..core.record import Record
from ..core.record_log import RecordBatch, gather_payloads

#: Frame and header length prefixes.
LEN_PREFIX = struct.Struct(">I")
HEADER_PREFIX = struct.Struct(">H")
#: Per-record entry prefix in scan response bodies.
RECORD_ENTRY = struct.Struct(">QQI")

#: Hard ceilings: a peer announcing more than this is garbage or hostile;
#: fail the connection instead of allocating.
MAX_FRAME_BYTES = 64 << 20
MAX_HEADER_BYTES = 1 << 16

#: Protocol revision, sent in every request and checked by the server.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(header: Dict[str, object], body: bytes = b"") -> bytes:
    """Serialize one frame (length prefix + JSON header + binary body)."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES - 1:
        raise TransportError(
            f"header too large: {len(header_bytes)} bytes"
        )
    total = HEADER_PREFIX.size + len(header_bytes) + len(body)
    if total > MAX_FRAME_BYTES:
        raise TransportError(f"frame too large: {total} bytes")
    return b"".join(
        (
            LEN_PREFIX.pack(total),
            HEADER_PREFIX.pack(len(header_bytes)),
            header_bytes,
            body,
        )
    )


def split_frame(payload: bytes) -> Tuple[Dict[str, object], bytes]:
    """Split a received frame payload into (header dict, body bytes)."""
    if len(payload) < HEADER_PREFIX.size:
        raise TransportError(f"frame too short: {len(payload)} bytes")
    (header_len,) = HEADER_PREFIX.unpack_from(payload)
    header_end = HEADER_PREFIX.size + header_len
    if header_end > len(payload):
        raise TransportError(
            f"torn header: {header_len} announced, "
            f"{len(payload) - HEADER_PREFIX.size} present"
        )
    try:
        header = json.loads(payload[HEADER_PREFIX.size:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise TransportError("frame header must be a JSON object")
    return header, payload[header_end:]


def read_frame(read_exact: Callable[[int], bytes]) -> Tuple[Dict[str, object], bytes]:
    """Read one frame using a blocking ``read_exact(n) -> n bytes`` callable.

    ``read_exact`` must either return exactly ``n`` bytes or raise
    :class:`TransportError` (a short read is a torn frame).  The length
    prefix is validated *before* the body read, so a hostile peer
    announcing 4 GiB costs a rejected header, not an allocation.
    """
    try:
        (total,) = LEN_PREFIX.unpack(read_exact(LEN_PREFIX.size))
    except struct.error as exc:
        raise TransportError(f"torn length prefix: {exc}") from exc
    if total > MAX_FRAME_BYTES:
        raise TransportError(f"peer announced oversized frame: {total} bytes")
    return split_frame(read_exact(total))


# ----------------------------------------------------------------------
# Ingest batch bodies
# ----------------------------------------------------------------------
def pack_payloads(payloads: Sequence[bytes]) -> Tuple[List[int], bytes]:
    """Concatenate a batch's payloads; returns (sizes, body)."""
    sizes = [len(p) for p in payloads]
    return sizes, b"".join(bytes(p) for p in payloads)


def unpack_payloads(sizes: Iterable[int], body: bytes) -> List[bytes]:
    """Split an ingest body back into payloads, validating the sizes.

    ``sizes`` rides in the JSON header, so each element is attacker-
    typed: anything but a non-negative int consistent with the body is a
    :class:`TransportError`, never a TypeError.
    """
    out: List[bytes] = []
    pos = 0
    for size in sizes:
        if isinstance(size, bool) or not isinstance(size, int):
            raise TransportError(
                f"ingest size must be an integer, got {type(size).__name__}"
            )
        if size < 0 or pos + size > len(body):
            raise TransportError("ingest body shorter than announced sizes")
        out.append(body[pos:pos + size])
        pos += size
    if pos != len(body):
        raise TransportError(
            f"ingest body has {len(body) - pos} trailing bytes"
        )
    return out


# ----------------------------------------------------------------------
# Scan result bodies
# ----------------------------------------------------------------------
#: One scan-body entry header as a numpy row (``RECORD_ENTRY``'s layout).
_ENTRY_DTYPE = np.dtype([("ts", ">u8"), ("addr", ">u8"), ("len", ">u4")])
assert _ENTRY_DTYPE.itemsize == RECORD_ENTRY.size


def pack_records(records: Sequence[Record]) -> bytes:
    """Serialize scan results: per record, timestamp/address/len + payload.

    A :class:`~repro.core.operators.Records` result is packed straight
    from its batch columns — two scatters per batch, no ``Record`` built.
    """
    if not isinstance(records, Records):
        records = Records([RecordBatch.from_records(0, records)] if records else [])
    return b"".join(_pack_batch(batch) for batch in records.batches)


def _pack_batch(batch: RecordBatch) -> bytes:
    n = len(batch)
    bounds = batch.bounds
    lengths = np.diff(bounds)
    entries = np.empty(n, _ENTRY_DTYPE)
    entries["ts"] = batch.timestamps
    entries["addr"] = batch.addresses
    entries["len"] = lengths
    # Entry i sits after i headers and the payloads before it.
    starts = bounds[:-1] + RECORD_ENTRY.size * np.arange(n)
    out = np.empty(int(bounds[-1]) + RECORD_ENTRY.size * n, np.uint8)
    out[(starts[:, None] + np.arange(RECORD_ENTRY.size)).ravel()] = entries.view(np.uint8)
    shift = starts + RECORD_ENTRY.size - bounds[:-1]
    out[np.repeat(shift, lengths) + np.arange(int(bounds[-1]))] = np.frombuffer(
        batch.blob, np.uint8
    )
    return out.tobytes()


def unpack_records(body: bytes, source_id: int = 0) -> Records:
    """Decode scan results into the same lazy sequence a local scan
    returns.  The wire does not carry back-pointers (they are meaningless
    off-host), so ``prev_addr`` is zeroed."""
    starts: List[int] = []
    pos = 0
    while pos < len(body):
        if pos + RECORD_ENTRY.size > len(body):
            raise TransportError("torn record entry in scan body")
        starts.append(pos)
        pos += RECORD_ENTRY.size + RECORD_ENTRY.unpack_from(body, pos)[2]
        if pos > len(body):
            raise TransportError("record payload shorter than announced")
    if not starts:
        return Records(())
    raw = np.frombuffer(body, np.uint8)
    offsets = np.array(starts, np.int64)
    entries = raw[(offsets[:, None] + np.arange(RECORD_ENTRY.size)).ravel()].view(
        _ENTRY_DTYPE
    )
    bounds, blob = gather_payloads(
        raw, offsets + RECORD_ENTRY.size, entries["len"].astype(np.int64)
    )
    return Records(
        [
            RecordBatch(
                source_id=source_id,
                timestamps=entries["ts"].astype(np.uint64),
                addresses=entries["addr"].astype(np.uint64),
                prev_addrs=np.zeros(len(starts), np.uint64),
                bounds=bounds,
                blob=blob,
            )
        ]
    )


# ----------------------------------------------------------------------
# QueryStats / QueryResult <-> wire
# ----------------------------------------------------------------------
def stats_to_wire(stats: QueryStats) -> Dict[str, object]:
    return asdict(stats)


def stats_from_wire(raw: object) -> QueryStats:
    """Rebuild QueryStats from a response header field.

    Tolerant by design (stats are advisory), but never type-confused:
    each declared field only accepts a JSON value of its own type —
    a hostile ``stats`` object cannot plant strings on counters the
    caller will do arithmetic on, or a dict where a shard list belongs.
    """
    stats = QueryStats()
    if not isinstance(raw, dict):
        return stats
    for key, value in raw.items():
        if not isinstance(key, str) or not hasattr(stats, key):
            continue
        declared = getattr(stats, key)
        if isinstance(declared, bool):
            if isinstance(value, bool):
                setattr(stats, key, value)
        elif isinstance(declared, (int, float)):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                setattr(stats, key, value)
        elif isinstance(declared, list):
            if isinstance(value, list) and all(
                isinstance(item, str) for item in value
            ):
                setattr(stats, key, value)
    return stats


def _wire_int(value: object, what: str) -> int:
    """Coerce a JSON header field to int or die with a protocol error."""
    try:
        if isinstance(value, bool):
            raise TypeError("bool is not a wire integer")
        return int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError) as exc:
        raise TransportError(f"malformed {what}: {value!r}") from exc


def _wire_float(value: object, what: str) -> float:
    """Coerce a JSON header field to float or die with a protocol error."""
    try:
        if isinstance(value, bool):
            raise TypeError("bool is not a wire number")
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise TransportError(f"malformed {what}: {value!r}") from exc


def result_to_wire(result: QueryResult) -> Tuple[Dict[str, object], bytes]:
    """Flatten a QueryResult into (header fields, body bytes)."""
    header: Dict[str, object] = {
        "ok": True,
        "count": result.count,
        "stats": stats_to_wire(result.stats),
    }
    if result.source is not None:
        header["source"] = result.source
    if result.value is not None:
        header["value"] = result.value
    if result.bins is not None:
        header["bins"] = {str(k): v for k, v in result.bins.items()}
    if result.values is not None:
        header["values"] = result.values
    body = b""
    if result.records is not None:
        header["records"] = len(result.records)
        body = pack_records(result.records)
    return header, body


def result_from_wire(header: Dict[str, object], body: bytes) -> QueryResult:
    """Rebuild a QueryResult from a response frame.

    Every field of ``header`` came off the wire as JSON, so every
    conversion here is guarded: a malformed field raises
    :class:`TransportError` (the client's typed protocol failure), never
    a bare ValueError/TypeError from deep inside a comprehension.
    """
    bins_raw = header.get("bins")
    bins: Optional[Dict[int, int]] = None
    if isinstance(bins_raw, dict):
        bins = {
            _wire_int(k, "bins key"): _wire_int(v, "bins count")
            for k, v in bins_raw.items()
        }
    values_raw = header.get("values")
    values: Optional[List[float]] = None
    if isinstance(values_raw, list):
        values = [_wire_float(v, "values entry") for v in values_raw]
    records: Optional[Records] = None
    if "records" in header:
        announced = _wire_int(header["records"], "record count")
        records = unpack_records(body)
        if len(records) != announced:
            raise TransportError(
                f"scan body holds {len(records)} records, "
                f"header announced {announced}"
            )
    raw_value = header.get("value")
    return QueryResult(
        stats=stats_from_wire(header.get("stats")),
        records=records,
        value=_wire_float(raw_value, "value") if raw_value is not None else None,
        count=_wire_int(header.get("count", 0), "count"),
        source=header.get("source") if isinstance(header.get("source"), str) else None,
        bins=bins,
        values=values,
    )
