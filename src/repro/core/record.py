"""Record encoding for the record log.

Every record Loom ingests is framed with a fixed 28-byte header followed by
the raw payload bytes the monitoring daemon passed to ``push`` (Figure 9).
The header carries everything the read path needs to walk the log, plus an
integrity checksum:

``source_id``  (u32)  which source produced the record;
``timestamp``  (u64)  Loom's internal arrival timestamp in nanoseconds
                      (paper section 5.2 — monotonic, assigned on ingest);
``prev_addr``  (u64)  back-pointer to the previous record from the *same*
                      source (``NULL_ADDRESS`` for the first), forming the
                      per-source record chain of Figure 7;
``length``     (u32)  payload length in bytes;
``crc``        (u32)  CRC-32 (:func:`binascii.crc32`) over the first 24
                      header bytes followed by the payload.  Recovery scans
                      and the optional verify-on-read mode use it to detect
                      bit-rot and torn writes that happen to leave a
                      plausible length field.

(The paper's Rust prototype frames records with a 24-byte header; this
reproduction spends 4 more bytes per record on the checksum as part of its
crash-safety layer.)

Records are stored back to back in the record log; a record's address is
the address of its header's first byte.  Records may span chunk and block
boundaries — a record belongs to the chunk containing its *first* byte.
"""

from __future__ import annotations

import struct
from binascii import crc32
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .hybridlog import NULL_ADDRESS

_BODY = struct.Struct("<IQQI")
_HEADER = struct.Struct("<IQQII")
_CRC = struct.Struct("<I")

#: Size in bytes of the fixed record header (body + checksum).
HEADER_SIZE = _HEADER.size  # 28

#: Size in bytes of the checksummed part of the header (everything but
#: the trailing CRC field itself).
BODY_SIZE = _BODY.size  # 24

#: Columnar view of the 24-byte header body.  The fields are naturally
#: aligned at packed offsets, so the dtype's itemsize is exactly
#: ``BODY_SIZE`` and a structured array of bodies is the frame bytes.
BODY_DTYPE = np.dtype(
    [("sid", "<u4"), ("ts", "<u8"), ("prev", "<u8"), ("len", "<u4")]
)
assert BODY_DTYPE.itemsize == BODY_SIZE

#: Byte range of the header body that varies *within* one batch: records
#: of a batch share ``source_id`` and ``timestamp``, so only ``prev_addr``
#: (bytes 12..20) and ``length`` (bytes 20..24) differ record to record.
_VARYING_START = 12


def _build_crc_tables() -> List[np.ndarray]:
    """Per-u16-lane CRC difference tables for the varying body bytes.

    CRC-32 is affine over GF(2): for fixed-length messages,
    ``crc(m) = crc(base) ^ XOR_i T_i[m_i ^ base_i]`` where ``T_i[v]`` is the
    CRC difference caused by byte ``i`` being ``v`` instead of 0.  Bytes
    12..23 are paired into six little-endian u16 lanes so the batched body
    CRC costs six table gathers and five XORs instead of a per-record
    ``crc32`` call over each 24-byte body.
    """
    c_zero = crc32(bytes(BODY_SIZE))
    byte_tables = []
    probe = bytearray(BODY_SIZE)
    for off in range(_VARYING_START, BODY_SIZE):
        table = np.empty(256, np.uint32)
        for v in range(256):
            probe[off] = v
            table[v] = crc32(bytes(probe)) ^ c_zero
        probe[off] = 0
        byte_tables.append(table)
    idx = np.arange(65536, dtype=np.uint32)
    lo = idx & 0xFF
    hi = idx >> 8
    return [byte_tables[2 * k][lo] ^ byte_tables[2 * k + 1][hi] for k in range(6)]


#: Six 64 Ki-entry u32 tables (1.5 MiB total), built once at import.
_CRC_LANE_TABLES = _build_crc_tables()
#: First u16 lane of the varying region inside the 12-lane body view.
_VARYING_LANE = _VARYING_START // 2


@dataclass(frozen=True)
class Record:
    """A decoded record: header fields plus payload and its own address."""

    source_id: int
    timestamp: int
    prev_addr: int
    payload: "bytes | memoryview"
    address: int

    @property
    def size(self) -> int:
        """Total on-log footprint (header + payload)."""
        return HEADER_SIZE + len(self.payload)

    @property
    def has_prev(self) -> bool:
        return self.prev_addr != NULL_ADDRESS


def record_crc(header_body: "bytes | memoryview", payload: "bytes | memoryview") -> int:
    """CRC-32 of a record: header body bytes chained with the payload."""
    return crc32(payload, crc32(header_body))


def encode_header(
    source_id: int, timestamp: int, prev_addr: int, payload: bytes
) -> bytes:
    """Pack a record header (checksum included) for the given payload."""
    body = _BODY.pack(source_id, timestamp, prev_addr, len(payload))
    return body + _CRC.pack(record_crc(body, payload))


def encode_record(
    source_id: int, timestamp: int, prev_addr: int, payload: bytes
) -> bytes:
    """Frame a full record (header + payload) ready for the record log."""
    body = _BODY.pack(source_id, timestamp, prev_addr, len(payload))
    return body + _CRC.pack(record_crc(body, payload)) + payload


def encode_batch_arrays(
    source_id: int,
    timestamp: int,
    prev_addr: int,
    payloads: Sequence[bytes],
    base_address: int,
) -> "Tuple[bytes, np.ndarray]":
    """Frame a whole batch of records into one contiguous buffer, columnar.

    This is the write-side batching fast path.  Instead of packing records
    one at a time, the batch is built as numpy *columns*:

    * header bodies are one structured array (:data:`BODY_DTYPE`) whose
      ``prev``/``len`` columns come from a cumulative-offset vector —
      because the hybrid log assigns contiguous logical addresses, every
      back-pointer in the batch's chain is computed arithmetically from
      ``base_address`` without touching the log;
    * header CRCs are computed per batch, not per record: the body CRC is a
      table-driven affine delta (only the ``prev``/``len`` bytes vary inside
      a batch, see :func:`_build_crc_tables`), chained into one ``crc32``
      call per payload;
    * the frame buffer is emitted with a single ``tobytes()`` per batch —
      for equal-length payloads via a dense ``(n, record_size)`` matrix,
      otherwise via two fancy-index scatters.

    All records in the batch share one arrival ``timestamp`` (they arrived
    together); ``prev_addr`` is the source's chain head before the batch.
    The output is byte-identical to one :func:`encode_record` per payload —
    the equivalence property tests pin that contract against a scalar
    reference encoder.

    Returns ``(buffer, addresses)`` where ``addresses[i]`` is the logical
    address record ``i`` will occupy once the buffer is appended at
    ``base_address``, as the int64 offset column itself
    (``offsets + base_address``) — the batched ingest path segments the
    batch at chunk boundaries with vectorized arithmetic on this column.
    """
    n = len(payloads)
    if n == 0:
        return b"", np.empty(0, np.int64)

    first_len = len(payloads[0])
    lens = list(map(len, payloads))
    equal_len = lens.count(first_len) == n

    if equal_len:
        record_size = HEADER_SIZE + first_len
        offsets = np.arange(0, n * record_size, record_size, dtype=np.int64)
    else:
        lengths = np.array(lens, np.int64)
        offsets = np.empty(n, np.int64)
        offsets[0] = 0
        np.cumsum(lengths[:-1] + HEADER_SIZE, out=offsets[1:])
    addresses = offsets + base_address

    bodies = np.empty(n, BODY_DTYPE)
    bodies["sid"] = source_id
    bodies["ts"] = timestamp
    # Back-pointers are the address column shifted down one: record i
    # chains to record i-1, and the first record to the pre-batch head.
    prev_col = bodies["prev"]
    prev_col[0] = prev_addr
    prev_col[1:] = addresses[:-1]
    bodies["len"] = first_len if equal_len else lengths

    # Batched CRC chain: affine body delta, then one crc32 per payload.
    base_crc = crc32(_BODY.pack(source_id, timestamp, 0, 0))
    lanes = bodies.view(np.uint16).reshape(n, BODY_SIZE // 2)
    if equal_len:
        # The length lanes are constant across the batch; fold their
        # delta into the scalar base instead of two vector gathers.
        base_crc ^= int(_CRC_LANE_TABLES[4][first_len & 0xFFFF])
        base_crc ^= int(_CRC_LANE_TABLES[5][(first_len >> 16) & 0xFFFF])
        varying_lanes = 4
    else:
        varying_lanes = 6
    body_crcs = _CRC_LANE_TABLES[0][lanes[:, _VARYING_LANE]]
    for k in range(1, varying_lanes):
        body_crcs ^= _CRC_LANE_TABLES[k][lanes[:, _VARYING_LANE + k]]
    np.bitwise_xor(body_crcs, np.uint32(base_crc), out=body_crcs)
    crcs = np.fromiter(
        map(crc32, payloads, body_crcs.tolist()), np.uint32, n
    )

    blob = b"".join(payloads)
    if equal_len:
        out = np.empty((n, record_size), np.uint8)
        out[:, :BODY_SIZE] = bodies.view(np.uint8).reshape(n, BODY_SIZE)
        out[:, BODY_SIZE:HEADER_SIZE] = crcs.view(np.uint8).reshape(n, 4)
        if first_len:
            out[:, HEADER_SIZE:] = np.frombuffer(blob, np.uint8).reshape(
                n, first_len
            )
        buffer = out.tobytes()
    else:
        total = HEADER_SIZE * n + len(blob)
        flat = np.empty(total, np.uint8)
        headers = np.empty((n, HEADER_SIZE), np.uint8)
        headers[:, :BODY_SIZE] = bodies.view(np.uint8).reshape(n, BODY_SIZE)
        headers[:, BODY_SIZE:] = crcs.view(np.uint8).reshape(n, 4)
        header_pos = offsets[:, None] + np.arange(HEADER_SIZE)
        flat[header_pos.ravel()] = headers.ravel()
        if blob:
            # Scatter payload bytes: byte j of the blob belongs to record
            # owner[j] and lands at that record's payload start plus the
            # byte's offset within its payload.
            owner = np.repeat(np.arange(n), lengths)
            payload_starts = np.zeros(n, np.int64)
            np.cumsum(lengths[:-1], out=payload_starts[1:])
            within = np.arange(len(blob), dtype=np.int64)
            positions = (offsets + HEADER_SIZE)[owner] + (
                within - payload_starts[owner]
            )
            flat[positions] = np.frombuffer(blob, np.uint8)
        buffer = flat.tobytes()
    return buffer, addresses


def decode_header(data: bytes, offset: int = 0) -> "tuple[int, int, int, int]":
    """Unpack ``(source_id, timestamp, prev_addr, length)`` from header bytes."""
    return _BODY.unpack_from(data, offset)


def decode_header_crc(data: bytes, offset: int = 0) -> int:
    """Unpack the stored checksum from a record header."""
    return _CRC.unpack_from(data, offset + BODY_SIZE)[0]


def verify_record_bytes(data: "bytes | bytearray", offset: int, length: int) -> bool:
    """CRC-check a fully framed record (header + payload) inside ``data``.

    ``offset`` is the header start and ``length`` the payload length the
    header claims; the caller has already bounds-checked that the frame
    fits.  Returns True when the stored checksum matches the bytes.
    """
    view = memoryview(data)
    stored = _CRC.unpack_from(data, offset + BODY_SIZE)[0]
    payload_start = offset + HEADER_SIZE
    actual = crc32(
        view[payload_start : payload_start + length],
        crc32(view[offset : offset + BODY_SIZE]),
    )
    return stored == actual


def record_size(payload_len: int) -> int:
    """On-log footprint of a record with a payload of ``payload_len`` bytes."""
    return HEADER_SIZE + payload_len
