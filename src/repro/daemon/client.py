"""The resilient Loom client: deadlines, retries, idempotent resend.

:class:`LoomClient` is the blocking counterpart of
:class:`~repro.daemon.server.LoomServer`.  Its request loop implements
the client half of the robustness contract (DESIGN.md §12):

**Deadline propagation.**  Every call carries a time budget.  The
*remaining* budget rides in each request's ``deadline_ms`` header, so
the server never works on an answer the client has already given up on;
when the budget runs out the client raises
:class:`~repro.core.errors.DeadlineExceededError` rather than waiting.

**Jittered exponential backoff.**  Transport failures and
``RETRY_AFTER`` refusals are retried with exponentially growing,
jitter-scaled delays (seeded RNG: test runs are reproducible), clipped
to the remaining budget.  A server-provided ``retry_after_ms`` hint
floors the delay — the server knows its drain rate better than the
client does.

**Idempotent resend.**  Ingest batches carry a client-assigned
``(client_id, seq)`` key; resending after a lost ACK is absorbed by the
server's dedup window, so ingest is effectively-once even though the
wire is at-least-once.  Query verbs are read-only and safely retried
as-is.

**Circuit breaking.**  After ``circuit_threshold`` consecutive
request-level failures the client *opens*: calls fail fast with
:class:`~repro.core.errors.CircuitOpenError` (no connection attempt)
until a cooldown elapses, then one trial request probes the server
(half-open).  A fleet of clients hammering a dead server with full
retry schedules is a self-inflicted DDoS; the breaker converts that
into one probe per cooldown.

A client is also a node backend of
:class:`~repro.daemon.distributed.LoomCoordinator`: its query verbs have
the signatures the coordinator calls, so a coordinator runs unchanged
over in-process daemons or TCP nodes.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    LoomError,
    StorageError,
    TransportError,
)
from ..core.histogram import HistogramSpec
from ..core.hybridlog import Health
from ..core.operators import NEG_INF, POS_INF, QueryResult
from .protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    pack_payloads,
    result_from_wire,
    split_frame,
)
from .transport import TcpTransport, Transport

_CLIENT_IDS = itertools.count(1)

#: Server error kinds -> client-side exception types.
_ERROR_TYPES: Dict[str, type] = {
    "deadline": DeadlineExceededError,
    "storage": StorageError,
    "protocol": TransportError,
    "loom": LoomError,
    "internal": LoomError,
}


class LoomClient:
    """A blocking client for the networked Loom service.

    Args:
        host/port: server address (ignored when ``transport`` is given).
        transport: inject a :class:`~repro.daemon.transport.Transport`
            (the fault tests wrap TCP in a
            :class:`~repro.daemon.transport.FaultInjectingTransport`).
        client_id: dedup namespace for this client's batch sequence
            numbers; defaults to a process-unique id.
        deadline_s: default per-call time budget.
        attempt_timeout_s: I/O timeout of the *first* attempt within a
            call; it doubles per retry up to the remaining budget.  A
            dropped frame therefore costs one attempt-timeout, not the
            whole deadline, while slow-but-alive servers still get the
            full budget by the later attempts.
        backoff_base_s / backoff_cap_s: retry delay schedule
            (``base * 2**attempt`` capped, then jitter-scaled).
        circuit_threshold: consecutive failed *calls* before the breaker
            opens; ``0`` disables the breaker.
        circuit_cooldown_s: fail-fast window while open.
        rng_seed: backoff jitter seed (deterministic tests).
        sleep / now: injectable time sources for tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        transport: Optional[Transport] = None,
        client_id: Optional[str] = None,
        deadline_s: float = 5.0,
        attempt_timeout_s: float = 0.5,
        backoff_base_s: float = 0.005,
        backoff_cap_s: float = 0.25,
        circuit_threshold: int = 5,
        circuit_cooldown_s: float = 0.5,
        rng_seed: int = 0x100F,
        sleep: Callable[[float], None] = time.sleep,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        self._transport = (
            transport if transport is not None else TcpTransport(host, port)
        )
        self.client_id = (
            client_id
            if client_id is not None
            else f"c{os.getpid()}-{next(_CLIENT_IDS)}"
        )
        self.deadline_s = deadline_s
        self.attempt_timeout_s = attempt_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.circuit_threshold = circuit_threshold
        self.circuit_cooldown_s = circuit_cooldown_s
        self._rng = random.Random(rng_seed)
        self._sleep = sleep
        self._now = now
        self._seq = 0
        self._consecutive_failures = 0
        self._open_until: Optional[float] = None
        #: Visible retry economics, assertable by tests.
        self.retries = 0
        self.backpressure_hits = 0
        self.deduped_acks = 0
        self.records_sent = 0

    # ------------------------------------------------------------------
    # Circuit breaker
    # ------------------------------------------------------------------
    @property
    def circuit_open(self) -> bool:
        return (
            self._open_until is not None and self._now() < self._open_until
        )

    def _check_circuit(self) -> None:
        if self.circuit_threshold <= 0 or self._open_until is None:
            return
        remaining = self._open_until - self._now()
        if remaining > 0:
            raise CircuitOpenError(
                f"circuit open for another {remaining * 1000:.0f} ms "
                f"after {self._consecutive_failures} consecutive failures",
                retry_after_s=remaining,
            )
        # Half-open: admit this call as the trial; a failure re-opens.
        self._open_until = None

    def _note_call_failure(self) -> None:
        self._consecutive_failures += 1
        if (
            self.circuit_threshold > 0
            and self._consecutive_failures >= self.circuit_threshold
        ):
            self._open_until = self._now() + self.circuit_cooldown_s

    def _note_call_success(self) -> None:
        self._consecutive_failures = 0
        self._open_until = None

    # ------------------------------------------------------------------
    # Request loop
    # ------------------------------------------------------------------
    def _request(
        self,
        header: Dict[str, object],
        body: bytes = b"",
        deadline_s: Optional[float] = None,
    ) -> Tuple[Dict[str, object], bytes]:
        self._check_circuit()
        budget = self.deadline_s if deadline_s is None else deadline_s
        deadline = self._now() + budget
        attempt = 0
        while True:
            remaining = deadline - self._now()
            if remaining <= 0:
                self._note_call_failure()
                raise DeadlineExceededError(
                    f"{header.get('op')} deadline of {budget:.3f} s exhausted "
                    f"after {attempt} attempts",
                    waited_s=budget,
                )
            # The attempt's I/O window starts at attempt_timeout_s and
            # doubles per retry, so a lost frame costs one window, not
            # the whole budget; the propagated deadline is attempt-scoped
            # so the server never works past the window either.
            io_timeout = min(
                remaining, self.attempt_timeout_s * (2 ** attempt)
            )
            header["v"] = PROTOCOL_VERSION
            header["deadline_ms"] = max(1, int(io_timeout * 1000))
            frame = encode_frame(header, body)
            try:
                self._transport.set_timeout(io_timeout)
                self._transport.send_frame(frame)
                resp_header, resp_body = split_frame(self._transport.recv_frame())
            except TransportError:
                attempt += 1
                self.retries += 1
                self._backoff(attempt, deadline)
                continue
            if resp_header.get("ok"):
                self._note_call_success()
                return resp_header, resp_body
            if resp_header.get("status") == "retry_after":
                self.backpressure_hits += 1
                attempt += 1
                self.retries += 1
                hint_ms = resp_header.get("retry_after_ms", 0)
                floor_s = float(hint_ms) / 1000.0 if hint_ms else 0.0  # type: ignore[arg-type]
                self._backoff(attempt, deadline, floor_s=floor_s)
                continue
            # A definitive error: the server answered, so the wire is
            # healthy — this does not count against the breaker.
            self._note_call_success()
            raise self._error_from(resp_header)

    def _backoff(
        self, attempt: int, deadline: float, floor_s: float = 0.0
    ) -> None:
        delay = min(self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1)))
        delay *= 0.5 + self._rng.random() / 2.0  # jitter in [0.5, 1.0)
        delay = max(delay, floor_s)
        remaining = deadline - self._now()
        if remaining <= 0:
            return
        self._sleep(min(delay, remaining))

    @staticmethod
    def _error_from(header: Dict[str, object]) -> LoomError:
        kind = header.get("error")
        message = header.get("message", "server error")
        exc_type = _ERROR_TYPES.get(kind, LoomError)  # type: ignore[arg-type]
        return exc_type(str(message))

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        source: str,
        payloads: Sequence[bytes],
        deadline_s: Optional[float] = None,
    ) -> int:
        """Send one batch; returns the record count ACKed.

        The batch keeps its sequence number across retries, so a resend
        after a lost ACK dedups server-side instead of double-counting.
        """
        if not payloads:
            return 0
        self._seq += 1
        sizes, body = pack_payloads(payloads)
        header: Dict[str, object] = {
            "op": "ingest",
            "source": source,
            "client": self.client_id,
            "seq": self._seq,
            "sizes": sizes,
        }
        resp, _ = self._request(header, body, deadline_s)
        if resp.get("deduped"):
            self.deduped_acks += 1
        self.records_sent += len(payloads)
        return int(resp.get("count", 0))  # type: ignore[arg-type]

    def sync(
        self, source: Optional[str] = None, deadline_s: Optional[float] = None
    ) -> None:
        """Drain the owning shard's ingest queue (all shards when
        ``source`` is None) and force-publish, like in-process
        ``Loom.sync``."""
        header: Dict[str, object] = {"op": "sync"}
        if source is not None:
            header["source"] = source
        self._request(header, deadline_s=deadline_s)

    # ------------------------------------------------------------------
    # Queries (QueryResult verbs, mirroring MonitoringDaemon)
    # ------------------------------------------------------------------
    def scan(
        self,
        source: str,
        t_range: Tuple[int, int],
        deadline_s: Optional[float] = None,
    ) -> QueryResult:
        resp, body = self._request(
            {
                "op": "scan",
                "source": source,
                "t_start": t_range[0],
                "t_end": t_range[1],
            },
            deadline_s=deadline_s,
        )
        return result_from_wire(resp, body)

    def scan_indexed(
        self,
        source: str,
        index: str,
        t_range: Tuple[int, int],
        v_range: Tuple[float, float] = (NEG_INF, POS_INF),
        deadline_s: Optional[float] = None,
    ) -> QueryResult:
        header: Dict[str, object] = {
            "op": "scan_indexed",
            "source": source,
            "index": index,
            "t_start": t_range[0],
            "t_end": t_range[1],
        }
        if v_range[0] != NEG_INF:
            header["v_min"] = v_range[0]
        if v_range[1] != POS_INF:
            header["v_max"] = v_range[1]
        resp, body = self._request(header, deadline_s=deadline_s)
        return result_from_wire(resp, body)

    def aggregate(
        self,
        source: str,
        index: str,
        t_range: Tuple[int, int],
        method: str,
        percentile: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> QueryResult:
        header: Dict[str, object] = {
            "op": "aggregate",
            "source": source,
            "index": index,
            "t_start": t_range[0],
            "t_end": t_range[1],
            "method": method,
        }
        if percentile is not None:
            header["percentile"] = percentile
        resp, body = self._request(header, deadline_s=deadline_s)
        return result_from_wire(resp, body)

    def histogram(
        self,
        source: str,
        index: str,
        t_range: Tuple[int, int],
        deadline_s: Optional[float] = None,
    ) -> QueryResult:
        resp, body = self._request(
            {
                "op": "histogram",
                "source": source,
                "index": index,
                "t_start": t_range[0],
                "t_end": t_range[1],
            },
            deadline_s=deadline_s,
        )
        return result_from_wire(resp, body)

    def bin_values(
        self,
        source: str,
        index: str,
        t_range: Tuple[int, int],
        bin_idx: int,
        deadline_s: Optional[float] = None,
    ) -> QueryResult:
        resp, body = self._request(
            {
                "op": "bin_values",
                "source": source,
                "index": index,
                "t_start": t_range[0],
                "t_end": t_range[1],
                "bin": bin_idx,
            },
            deadline_s=deadline_s,
        )
        return result_from_wire(resp, body)

    def index_spec(
        self, source: str, index: str, deadline_s: Optional[float] = None
    ) -> HistogramSpec:
        resp, _ = self._request(
            {"op": "index_spec", "source": source, "index": index},
            deadline_s=deadline_s,
        )
        edges = resp.get("edges")
        if not isinstance(edges, list):
            raise TransportError("index_spec response missing edges")
        return HistogramSpec([float(e) for e in edges])

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def health(self, deadline_s: Optional[float] = None) -> Health:
        """Worst-of flush health across the server's shards."""
        resp, _ = self._request({"op": "health"}, deadline_s=deadline_s)
        return Health(resp.get("health"))

    def health_detail(
        self, deadline_s: Optional[float] = None
    ) -> Dict[str, object]:
        """Full per-shard health, queue depth, and shedding state."""
        resp, _ = self._request({"op": "health"}, deadline_s=deadline_s)
        return resp

    def introspect(self, deadline_s: Optional[float] = None) -> Dict[str, object]:
        resp, _ = self._request({"op": "introspect"}, deadline_s=deadline_s)
        return resp

    def server_stats(self, deadline_s: Optional[float] = None) -> str:
        """The server's metrics registry as Prometheus-style text."""
        _, body = self._request({"op": "stats"}, deadline_s=deadline_s)
        return body.decode("utf-8")

    def enable_source(
        self, source: str, deadline_s: Optional[float] = None
    ) -> None:
        self._request(
            {"op": "enable_source", "source": source}, deadline_s=deadline_s
        )

    def add_index(
        self,
        source: str,
        index: str,
        edges: Sequence[float],
        func: str = "f64_le",
        deadline_s: Optional[float] = None,
    ) -> int:
        """Define a histogram index remotely.  ``func`` names a server-
        side extractor (:data:`~repro.daemon.server.WIRE_INDEX_FUNCS`);
        arbitrary index UDFs do not travel the wire."""
        resp, _ = self._request(
            {
                "op": "add_index",
                "source": source,
                "index": index,
                "edges": list(edges),
                "func": func,
            },
            deadline_s=deadline_s,
        )
        return int(resp.get("index_id", -1))  # type: ignore[arg-type]

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "LoomClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
