"""Trace conformance: real packet traces vs the abstract ingest model.

:class:`~repro.daemon.transport.FaultInjectingTransport` records one
trace entry per transport event, including the protocol-level fields of
every frame it carries (``op``/``seq``/``client`` on sends, ``ok``/
``status``/``deduped`` on recvs).  This module checks such a trace for
membership in the *client-observable projection* of
:class:`tools.loommc.models.IngestExactlyOnce` — the per-(client, seq)
session automaton::

    UNSENT --send--> IN-FLIGHT --ok ack--> ACKED   (terminal)
                \\--resend/retry_after/fault--> IN-FLIGHT
                 \\--abandon (other op / give up)--> ABANDONED

and the transition rules the model enforces on it:

* ``seq-strictly-increasing`` — a *new* batch's seq exceeds every seq
  this client has used before (``client.send``; the counter survives
  circuit-open failures, so gaps are legal but reuse is not);
* ``no-resend-after-ack`` — once an OK ack for (client, seq) was
  received, that seq is never sent again (the model's ``client.recv.ack``
  leaves no resend transition);
* ``dedup-implies-resend`` — a ``deduped`` ack can only answer a seq
  that was sent at least twice on this session (the server's
  pending/dedup hit requires an earlier admission);
* ``ack-answers-open-batch`` — an ingest ack arrives only while that
  batch is in flight (sound because :class:`TcpTransport` closes the
  socket on timeout: a response can never outlive its request's
  connection).

Every ``test_server_client.py`` / ``test_transport_faults.py`` run
doubles as a refinement check: a conftest fixture feeds each test's
packet traces through :func:`check_trace`, and any violation fails the
test with a :class:`~tools.loommc.modelcheck.Counterexample` whose steps
are the offending trace prefix (shipped by the ``LOOM_STATS_DUMP``
failure hook like any other counterexample).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .modelcheck import (
    Counterexample,
    ModelCheckError,
    note_counterexample,
)

__all__ = [
    "TraceEvent",
    "parse_trace",
    "abstract_actions",
    "check_trace",
    "check_transport",
]

#: One packet-trace entry, as recorded by FaultInjectingTransport.
TraceEvent = Dict[str, object]

#: The conformance "model" name used in reported counterexamples.
CONFORMANCE_MODEL = "ingest-conformance"


def parse_trace(text: str) -> List[TraceEvent]:
    """Parse a ``dump_trace()`` packet trace (JSON lines)."""
    events: List[TraceEvent] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("---"):
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ModelCheckError(
                f"trace line {lineno} is not JSON: {exc}"
            ) from exc
        if not isinstance(entry, dict) or "event" not in entry:
            raise ModelCheckError(
                f"trace line {lineno} is not a packet-trace entry"
            )
        events.append(entry)
    return events


def _label(event: TraceEvent) -> str:
    """A stable one-line rendering of a trace entry (counterexample step)."""
    parts = [str(event.get("event"))]
    for key in ("op", "client", "seq", "ok", "status", "deduped",
                "error", "fault"):
        if key in event:
            parts.append(f"{key}={event[key]}")
    return " ".join(parts)


class _Session:
    """Client-observable ingest automaton state for one client id."""

    def __init__(self) -> None:
        self.max_seq: Optional[int] = None   # highest seq ever sent
        self.open_seq: Optional[int] = None  # batch awaiting its ack
        self.sends: Dict[int, int] = {}      # send attempts per seq
        self.acked: Set[int] = set()         # seqs with an OK ack seen


def abstract_actions(events: Sequence[TraceEvent]) -> List[str]:
    """Map a packet trace onto ingest-model action labels.

    Best-effort projection for humans reading a counterexample next to
    the model: sends become ``client.send`` / ``client.timeout.resend``,
    acks become ``client.recv.ack`` / ``client.recv.dup`` /
    ``client.recv.retry``, dropped sends become ``net.drop.req``.
    Events outside the ingest surface map to ``(op)`` markers.
    """
    actions: List[str] = []
    open_seq: Optional[int] = None
    for event in events:
        kind = event.get("event")
        op = event.get("op")
        if kind == "send" and op == "ingest" and "seq" in event:
            seq = event["seq"]
            verb = "client.timeout.resend" if seq == open_seq else "client.send"
            open_seq = seq  # type: ignore[assignment]
            actions.append(f"{verb} seq={seq}")
            if event.get("fault") == "dropped":
                actions.append(f"net.drop.req seq={seq}")
        elif kind == "send":
            open_seq = None
            actions.append(f"({op or 'send'})")
        elif kind == "recv" and open_seq is not None and "ok" in event:
            if event.get("ok"):
                verb = "client.recv.dup" if event.get("deduped") \
                    else "client.recv.ack"
                actions.append(f"{verb} seq={open_seq}")
                open_seq = None
            elif event.get("status") == "retry_after":
                actions.append(f"client.recv.retry seq={open_seq}")
            else:
                actions.append(f"(error {event.get('error')})")
                open_seq = None
        elif kind == "recv" and event.get("fault"):
            actions.append(f"(recv fault={event.get('fault')})")
    return actions


def check_trace(
    events: Sequence[TraceEvent], origin: str = "<trace>"
) -> List[Counterexample]:
    """Check one transport's packet trace against the ingest model's
    client projection; returns a counterexample per violated rule.

    The rules are deliberately one-sided: an *uninformative* event (a
    frame the transport could not parse, a recv with no protocol
    fields) weakens the checks but can never produce a false violation.
    """
    sessions: Dict[object, _Session] = {}
    seen: List[str] = []
    violations: List[Counterexample] = []
    violated_rules: Set[str] = set()
    open_session: Optional[_Session] = None

    def report(rule: str, error: str) -> None:
        if rule in violated_rules:
            return
        violated_rules.add(rule)
        cx = Counterexample(
            model=CONFORMANCE_MODEL,
            invariant=rule,
            error=f"{origin}: {error}",
            steps=tuple(seen),
        )
        violations.append(cx)
        note_counterexample(cx)

    for event in events:
        seen.append(_label(event))
        kind = event.get("event")
        if kind == "send":
            if event.get("op") == "ingest" and isinstance(event.get("seq"), int):
                seq = event["seq"]
                assert isinstance(seq, int)
                session = sessions.setdefault(event.get("client"), _Session())
                open_session = session
                if seq in session.acked:
                    report(
                        "no-resend-after-ack",
                        f"client {event.get('client')!r} resent seq={seq} "
                        f"after receiving its OK ack",
                    )
                if seq != session.open_seq:
                    # A new batch: the client-side counter only moves up.
                    if session.max_seq is not None and seq <= session.max_seq:
                        report(
                            "seq-strictly-increasing",
                            f"client {event.get('client')!r} opened batch "
                            f"seq={seq} after already using "
                            f"seq={session.max_seq}",
                        )
                    session.open_seq = seq
                session.sends[seq] = session.sends.get(seq, 0) + 1
                session.max_seq = seq if session.max_seq is None \
                    else max(session.max_seq, seq)
            else:
                # Another verb on the wire: the previous ingest batch
                # was settled or abandoned (the client is synchronous).
                if open_session is not None:
                    open_session.open_seq = None
                open_session = None
        elif kind == "recv" and "ok" in event:
            session = open_session
            if session is None or session.open_seq is None:
                if event.get("deduped"):
                    report(
                        "ack-answers-open-batch",
                        "ingest ack received with no batch in flight",
                    )
                continue
            seq = session.open_seq
            if event.get("ok"):
                if event.get("deduped") and session.sends.get(seq, 0) < 2:
                    report(
                        "dedup-implies-resend",
                        f"seq={seq} acked as deduped after a single send — "
                        f"the server claims an admission that never happened",
                    )
                session.acked.add(seq)
                session.open_seq = None
                open_session = None
            elif event.get("status") != "retry_after":
                # Definitive server error: batch abandoned, seq burnt.
                session.open_seq = None
                open_session = None
    return violations


def check_transport(transport: object, origin: str) -> List[Counterexample]:
    """Conformance-check a live FaultInjectingTransport's trace."""
    trace = getattr(transport, "trace", None)
    if not trace:
        return []
    return check_trace(list(trace), origin=origin)
