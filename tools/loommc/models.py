"""Abstract models of the Loom networked protocol (DESIGN.md section 12).

Each model is a small labelled transition system over a ``NamedTuple``
state, explored exhaustively by :class:`tools.loommc.modelcheck.ModelChecker`.
The models abstract the code in ``src/repro/daemon/`` — the conformance
mapping table in DESIGN.md section 13 ties every action label here to
the concrete code site it stands for.

Fidelity notes (the deliberate abstractions):

* Time is untimed: deadlines and backoff become a bounded attempt
  counter; cooldowns become explicit ``cooldown`` actions.  Every
  interleaving the wall clock could produce is a path here.
* The network is an unordered multiset of in-flight frames: delivery in
  any order models *reorder* and *delay*; explicit ``net.drop.*`` and
  ``net.dup.*`` actions model loss and duplication.  In-flight copies
  are capped so the state space stays finite.
* The dedup window is modeled as large relative to the duplicate
  horizon (it never evicts a key that still has copies in flight) —
  matching the code, where ``dedup_window=1024`` dwarfs any plausible
  resend set.  A seed's worth of late duplicates outside the window is
  out of scope, as it is for the real server.

The seeded mutants re-introduce the bugs the protocol's ordering rules
exist to prevent; ``loommc check --mutant <name>`` proves the checker
would catch each one with an exact replayable counterexample.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

from .modelcheck import Invariant, Model, State

__all__ = [
    "IngestExactlyOnce",
    "BreakerModel",
    "CoordinatorModel",
    "MODELS",
    "MUTANTS",
    "build_model",
    "model_for_mutant",
]


# ======================================================================
# Ingest: client retry x adversarial network x server admission/worker
# ======================================================================
class IngestState(NamedTuple):
    """Joint state of one client session, the network, and one shard."""

    # -- client (daemon/client.py) --
    phase: str                      # 'idle' | 'wait' | 'done'
    seq: int                        # current batch seq (0 = none yet)
    attempts: int                   # sends used for the current seq
    # -- network (unordered multisets of in-flight frames) --
    req: Tuple[int, ...]            # ingest request seqs
    resp: Tuple[Tuple[int, str], ...]   # (seq, 'ack'|'dup'|'retry')
    dup_budget: int                 # remaining adversarial duplications
    # -- shard (daemon/server.py _Shard) --
    pending: frozenset              # admitted keys not yet fully recorded
    queue: Tuple[int, ...]          # bounded ingest queue (FIFO)
    dedup: frozenset                # recorded-idempotency window (never
    #                                 evicts within the bounded horizon)
    applied: Tuple[int, ...]        # multiset of seqs applied to storage
    worker: Tuple                   # ('idle',) | ('<stage>', seq)
    shedding: bool                  # backpressure flag
    # Sticky violation witnesses (set once, never cleared — the step
    # that sets one IS the counterexample's final step):
    shed_below_high: bool           # shedding began at depth < high
    retry_below_low: bool           # shed a batch at depth <= low


class IngestExactlyOnce(Model):
    """Enqueue-ACK ingest with (client_id, seq) idempotency under an
    adversarial network.

    One client sends ``batches`` numbered batches with up to
    ``max_attempts`` sends each (retry on timeout or RETRY_AFTER); the
    network may drop, duplicate, reorder, or delay any frame; the shard
    admits with the pending-before-dedup check, sheds above the high
    watermark with hysteresis, and applies via the three worker
    micro-steps whose *ordering* (record dedup before discarding
    pending) is the exactly-once argument of DESIGN.md section 12.
    """

    name = "ingest"
    mutants = ("dedup_flip", "ack_skip_pending", "shed_at_low", "never_resume")

    def __init__(
        self,
        mutant: Optional[str] = None,
        batches: int = 2,
        max_attempts: int = 2,
        high_watermark: int = 1,
        low_watermark: int = 0,
        req_copies: int = 2,
        resp_copies: int = 1,
        dup_budget: int = 2,
    ) -> None:
        super().__init__(mutant)
        self.batches = batches
        self.max_attempts = max_attempts
        self.high = high_watermark
        self.low = low_watermark
        self.req_copies = req_copies
        self.resp_copies = resp_copies
        # The adversary may inject at most this many duplicate frames
        # per run (client resends are unlimited within max_attempts);
        # an unbounded duplicator makes the reachable space infinite
        # in spirit and ~10^6 states in practice for zero extra bugs.
        self.dup_budget = dup_budget

    # -- transition system ------------------------------------------------
    def initial(self) -> State:
        return IngestState(
            phase="idle", seq=0, attempts=0,
            req=(), resp=(), dup_budget=self.dup_budget,
            pending=frozenset(), queue=(), dedup=frozenset(), applied=(),
            worker=("idle",), shedding=False,
            shed_below_high=False, retry_below_low=False,
        )

    def actions(self, state: State) -> Sequence[str]:
        s = state
        assert isinstance(s, IngestState)
        acts: List[str] = []
        # Client: send the next batch / handle the current one.
        if s.phase == "idle" and s.seq < self.batches:
            acts.append("client.send")
        if s.phase == "wait":
            if s.attempts < self.max_attempts:
                acts.append("client.timeout.resend")
            else:
                acts.append("client.timeout.abandon")
            for (q, kind) in sorted(set(s.resp)):
                if q == s.seq:
                    acts.append(f"client.recv.{kind}")
        # Stale responses (for an already-settled seq) are discarded.
        for (q, kind) in sorted(set(s.resp)):
            if s.phase != "wait" or q != s.seq:
                acts.append(f"client.recv.stale seq={q} kind={kind}")
        # Adversarial network: drop / duplicate (reorder+delay are
        # implicit in multiset delivery).
        for q in sorted(set(s.req)):
            acts.append(f"net.drop.req seq={q}")
            if s.dup_budget > 0 and s.req.count(q) < self.req_copies:
                acts.append(f"net.dup.req seq={q}")
        for (q, kind) in sorted(set(s.resp)):
            acts.append(f"net.drop.resp seq={q} kind={kind}")
            if s.dup_budget > 0 and s.resp.count((q, kind)) < self.resp_copies:
                acts.append(f"net.dup.resp seq={q} kind={kind}")
        # Server: admit any in-flight request; run the worker.
        for q in sorted(set(s.req)):
            acts.append(f"server.admit seq={q}")
        stage = s.worker[0]
        if stage == "idle":
            if s.queue:
                acts.append("server.worker.apply")
        elif stage == "applied":
            if self.mutant == "dedup_flip":
                acts.append("server.worker.discard_pending")
            else:
                acts.append("server.worker.record_dedup")
        elif stage == "deduped":
            acts.append("server.worker.discard_pending")
        elif stage == "discarded":        # dedup_flip mutant only
            acts.append("server.worker.record_dedup")
        return acts

    def apply(self, state: State, action: str) -> State:
        s = state
        assert isinstance(s, IngestState)
        verb, _, rest = action.partition(" ")
        arg: Dict[str, str] = dict(
            kv.split("=", 1) for kv in rest.split() if "=" in kv
        )
        if verb == "client.send":
            seq = s.seq + 1
            return s._replace(
                phase="wait", seq=seq, attempts=1,
                req=self._add(s.req, seq, self.req_copies),
            )
        if verb == "client.timeout.resend":
            return s._replace(
                attempts=s.attempts + 1,
                req=self._add(s.req, s.seq, self.req_copies),
            )
        if verb == "client.timeout.abandon":
            phase = "done" if s.seq >= self.batches else "idle"
            return s._replace(phase=phase, attempts=0)
        if verb in ("client.recv.ack", "client.recv.dup"):
            kind = verb.rsplit(".", 1)[1]
            phase = "done" if s.seq >= self.batches else "idle"
            return s._replace(
                phase=phase, attempts=0,
                resp=self._remove(s.resp, (s.seq, kind)),
            )
        if verb == "client.recv.retry":
            # RETRY_AFTER hint: back off and resend, or give up.
            resp = self._remove(s.resp, (s.seq, "retry"))
            if s.attempts < self.max_attempts:
                return s._replace(
                    attempts=s.attempts + 1, resp=resp,
                    req=self._add(s.req, s.seq, self.req_copies),
                )
            phase = "done" if s.seq >= self.batches else "idle"
            return s._replace(phase=phase, attempts=0, resp=resp)
        if verb == "client.recv.stale":
            return s._replace(
                resp=self._remove(s.resp, (int(arg["seq"]), arg["kind"]))
            )
        if verb == "net.drop.req":
            return s._replace(req=self._remove(s.req, int(arg["seq"])))
        if verb == "net.dup.req":
            return s._replace(
                req=self._add(s.req, int(arg["seq"]), self.req_copies),
                dup_budget=s.dup_budget - 1,
            )
        if verb == "net.drop.resp":
            return s._replace(
                resp=self._remove(s.resp, (int(arg["seq"]), arg["kind"]))
            )
        if verb == "net.dup.resp":
            return s._replace(
                resp=self._add(
                    s.resp, (int(arg["seq"]), arg["kind"]), self.resp_copies
                ),
                dup_budget=s.dup_budget - 1,
            )
        if verb == "server.admit":
            return self._admit(s, int(arg["seq"]))
        if verb == "server.worker.apply":
            key = s.queue[0]
            return s._replace(
                queue=s.queue[1:],
                applied=tuple(sorted(s.applied + (key,))),
                worker=("applied", key),
            )
        if verb == "server.worker.record_dedup":
            key = s.worker[1]
            done = s.worker[0] == "discarded"       # dedup_flip mutant
            return s._replace(
                dedup=s.dedup | {key},
                worker=("idle",) if done else ("deduped", key),
            )
        if verb == "server.worker.discard_pending":
            key = s.worker[1]
            flip = s.worker[0] == "applied"         # dedup_flip mutant
            return s._replace(
                pending=s.pending - {key},
                worker=("discarded", key) if flip else ("idle",),
            )
        raise ValueError(f"unknown action {action!r}")

    def _admit(self, s: IngestState, key: int) -> IngestState:
        """One admission: the body of ``_Shard.admit``."""
        req = self._remove(s.req, key)
        # Pending-before-dedup membership check: a once-admitted key is
        # visible in at least one structure for the whole worker cycle.
        if key in s.pending or key in s.dedup:
            return s._replace(
                req=req,
                resp=self._add(s.resp, (key, "dup"), self.resp_copies),
            )
        depth = len(s.queue)
        shedding = s.shedding
        shed_below_high = s.shed_below_high
        # Watermark hysteresis (shed at high, resume at/below low).
        if shedding and depth <= self.low:
            if self.mutant != "never_resume":
                shedding = False
        elif not shedding:
            threshold = self.low if self.mutant == "shed_at_low" else self.high
            if depth >= threshold:
                shedding = True
                shed_below_high = shed_below_high or depth < self.high
        if shedding:
            return s._replace(
                req=req,
                resp=self._add(s.resp, (key, "retry"), self.resp_copies),
                shedding=shedding,
                shed_below_high=shed_below_high,
                retry_below_low=s.retry_below_low or depth <= self.low,
            )
        pending = s.pending if self.mutant == "ack_skip_pending" \
            else s.pending | {key}
        return s._replace(
            req=req,
            resp=self._add(s.resp, (key, "ack"), self.resp_copies),
            pending=pending, queue=s.queue + (key,),
            shedding=shedding, shed_below_high=shed_below_high,
        )

    @staticmethod
    def _add(multiset: Tuple, item: object, cap: int) -> Tuple:
        if multiset.count(item) >= cap:
            return multiset
        return tuple(sorted(multiset + (item,)))

    @staticmethod
    def _remove(multiset: Tuple, item: object) -> Tuple:
        out = list(multiset)
        out.remove(item)
        return tuple(out)

    # -- properties -------------------------------------------------------
    def invariants(self) -> Sequence[Invariant]:
        return (
            ("exactly-once-apply", self._inv_exactly_once),
            ("ack-implies-tracked", self._inv_ack_tracked),
            ("shed-implies-high-watermark", self._inv_shed_high),
            ("resume-below-low-watermark", self._inv_resume_low),
        )

    @staticmethod
    def _inv_exactly_once(state: State) -> Optional[str]:
        s = state
        assert isinstance(s, IngestState)
        for key in set(s.applied):
            n = s.applied.count(key)
            if n > 1:
                return f"batch seq={key} applied {n} times"
        return None

    @staticmethod
    def _inv_ack_tracked(state: State) -> Optional[str]:
        s = state
        assert isinstance(s, IngestState)
        tracked = s.pending | s.dedup | set(s.applied)
        for (key, kind) in s.resp:
            if kind in ("ack", "dup") and key not in tracked:
                return f"{kind} in flight for seq={key} but server never tracked it"
        return None

    def _inv_shed_high(self, state: State) -> Optional[str]:
        s = state
        assert isinstance(s, IngestState)
        if s.shed_below_high:
            return (
                f"shedding began below the high watermark ({self.high})"
            )
        return None

    def _inv_resume_low(self, state: State) -> Optional[str]:
        s = state
        assert isinstance(s, IngestState)
        if s.retry_below_low:
            return (
                f"shed a batch at queue depth <= low watermark "
                f"({self.low}) — hysteresis must resume instead"
            )
        return None

    # -- liveness ---------------------------------------------------------
    def exhausted(self, state: State) -> bool:
        """The client can never trigger another admission."""
        s = state
        assert isinstance(s, IngestState)
        return s.phase == "done" and not s.req

    def liveness_shed_resumes(self) -> Tuple[str, object, object, object]:
        """Backpressure always resumes: from any shedding state, the
        protocol's own progress actions (worker drain + the client's
        retried admissions — never a network fault) can clear the flag
        before the client gives up entirely."""
        def premise(state: State) -> bool:
            assert isinstance(state, IngestState)
            return state.shedding

        def goal(state: State) -> bool:
            assert isinstance(state, IngestState)
            return not state.shedding or self.exhausted(state)

        def fair(action: str) -> bool:
            return not action.startswith(("net.drop", "net.dup"))

        return ("backpressure-resumes", premise, goal, fair)


# ======================================================================
# Client circuit breaker
# ======================================================================
class BreakerState(NamedTuple):
    phase: str          # 'closed' | 'open_cooling' | 'open_ready' | 'half_open'
    failures: int       # consecutive transport failures
    trials: int         # half-open trial calls in flight


class BreakerModel(Model):
    """Consecutive-transport-failure circuit breaker with half-open trial
    (``LoomClient._check_circuit`` / ``_note_call_failure``).

    ``call.*`` are regular requests (only transport failures count —
    definitive server errors reset the streak, modeled by ``call.ok``);
    after the cooldown elapses exactly one trial call may probe.
    """

    name = "breaker"
    mutants = ("double_trial",)
    threshold = 2

    def initial(self) -> State:
        return BreakerState(phase="closed", failures=0, trials=0)

    def actions(self, state: State) -> Sequence[str]:
        s = state
        assert isinstance(s, BreakerState)
        acts: List[str] = []
        if s.phase == "closed":
            acts += ["call.ok", "call.fail"]
        if s.phase == "open_cooling":
            acts.append("cooldown.elapse")
        if s.phase == "open_ready":
            acts.append("probe")
        elif s.phase == "half_open" and self.mutant == "double_trial":
            acts.append("probe")
        if s.trials > 0:
            acts += ["trial.ok", "trial.fail"]
        return acts

    def apply(self, state: State, action: str) -> State:
        s = state
        assert isinstance(s, BreakerState)
        if action == "call.ok":
            return s._replace(failures=0)
        if action == "call.fail":
            failures = s.failures + 1
            phase = "open_cooling" if failures >= self.threshold else s.phase
            return s._replace(failures=failures, phase=phase)
        if action == "cooldown.elapse":
            return s._replace(phase="open_ready")
        if action == "probe":
            return s._replace(phase="half_open", trials=s.trials + 1)
        if action == "trial.ok":
            return s._replace(phase="closed", failures=0, trials=s.trials - 1)
        if action == "trial.fail":
            failures = min(s.failures + 1, self.threshold)
            return s._replace(
                phase="open_cooling", failures=failures, trials=s.trials - 1
            )
        raise ValueError(f"unknown action {action!r}")

    def invariants(self) -> Sequence[Invariant]:
        def single_trial(state: State) -> Optional[str]:
            assert isinstance(state, BreakerState)
            if state.trials > 1:
                return (
                    f"{state.trials} half-open trials in flight "
                    f"(the breaker must admit exactly one)"
                )
            return None

        def open_implies_tripped(state: State) -> Optional[str]:
            assert isinstance(state, BreakerState)
            if state.phase in ("open_cooling", "open_ready") \
                    and state.failures < self.threshold:
                return (
                    f"breaker open after only {state.failures} failures "
                    f"(threshold {self.threshold})"
                )
            return None

        return (
            ("single-half-open-trial", single_trial),
            ("open-implies-tripped", open_implies_tripped),
        )

    def liveness_recloses(self) -> Tuple[str, object, object, object]:
        """An open breaker can always re-close via cooldown -> probe ->
        successful trial (no further failures required — fairness
        excludes ``*.fail``)."""
        def premise(state: State) -> bool:
            assert isinstance(state, BreakerState)
            return state.phase != "closed"

        def goal(state: State) -> bool:
            assert isinstance(state, BreakerState)
            return state.phase == "closed"

        def fair(action: str) -> bool:
            return action in ("cooldown.elapse", "probe", "trial.ok")

        return ("breaker-recloses", premise, goal, fair)


# ======================================================================
# Coordinator quarantine + two-phase percentile
# ======================================================================
class NodeState(NamedTuple):
    up: bool
    quarantined: bool
    failures: int
    hist: bool          # phase-1 histogram held for the current query
    contributed: bool   # counted into the phase-2 percentile


class CoordState(NamedTuple):
    phase: str                      # 'p1' | 'p2' | 'done'
    cursor: int                     # next node index in the current phase
    round: int                      # completed-query counter (bounds state)
    nodes: Tuple[NodeState, ...]


class CoordinatorModel(Model):
    """Coordinator fleet health: quarantine after ``threshold``
    consecutive failures, ``probe()`` readmission, and the two-phase
    global percentile that must discard the phase-1 histogram of any
    node that dies before phase 2 (``LoomCoordinator.global_percentile``).

    Queries run sequentially (``p1.step`` / ``p2.step`` visit one node);
    nodes crash and recover at any point; ``rounds`` bounds how many
    queries the model replays so quarantine (which needs ``threshold``
    consecutive failed queries) is reachable.
    """

    name = "coordinator"
    mutants = ("keep_dead_histogram", "serve_quarantined", "probe_no_readmit")
    threshold = 2

    def __init__(
        self, mutant: Optional[str] = None, n_nodes: int = 2, rounds: int = 3
    ) -> None:
        super().__init__(mutant)
        self.n_nodes = n_nodes
        self.rounds = rounds

    def initial(self) -> State:
        node = NodeState(
            up=True, quarantined=False, failures=0, hist=False,
            contributed=False,
        )
        return CoordState(
            phase="p1", cursor=0, round=0, nodes=(node,) * self.n_nodes
        )

    def actions(self, state: State) -> Sequence[str]:
        s = state
        assert isinstance(s, CoordState)
        acts: List[str] = []
        for i, node in enumerate(s.nodes):
            if node.up:
                acts.append(f"node.crash node={i}")
            else:
                acts.append(f"node.recover node={i}")
            if node.quarantined and node.up:
                acts.append(f"probe node={i}")
        if s.phase == "p1":
            acts.append(f"p1.step node={s.cursor}")
        elif s.phase == "p2":
            acts.append(f"p2.step node={s.cursor}")
        elif s.phase == "done" and s.round < self.rounds:
            acts.append("query.restart")
        return acts

    def apply(self, state: State, action: str) -> State:
        s = state
        assert isinstance(s, CoordState)
        verb, _, rest = action.partition(" ")
        nodes = list(s.nodes)
        i = int(rest.split("=", 1)[1]) if "=" in rest else -1
        if verb == "node.crash":
            nodes[i] = nodes[i]._replace(up=False)
            return s._replace(nodes=tuple(nodes))
        if verb == "node.recover":
            nodes[i] = nodes[i]._replace(up=True)
            return s._replace(nodes=tuple(nodes))
        if verb == "probe":
            # probe(): a reachable, healthy node is readmitted.
            if self.mutant != "probe_no_readmit":
                nodes[i] = nodes[i]._replace(quarantined=False, failures=0)
            return s._replace(nodes=tuple(nodes))
        if verb == "p1.step":
            node = nodes[i]
            serve_quar = self.mutant == "serve_quarantined"
            if node.quarantined and not serve_quar:
                pass                        # skipped: reported as missing
            elif node.up:
                nodes[i] = node._replace(hist=True, failures=0)
            else:
                nodes[i] = self._fail(node)
            return self._advance(s, nodes, next_phase="p2")
        if verb == "p2.step":
            node = nodes[i]
            if node.hist:
                if node.up:
                    nodes[i] = node._replace(contributed=True)
                elif self.mutant == "keep_dead_histogram":
                    nodes[i] = self._fail(node)
                else:
                    # Died between phases: drop its phase-1 histogram
                    # and recompute over the survivors.
                    nodes[i] = self._fail(node)._replace(hist=False)
            return self._advance(s, nodes, next_phase="done")
        if verb == "query.restart":
            nodes = [
                n._replace(hist=False, contributed=False) for n in nodes
            ]
            return CoordState(
                phase="p1", cursor=0, round=s.round + 1, nodes=tuple(nodes)
            )
        raise ValueError(f"unknown action {action!r}")

    def _fail(self, node: NodeState) -> NodeState:
        failures = node.failures + 1
        return node._replace(
            failures=failures,
            quarantined=node.quarantined or failures >= self.threshold,
        )

    def _advance(
        self, s: CoordState, nodes: List[NodeState], next_phase: str
    ) -> CoordState:
        cursor = s.cursor + 1
        if cursor >= self.n_nodes:
            return s._replace(phase=next_phase, cursor=0, nodes=tuple(nodes))
        return s._replace(cursor=cursor, nodes=tuple(nodes))

    def invariants(self) -> Sequence[Invariant]:
        def no_quarantined_contribution(state: State) -> Optional[str]:
            assert isinstance(state, CoordState)
            for i, node in enumerate(state.nodes):
                if node.contributed and node.quarantined:
                    return (
                        f"node {i} is quarantined yet counted into the "
                        f"phase-2 percentile"
                    )
            return None

        def merge_matches_contributors(state: State) -> Optional[str]:
            assert isinstance(state, CoordState)
            if state.phase != "done":
                return None
            for i, node in enumerate(state.nodes):
                if node.hist != node.contributed:
                    return (
                        f"node {i}: phase-1 histogram retained without a "
                        f"phase-2 contribution (hist={node.hist}, "
                        f"contributed={node.contributed}) — the merged "
                        f"CDF would count a dead node's samples"
                    )
            return None

        return (
            ("quarantined-never-in-phase2", no_quarantined_contribution),
            ("merge-counts-contributors-only", merge_matches_contributors),
        )

    def liveness_readmission(self, i: int) -> Tuple[str, object, object, object]:
        """A quarantined node that recovers is eventually readmitted:
        ``probe`` alone must suffice (fairness excludes crashes and
        further query traffic)."""
        def premise(state: State) -> bool:
            assert isinstance(state, CoordState)
            return state.nodes[i].quarantined and state.nodes[i].up

        def goal(state: State) -> bool:
            assert isinstance(state, CoordState)
            return not state.nodes[i].quarantined

        def fair(action: str) -> bool:
            return action == f"probe node={i}"

        return (f"readmission-probes-node-{i}", premise, goal, fair)


# ======================================================================
# Registry
# ======================================================================
#: Every protocol model, by name.
MODELS: Dict[str, Type[Model]] = {
    IngestExactlyOnce.name: IngestExactlyOnce,
    BreakerModel.name: BreakerModel,
    CoordinatorModel.name: CoordinatorModel,
}

#: Every seeded mutant, mapped to the model that hosts it.
MUTANTS: Dict[str, str] = {
    mutant: name
    for name, cls in MODELS.items()
    for mutant in cls.mutants
}


def build_model(name: str, mutant: Optional[str] = None) -> Model:
    """Instantiate a registered model, optionally with a seeded mutant."""
    try:
        cls = MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r} (available: {sorted(MODELS)})"
        ) from None
    return cls(mutant=mutant)


def model_for_mutant(mutant: str) -> Model:
    """Instantiate the model hosting ``mutant``, with it injected."""
    try:
        name = MUTANTS[mutant]
    except KeyError:
        raise KeyError(
            f"unknown mutant {mutant!r} (available: {sorted(MUTANTS)})"
        ) from None
    return build_model(name, mutant=mutant)


def liveness_properties(
    model: Model,
) -> List[Tuple[str, object, object, object]]:
    """The (name, premise, goal, fair) liveness checks for a model."""
    if isinstance(model, IngestExactlyOnce):
        return [model.liveness_shed_resumes()]
    if isinstance(model, BreakerModel):
        return [model.liveness_recloses()]
    if isinstance(model, CoordinatorModel):
        return [model.liveness_readmission(i) for i in range(model.n_nodes)]
    return []
