"""Explicit-state bounded model checking for Loom's distributed protocol.

The single-node seqlock is machine-checked by running *real threads*
under a deterministic scheduler (:mod:`tools.loomsan.schedule`).  The
networked service (DESIGN.md section 12) cannot be checked that way —
its interleavings span an asyncio event loop, worker threads, and an
adversarial network — so loommc takes the classic other route: small
**abstract models** of the protocol state machines, explored
exhaustively to a bound, with safety invariants evaluated in every
reachable state and liveness checked over the reachable transition
graph.

This module is the generic engine; the Loom protocol models themselves
live in :mod:`tools.loommc.models`, next to the CLI that drives them.

Design points, mirroring the sanitizer layer's conventions:

* **States are values.**  A model's state is any hashable value
  (the models use ``NamedTuple``s); the checker never mutates state, it
  only asks the model for successors.  Exploration is plain BFS, so the
  first counterexample found for an invariant is also a *shortest* one.

* **Actions are strings.**  Every transition is named by a label that
  fully determines the successor (``"server.admit seq=2"``).  A
  counterexample is therefore just a list of labels — the same stance
  :class:`~tools.loomsan.schedule.FuzzSchedule` takes with thread names —
  and replays exactly in any later process, with no RNG and no object
  identities.

* **Liveness is checked as reachability under fairness.**  For
  "eventually"-style properties the checker verifies
  ``AG (premise -> EF_fair goal)``: from every reachable state
  satisfying the premise, some path using only *fair* actions (the
  protocol's own progress steps — never the adversarial network's
  faults) reaches the goal.  For these finite protocol models with
  always-enabled worker steps this coincides with eventual progress
  under weak fairness, and it keeps the checker a few hundred lines
  instead of an SCC-based LTL engine.

Counterexamples found anywhere in the process are mirrored into a live
registry so the test harness's ``LOOM_STATS_DUMP`` failure hook can ship
them as replayable JSON artifacts, exactly like loomsan's failing
schedules and the transport layer's packet traces.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    ClassVar,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import LoomError

#: A model state: any hashable value; the bundled models use NamedTuples.
State = Hashable

#: One invariant: (name, check).  ``check`` returns ``None`` when the
#: state satisfies the invariant, or a human-readable error message.
Invariant = Tuple[str, Callable[[State], Optional[str]]]


class ModelCheckError(LoomError):
    """A model or trace file is malformed (distinct from a *violation*)."""


class Model:
    """Base class for explicit-state protocol models.

    Subclasses define a finite (or bounded) labelled transition system:

    * :meth:`initial` — the single initial state (a hashable value);
    * :meth:`actions` — the labels enabled in a state;
    * :meth:`apply` — the successor reached by taking one enabled label
      (must be deterministic: the label fully identifies the transition);
    * :meth:`invariants` — named safety predicates checked in every
      reachable state.

    ``mutant`` optionally names a seeded bug the model should inject —
    the self-test hook proving the checker *would* catch a real
    regression, mirroring loomsan's ``--mutant`` convention.
    """

    name: str = "model"
    #: Mutant names this model can inject (CLI discovery + validation).
    mutants: Tuple[str, ...] = ()

    def __init__(self, mutant: Optional[str] = None) -> None:
        if mutant is not None and mutant not in self.mutants:
            raise ModelCheckError(
                f"model {self.name!r} has no mutant {mutant!r} "
                f"(available: {list(self.mutants)})"
            )
        self.mutant = mutant

    def initial(self) -> State:
        raise NotImplementedError

    def actions(self, state: State) -> Sequence[str]:
        raise NotImplementedError

    def apply(self, state: State, action: str) -> State:
        raise NotImplementedError

    def invariants(self) -> Sequence[Invariant]:
        raise NotImplementedError


@dataclass(frozen=True)
class Counterexample:
    """One invariant violation with its exact replayable action trace.

    The JSON wire format deliberately contains nothing ephemeral —
    model and invariant *names*, the action-label trace, and the error
    text — so a counterexample recorded in CI replays in any later
    process (the :class:`~tools.loomsan.schedule.FuzzSchedule` stance).
    """

    FORMAT_VERSION: ClassVar[int] = 1

    model: str
    invariant: str
    error: str
    steps: Tuple[str, ...]
    mutant: Optional[str] = None

    def to_json(self) -> str:
        """Serialize to the stable JSON wire format."""
        payload = {
            "version": self.FORMAT_VERSION,
            "model": self.model,
            "mutant": self.mutant,
            "invariant": self.invariant,
            "error": self.error,
            "steps": list(self.steps),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Counterexample":
        """Parse a counterexample recorded by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelCheckError(f"undecodable counterexample: {exc}") from exc
        if not isinstance(payload, dict):
            raise ModelCheckError("counterexample must be a JSON object")
        version = payload.get("version")
        if version != cls.FORMAT_VERSION:
            raise ModelCheckError(
                f"unsupported counterexample format version {version!r} "
                f"(expected {cls.FORMAT_VERSION})"
            )
        mutant = payload.get("mutant")
        return cls(
            model=str(payload.get("model", "")),
            invariant=str(payload.get("invariant", "")),
            error=str(payload.get("error", "")),
            steps=tuple(str(s) for s in payload.get("steps", ())),
            mutant=str(mutant) if mutant is not None else None,
        )

    def render(self) -> str:
        head = f"{self.model}: invariant {self.invariant!r} violated"
        if self.mutant:
            head += f" (mutant {self.mutant!r})"
        lines = [head, f"  {self.error}"]
        for i, step in enumerate(self.steps):
            lines.append(f"  {i:3d}. {step}")
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Outcome of one bounded exploration."""

    model: str
    states: int = 0
    transitions: int = 0
    depth: int = 0
    #: True when the frontier was exhausted (the exploration is a proof
    #: over the whole bounded state space, not a sample of it).
    complete: bool = False
    violations: List[Counterexample] = field(default_factory=list)
    #: state -> ((action, successor), ...) for every explored state;
    #: liveness checks and tests walk this.
    graph: Dict[State, Tuple[Tuple[str, State], ...]] = field(default_factory=dict)
    #: state -> (predecessor, action) on the BFS tree (initial maps to None).
    parents: Dict[State, Optional[Tuple[State, str]]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations

    def path_to(self, state: State) -> Tuple[str, ...]:
        """The BFS-shortest action path from the initial state."""
        steps: List[str] = []
        cursor: State = state
        while True:
            parent = self.parents.get(cursor)
            if parent is None:
                break
            cursor, action = parent
            steps.append(action)
        steps.reverse()
        return tuple(steps)


class ModelChecker:
    """Bounded breadth-first exploration with per-state invariant checks.

    Args:
        model: the labelled transition system to explore.
        max_states: exploration budget; exceeding it ends the run with
            ``complete=False`` (a bounded result, never a silent pass —
            callers that need a proof must check :attr:`CheckResult.complete`).
        max_depth: optional BFS depth bound (None = explore fully).
        stop_on_violation: stop at the first (shortest) counterexample;
            when False, collect one counterexample per invariant.
    """

    def __init__(
        self,
        model: Model,
        max_states: int = 500_000,
        max_depth: Optional[int] = None,
        stop_on_violation: bool = True,
    ) -> None:
        self.model = model
        self.max_states = max_states
        self.max_depth = max_depth
        self.stop_on_violation = stop_on_violation

    def explore(self) -> CheckResult:
        model = self.model
        invariants = list(model.invariants())
        result = CheckResult(model=model.name)
        initial = model.initial()
        result.parents[initial] = None
        depth_of: Dict[State, int] = {initial: 0}
        queue: Deque[State] = deque([initial])
        seen_invariants: Set[str] = set()

        def _check(state: State) -> bool:
            """Check invariants; returns True when exploration must stop."""
            for name, check in invariants:
                if name in seen_invariants:
                    continue
                error = check(state)
                if error is None:
                    continue
                seen_invariants.add(name)
                cx = Counterexample(
                    model=model.name,
                    invariant=name,
                    error=error,
                    steps=result.path_to(state),
                    mutant=model.mutant,
                )
                result.violations.append(cx)
                note_counterexample(cx)
                if self.stop_on_violation:
                    return True
            return False

        if _check(initial):
            result.states = 1
            return result
        while queue:
            state = queue.popleft()
            result.states += 1
            depth = depth_of[state]
            result.depth = max(result.depth, depth)
            if self.max_depth is not None and depth >= self.max_depth:
                result.graph[state] = ()
                continue
            successors: List[Tuple[str, State]] = []
            for action in model.actions(state):
                succ = model.apply(state, action)
                successors.append((action, succ))
                result.transitions += 1
                if succ in depth_of:
                    continue
                depth_of[succ] = depth + 1
                result.parents[succ] = (state, action)
                if _check(succ):
                    result.graph[state] = tuple(successors)
                    return result
                queue.append(succ)
            result.graph[state] = tuple(successors)
            if result.states + len(queue) > self.max_states:
                return result
        result.complete = True
        return result


@dataclass
class ReplayResult:
    """Outcome of re-running a recorded counterexample."""

    reproduced: bool
    #: Step index at which the replay diverged (an action was not
    #: enabled), or None when every step applied.
    diverged_at: Optional[int]
    error: str


def replay(model: Model, counterexample: Counterexample) -> ReplayResult:
    """Re-run a recorded counterexample trace against ``model``.

    Applies the recorded action labels from the initial state, verifying
    each is enabled, then confirms the recorded invariant is violated in
    the final state (and in no earlier one — the trace must be exact,
    not merely sufficient).
    """
    named = {name: check for name, check in model.invariants()}
    check = named.get(counterexample.invariant)
    if check is None:
        return ReplayResult(
            reproduced=False,
            diverged_at=None,
            error=(
                f"model {model.name!r} has no invariant "
                f"{counterexample.invariant!r}"
            ),
        )
    state = model.initial()
    for i, action in enumerate(counterexample.steps):
        if action not in model.actions(state):
            return ReplayResult(
                reproduced=False,
                diverged_at=i,
                error=f"step {i} {action!r} is not enabled — replay diverged",
            )
        if i < len(counterexample.steps) and check(state) is not None:
            return ReplayResult(
                reproduced=False,
                diverged_at=i,
                error=(
                    f"invariant {counterexample.invariant!r} already "
                    f"violated before step {i} — trace is not minimal"
                ),
            )
        state = model.apply(state, action)
    error = check(state)
    if error is None:
        return ReplayResult(
            reproduced=False,
            diverged_at=None,
            error=(
                f"final state satisfies {counterexample.invariant!r} — "
                f"the recorded failure did NOT reproduce"
            ),
        )
    return ReplayResult(reproduced=True, diverged_at=None, error=error)


def check_eventually(
    result: CheckResult,
    name: str,
    premise: Callable[[State], bool],
    goal: Callable[[State], bool],
    fair: Callable[[str], bool],
    mutant: Optional[str] = None,
) -> Optional[Counterexample]:
    """Check ``AG (premise -> EF_fair goal)`` over an explored graph.

    For every reachable state satisfying ``premise`` (and not already
    ``goal``), some path using only actions accepted by ``fair`` must
    reach a ``goal`` state.  ``fair`` names the protocol's own progress
    actions — liveness must never depend on the adversarial network
    doing something helpful.  Returns a :class:`Counterexample` leading
    to the first stuck state, or None when the property holds.

    The graph must come from a *complete* exploration; checking liveness
    over a truncated graph would report spurious stuck states.
    """
    if not result.complete:
        raise ModelCheckError(
            "liveness requires a complete exploration "
            "(raise max_states/max_depth)"
        )
    graph = result.graph
    # One backward pass: states from which a fair path reaches goal.
    can_reach: Set[State] = {s for s in graph if goal(s)}
    changed = True
    while changed:
        changed = False
        for state, successors in graph.items():
            if state in can_reach:
                continue
            for action, succ in successors:
                if fair(action) and succ in can_reach:
                    can_reach.add(state)
                    changed = True
                    break
    for state in graph:
        if premise(state) and state not in can_reach:
            cx = Counterexample(
                model=result.model,
                invariant=name,
                error=(
                    "liveness violation: no fair path from this state "
                    "ever reaches the goal"
                ),
                steps=result.path_to(state),
                mutant=mutant,
            )
            note_counterexample(cx)
            return cx
    return None


# ----------------------------------------------------------------------
# Live counterexample registry (the CI failure hook's view; mirrors
# loomscope's dump_live_registries and the transport packet traces).
# ----------------------------------------------------------------------
_LIVE_COUNTEREXAMPLES: List[Counterexample] = []
_LIVE_LIMIT = 32


def note_counterexample(cx: Counterexample) -> None:
    """Record a counterexample for the failure-dump hook (bounded)."""
    if len(_LIVE_COUNTEREXAMPLES) < _LIVE_LIMIT:
        _LIVE_COUNTEREXAMPLES.append(cx)


def clear_counterexamples() -> None:
    _LIVE_COUNTEREXAMPLES.clear()


def dump_live_counterexamples() -> str:
    """Every counterexample noted in this process, as replayable JSON
    sections (one fenced block per violation), for ``LOOM_STATS_DUMP``."""
    sections: List[str] = []
    for i, cx in enumerate(_LIVE_COUNTEREXAMPLES):
        sections.append(
            f"--- counterexample {i} ({cx.model} / {cx.invariant}) ---\n"
            f"{cx.to_json()}"
        )
    return "\n".join(sections)
