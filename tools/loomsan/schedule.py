"""Deterministic exploration of thread interleavings (model-checker style).

Loom's seqlock correctness argument (paper section 5.5) is about *all*
interleavings of a recycling writer and a copying reader, but classic
race tests only sample a few OS-chosen schedules per run.  This module
makes the schedule a first-class, enumerable object:

* Scenario threads run as real Python threads, but every one of them is
  gated on a semaphore and advances only when the scheduler grants it a
  step.  A step runs the thread up to its next yield point — the
  :func:`repro.core.yieldpoints.hit` call sites inside ``Block`` and
  ``HybridLog`` — or to completion.
* :class:`InterleavingExplorer` drives an exhaustive bounded
  depth-first search over every sequence of grants (every interleaving
  of the scenario's yield-point alphabet), re-running the scenario from
  a fresh state for each schedule.
* :class:`ScheduleFuzzer` samples the same schedule space with
  PCT-style randomized priorities — for state spaces too large to
  enumerate — and records every failing schedule as a
  :class:`FuzzSchedule` that serializes to JSON and replays exactly.
* Each completed run is validated by the scenario's ``check`` callback
  and by any attached :class:`ScenarioObserver` (e.g. the sanitizer's
  race detector); failing schedules are recorded, not raised.

Everything is deterministic: threads are granted in a fixed order, the
DFS visits schedules in lexicographic order, the fuzzer draws all of
its randomness from an explicit seed, and no wall-clock value enters
any decision, so two explorations of the same scenario produce
byte-identical results.  The semaphore parking happens only inside the
test-installed yield-point hook; production readers never block (the
hook is ``None`` and yield points are a load-and-compare).

Schedule wire formats (treat like an API): the explorer serializes a
schedule as a tuple of *thread indices*; the fuzzer serializes one as
the granted *thread names* plus the merged ``name:label`` trace.  Both
alphabets are stable — names come from :class:`ThreadSpec` and labels
from the instrumented call sites — so a recorded schedule survives
process restarts and code motion that does not rename yield points.
"""

from __future__ import annotations

import json
import random  # loomlint: disable=LOOM104 - fuzzer randomness is seed-driven and replayable
import threading
from dataclasses import dataclass, field
from typing import (
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.core import yieldpoints

#: Registry mapping a controlled thread's ident to its controller, so the
#: globally-installed yield-point hook can find who just yielded.
#: Threads not in the registry (e.g. the scheduler itself) pass through.
_controllers: Dict[int, "_ThreadController"] = {}


def _dispatch_hook(label: str) -> None:
    controller = _controllers.get(threading.get_ident())
    if controller is not None:
        controller.at_yield(label)


def _abort_parked() -> None:
    """Fail-fast every controlled thread still alive when the hook is torn down.

    Installed as the yield-point hook's teardown callback: a bare
    ``yieldpoints.clear_hook()`` (or the runner's own cleanup after a
    timeout) would otherwise leave scenario threads parked on their gate
    semaphores forever.  Each live controller is released with its
    ``torn_down`` flag set, so the thread wakes, raises
    :class:`HookTeardownError`, and exits through its normal error path.
    """
    for controller in list(_controllers.values()):
        controller.abort()


class HookTeardownError(RuntimeError):
    """The yield-point hook was torn down while this thread was parked."""


class ScenarioObserver(Protocol):
    """Observation-only consumer attached to a scenario run.

    ``on_event`` receives every yield-point ``hit`` and ``note`` (label
    plus its info payload) in the serialized order the scheduler drives;
    ``finish`` runs after the scenario's own ``check`` and returns a
    failure description, or ``None`` if the observer is satisfied.
    """

    def on_event(self, label: str, info: Dict[str, object]) -> None:
        ...

    def finish(self) -> Optional[str]:
        ...


@dataclass(frozen=True)
class ThreadSpec:
    """One scenario thread: a name and a zero-argument callable."""

    name: str
    fn: Callable[[], object]


@dataclass
class Scenario:
    """A schedulable concurrency scenario.

    ``threads`` run under the explorer's control from a fresh state (the
    factory that builds the Scenario must create new objects each call).
    After all threads finish, ``check`` receives ``{name: return value}``
    and raises ``AssertionError`` for an inconsistent outcome.
    ``observers`` (fresh per factory call, like the threads) watch every
    yield-point event during the run and may veto the outcome.
    """

    threads: List[ThreadSpec]
    check: Callable[[Dict[str, object]], None]
    observers: List[ScenarioObserver] = field(default_factory=list)


@dataclass(frozen=True)
class ScheduleFailure:
    """One schedule whose outcome violated the scenario's check."""

    schedule: Tuple[int, ...]
    error: str
    trace: Tuple[str, ...]


@dataclass
class ExplorationResult:
    """Everything an exhaustive exploration observed."""

    schedules: List[Tuple[int, ...]] = field(default_factory=list)
    failures: List[ScheduleFailure] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.failures


class _ThreadController:
    """Gates one scenario thread on semaphores.

    The thread holds ``gate`` permits; the scheduler holds ``reached``
    permits.  One grant (``step``) releases the gate once and waits for
    the thread to either hit the next yield point or finish.
    """

    def __init__(self, spec: ThreadSpec) -> None:
        self.spec = spec
        self.gate = threading.Semaphore(0)
        self.reached = threading.Semaphore(0)
        self.finished = False
        self.torn_down = False
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.trace: List[str] = []
        self.thread = threading.Thread(
            target=self._main, name=f"explore-{spec.name}", daemon=True
        )

    def start(self) -> None:
        self.thread.start()

    def _main(self) -> None:
        _controllers[threading.get_ident()] = self
        self.gate.acquire()
        try:
            if self.torn_down:
                raise HookTeardownError(
                    f"hook torn down before thread {self.spec.name!r} was "
                    f"granted its first step"
                )
            self.result = self.spec.fn()
        except BaseException as exc:  # noqa: B036 - recorded, not hidden
            self.error = exc
        finally:
            _controllers.pop(threading.get_ident(), None)
            self.finished = True
            self.reached.release()

    def at_yield(self, label: str) -> None:
        self.trace.append(label)
        self.reached.release()
        self.gate.acquire()
        if self.torn_down:
            raise HookTeardownError(
                f"yield-point hook torn down while thread "
                f"{self.spec.name!r} was parked at {label!r}"
            )

    def abort(self) -> None:
        """Wake the thread with the torn-down flag set (fail fast)."""
        self.torn_down = True
        self.gate.release()

    def step(self, timeout: float) -> None:
        self.gate.release()
        if not self.reached.acquire(timeout=timeout):
            raise RuntimeError(
                f"schedule explorer timed out waiting for thread "
                f"{self.spec.name!r}; a yield point is blocked on something "
                f"the scheduler does not control"
            )


@dataclass(frozen=True)
class _RunRecord:
    """Everything one scheduled run of a scenario produced."""

    schedule: Tuple[int, ...]
    ranks: List[int]
    counts: List[int]
    names: Tuple[str, ...]
    trace: Tuple[str, ...]
    failure: Optional[str]


def _outcome(
    scenario: Scenario, controllers: List[_ThreadController]
) -> Optional[str]:
    for controller in controllers:
        if controller.error is not None:
            return (
                f"thread {controller.spec.name!r} raised "
                f"{controller.error!r}"
            )
    results = {c.spec.name: c.result for c in controllers}
    try:
        scenario.check(results)
    except AssertionError as exc:
        return f"check failed: {exc}"
    for observer in scenario.observers:
        verdict = observer.finish()
        if verdict is not None:
            return verdict
    return None


def _run_scenario(
    scenario: Scenario,
    pick: Callable[[int, List[int]], int],
    max_steps: int,
    step_timeout: float,
) -> _RunRecord:
    """Run ``scenario`` once, asking ``pick`` who runs at each step.

    ``pick(step_no, runnable)`` returns a *rank* into the runnable list
    (thread indices in ascending order).  This is the single execution
    path shared by the exhaustive explorer, the randomized fuzzer, and
    both replay modes — so a schedule recorded by one driver replays
    under identical mechanics in another.
    """
    controllers = [_ThreadController(spec) for spec in scenario.threads]
    # Bind each observer callback once: add/remove must see the *same*
    # object, and attribute access mints a fresh bound method each time.
    callbacks = [observer.on_event for observer in scenario.observers]
    for callback in callbacks:
        yieldpoints.add_observer(callback)
    yieldpoints.set_hook(_dispatch_hook, teardown=_abort_parked)
    try:
        for controller in controllers:
            controller.start()
        schedule: List[int] = []
        ranks: List[int] = []
        counts: List[int] = []
        names: List[str] = []
        trace: List[str] = []
        while True:
            runnable = [i for i, c in enumerate(controllers) if not c.finished]
            if not runnable:
                break
            if len(schedule) >= max_steps:
                raise RuntimeError(
                    f"scenario exceeded {max_steps} steps; "
                    f"yield points may be unbounded"
                )
            rank = pick(len(schedule), runnable)
            idx = runnable[rank]
            controller = controllers[idx]
            before = len(controller.trace)
            controller.step(step_timeout)
            trace.extend(
                f"{controller.spec.name}:{label}"
                for label in controller.trace[before:]
            )
            schedule.append(idx)
            ranks.append(rank)
            counts.append(len(runnable))
            names.append(controller.spec.name)
        failure = _outcome(scenario, controllers)
        return _RunRecord(
            schedule=tuple(schedule),
            ranks=ranks,
            counts=counts,
            names=tuple(names),
            trace=tuple(trace),
            failure=failure,
        )
    finally:
        # clear_hook's teardown aborts any still-parked threads (e.g.
        # after a step timeout), so no daemon thread outlives the run
        # blocked on its gate.
        yieldpoints.clear_hook()
        for callback in callbacks:
            yieldpoints.remove_observer(callback)


class InterleavingExplorer:
    """Exhaustive bounded DFS over the interleavings of a scenario.

    Args:
        factory: builds a fresh :class:`Scenario` per run.  It must
            create new state every call — schedules are only comparable
            if each starts from the same initial conditions.
        max_schedules: safety bound on the number of distinct schedules;
            exceeding it raises rather than silently truncating, because
            a partial exploration would claim coverage it does not have.
        max_steps: per-run bound on scheduler grants (guards against a
            thread spinning through unbounded yield points).
        step_timeout: seconds to wait for a granted thread to reach its
            next yield point before declaring the scenario deadlocked.
    """

    def __init__(
        self,
        factory: Callable[[], Scenario],
        max_schedules: int = 20_000,
        max_steps: int = 500,
        step_timeout: float = 10.0,
    ) -> None:
        self._factory = factory
        self._max_schedules = max_schedules
        self._max_steps = max_steps
        self._step_timeout = step_timeout

    # ------------------------------------------------------------------
    # One run
    # ------------------------------------------------------------------
    def _execute(
        self,
        rank_prefix: Sequence[int],
        index_schedule: Optional[Sequence[int]] = None,
    ) -> Tuple[Tuple[int, ...], List[int], List[int], Tuple[str, ...], Optional[str]]:
        """Run the scenario once under a forced schedule (prefix).

        ``rank_prefix`` forces the first decisions by *rank within the
        runnable set* (the DFS's representation); ``index_schedule``
        instead forces decisions by absolute thread index (for replays).
        Beyond the forced prefix the scheduler always picks rank 0, which
        makes un-forced suffixes deterministic.

        Returns ``(schedule, ranks, branch_counts, trace, failure)``
        where ``schedule`` is the granted thread indices, ``ranks`` /
        ``branch_counts`` describe each decision point for the DFS,
        ``trace`` is the merged yield-point trace, and ``failure`` is an
        error description or ``None``.
        """
        scenario = self._factory()

        def pick(step_no: int, runnable: List[int]) -> int:
            if index_schedule is not None and step_no < len(index_schedule):
                forced = index_schedule[step_no]
                if forced not in runnable:
                    raise RuntimeError(
                        f"replay schedule grants thread {forced} at step "
                        f"{step_no}, but it is not runnable (finished "
                        f"early); the schedule does not match the scenario"
                    )
                return runnable.index(forced)
            if step_no < len(rank_prefix):
                return rank_prefix[step_no]
            return 0

        record = _run_scenario(
            scenario, pick, self._max_steps, self._step_timeout
        )
        return (
            record.schedule,
            record.ranks,
            record.counts,
            record.trace,
            record.failure,
        )

    # ------------------------------------------------------------------
    # Exhaustive DFS
    # ------------------------------------------------------------------
    def explore(self) -> ExplorationResult:
        """Run every schedule of the scenario; return what was observed.

        Schedules are visited in lexicographic rank order.  Each run
        re-executes the scenario from scratch, so the union of runs is
        an exhaustive enumeration of the bounded schedule tree (the
        bound being the scenario's own yield-point count per thread).
        """
        result = ExplorationResult()
        prefix: List[int] = []
        while True:
            schedule, ranks, counts, trace, failure = self._execute(prefix)
            result.schedules.append(schedule)
            if failure is not None:
                result.failures.append(
                    ScheduleFailure(schedule=schedule, error=failure, trace=trace)
                )
            if len(result.schedules) > self._max_schedules:
                raise RuntimeError(
                    f"exceeded max_schedules={self._max_schedules}; "
                    f"reduce the scenario's yield points or raise the bound"
                )
            # Backtrack: deepest decision with an untried sibling.
            pos = len(ranks) - 1
            while pos >= 0 and ranks[pos] + 1 >= counts[pos]:
                pos -= 1
            if pos < 0:
                return result
            prefix = ranks[:pos] + [ranks[pos] + 1]

    def replay(self, schedule: Sequence[int]) -> Optional[ScheduleFailure]:
        """Re-run one exact schedule (by thread index); return its failure.

        This is the reproduction path: feed it a schedule recorded by
        :meth:`explore` (e.g. from a CI failure report) and it will drive
        the scenario through the identical interleaving, returning the
        same :class:`ScheduleFailure` (or ``None`` if the outcome is
        consistent).
        """
        run_schedule, _, _, trace, failure = self._execute(
            rank_prefix=(), index_schedule=schedule
        )
        if failure is None:
            return None
        return ScheduleFailure(
            schedule=run_schedule, error=failure, trace=trace
        )


# ----------------------------------------------------------------------
# Randomized (PCT-style) schedule fuzzing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzSchedule:
    """One recorded fuzzer schedule, serializable and exactly replayable.

    The wire format deliberately contains nothing ephemeral: ``steps``
    is the sequence of granted *thread names* (from :class:`ThreadSpec`)
    and ``trace`` the merged ``name:label`` yield-point trace — both
    drawn from the stable label alphabet, never from object identities —
    so a schedule recorded in CI replays in any later process.
    """

    FORMAT_VERSION: ClassVar[int] = 1

    seed: int
    steps: Tuple[str, ...]
    trace: Tuple[str, ...]
    error: str

    def to_json(self) -> str:
        """Serialize to the stable JSON wire format."""
        payload = {
            "version": self.FORMAT_VERSION,
            "seed": self.seed,
            "steps": list(self.steps),
            "trace": list(self.trace),
            "error": self.error,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzSchedule":
        """Parse a schedule recorded by :meth:`to_json`."""
        payload = json.loads(text)
        version = payload.get("version")
        if version != cls.FORMAT_VERSION:
            raise ValueError(
                f"unsupported FuzzSchedule format version {version!r} "
                f"(expected {cls.FORMAT_VERSION})"
            )
        return cls(
            seed=int(payload["seed"]),
            steps=tuple(str(step) for step in payload["steps"]),
            trace=tuple(str(entry) for entry in payload["trace"]),
            error=str(payload["error"]),
        )


@dataclass
class FuzzResult:
    """Outcome of a fixed-budget fuzzing pass."""

    attempted: int = 0
    distinct: int = 0
    failures: List[FuzzSchedule] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.failures


class ScheduleFuzzer:
    """PCT-style randomized-priority sampler of a scenario's schedules.

    Where :class:`InterleavingExplorer` enumerates every interleaving,
    the fuzzer *samples*: each run draws a random priority order over
    the scenario threads and always grants the highest-priority runnable
    thread, demoting it below everyone at randomly chosen change points
    (the probabilistic-concurrency-testing recipe — depth-d bugs are hit
    with probability ≥ 1/(n·k^(d-1)) per run).  All randomness flows
    from ``seed``, so a fuzzing pass is reproducible, and every failing
    schedule is recorded by thread *name* so it replays exactly even
    without the RNG.

    Args:
        factory: builds a fresh :class:`Scenario` per run (same contract
            as the explorer's factory).
        seed: master seed; two fuzzers with equal seeds and budgets
            visit identical schedules.
        change_probability: per-step probability of demoting the
            currently-running thread below all other priorities.
        max_steps / step_timeout: per-run bounds, as for the explorer.
    """

    def __init__(
        self,
        factory: Callable[[], Scenario],
        seed: int = 0,
        change_probability: float = 0.25,
        max_steps: int = 500,
        step_timeout: float = 10.0,
    ) -> None:
        self._factory = factory
        self._seed = seed
        self._change_probability = change_probability
        self._max_steps = max_steps
        self._step_timeout = step_timeout

    def _run_random(self, run_seed: int) -> _RunRecord:
        rng = random.Random(run_seed)  # loomlint: disable=LOOM104
        scenario = self._factory()
        priorities = list(range(len(scenario.threads)))
        rng.shuffle(priorities)
        floor = min(priorities) if priorities else 0
        state = {"floor": floor}

        def pick(step_no: int, runnable: List[int]) -> int:
            best = max(runnable, key=lambda i: priorities[i])
            if rng.random() < self._change_probability:
                state["floor"] -= 1
                priorities[best] = state["floor"]
            return runnable.index(best)

        return _run_scenario(
            scenario, pick, self._max_steps, self._step_timeout
        )

    def run(self, schedules: int, stop_on_failure: bool = False) -> FuzzResult:
        """Execute ``schedules`` randomized runs; collect failing schedules."""
        master = random.Random(self._seed)  # loomlint: disable=LOOM104
        result = FuzzResult()
        seen: Set[Tuple[int, ...]] = set()
        for _ in range(schedules):
            run_seed = master.getrandbits(48)
            record = self._run_random(run_seed)
            result.attempted += 1
            seen.add(record.schedule)
            if record.failure is not None:
                result.failures.append(
                    FuzzSchedule(
                        seed=run_seed,
                        steps=record.names,
                        trace=record.trace,
                        error=record.failure,
                    )
                )
                if stop_on_failure:
                    break
        result.distinct = len(seen)
        return result

    def replay(self, recorded: FuzzSchedule) -> Optional[FuzzSchedule]:
        """Re-run one recorded schedule exactly; return its failure.

        The replay is driven purely by the recorded thread-name
        sequence — no RNG — so it reproduces the interleaving
        bit-for-bit or raises ``RuntimeError`` if the recorded schedule
        no longer matches the scenario's shape.
        """
        scenario = self._factory()
        name_of = [spec.name for spec in scenario.threads]

        def pick(step_no: int, runnable: List[int]) -> int:
            if step_no >= len(recorded.steps):
                raise RuntimeError(
                    f"recorded schedule ended after {len(recorded.steps)} "
                    f"steps but threads are still runnable; the schedule "
                    f"does not match the scenario"
                )
            wanted = recorded.steps[step_no]
            for rank, idx in enumerate(runnable):
                if name_of[idx] == wanted:
                    return rank
            raise RuntimeError(
                f"recorded schedule grants thread {wanted!r} at step "
                f"{step_no}, but it is not runnable; the schedule does "
                f"not match the scenario"
            )

        record = _run_scenario(
            scenario, pick, self._max_steps, self._step_timeout
        )
        if record.failure is None:
            return None
        return FuzzSchedule(
            seed=recorded.seed,
            steps=record.names,
            trace=record.trace,
            error=record.failure,
        )
