"""Exhaustive interleaving exploration of the seqlock protocol (§5.5).

These tests replace sleep-based race tests with a model-checker-style
enumeration: every schedule of a recycling writer against a copying
reader is executed, and each outcome is checked against the seqlock
contract — a reader sees the old bytes, or an explicit retry signal,
never bytes from the block's next life.
"""

import pytest

from repro.core import yieldpoints
from repro.core.block import Block
from repro.core.errors import SnapshotRetry
from tools.loomsan.schedule import (
    HookTeardownError,
    InterleavingExplorer,
    Scenario,
    ScheduleFuzzer,
    ThreadSpec,
    _abort_parked,
    _dispatch_hook,
    _ThreadController,
)


class UnversionedBlock(Block):
    """A block whose recycle 'forgets' the seqlock version bumps.

    This is the seeded known-bad mutant: without the odd/even bumps a
    reader that snapshotted its bounds before the recycle will happily
    copy bytes written after it — the exact bug LOOM102 and the seqlock
    protocol exist to prevent.
    """

    __slots__ = ()

    def recycle(self):  # loomlint: disable=LOOM102
        with self._lock:
            yieldpoints.hit("block.recycle.begin")
            self.base_address = None
            self.filled = 0
            yieldpoints.hit("block.recycle.cleared")
        if self.recycle_event is not None:
            self.recycle_event.set()


def recycle_vs_reader_scenario(block_cls):
    """Writer recycles+remaps a block while a reader copies its old range.

    The reader targets ``[0, 4)`` of the block's first life (b"AAAA").
    Consistent outcomes: the old bytes, or an explicit fallback signal.
    Bytes from the second life (b"BBBB") mean the seqlock failed.
    """
    block = block_cls(8)
    block.map(0)
    block.write(b"AAAA")

    def writer():
        block.recycle()
        block.map(8)  # the address space moves on; 0 is gone for good
        block.write(b"BB")
        block.write(b"BB")
        return None

    def reader():
        try:
            return block.read_range(0, 4, retries=2)
        except SnapshotRetry:
            return "fallback"

    def check(results):
        value = results["reader"]
        assert value in (b"AAAA", "fallback"), (
            f"reader observed {value!r} for address range [0, 4): the copy "
            f"validated against bytes from the block's next life"
        )

    return Scenario(
        threads=[ThreadSpec("writer", writer), ThreadSpec("reader", reader)],
        check=check,
    )


def counting_scenario(k):
    """Two threads with exactly ``k`` explicit yield points each."""

    def make(name):
        def fn():
            for i in range(k):
                yieldpoints.hit(f"{name}.{i}")
            return name

        return fn

    def check(results):
        assert results == {"a": "a", "b": "b"}

    return Scenario(
        threads=[ThreadSpec("a", make("a")), ThreadSpec("b", make("b"))],
        check=check,
    )


def binomial(n, k):
    num = 1
    for i in range(k):
        num = num * (n - i) // (i + 1)
    return num


class TestExplorerMechanics:
    def test_exhaustive_at_depth_k(self):
        """Two threads with k yield points → C(2k+2, k+1) schedules."""
        k = 2
        explorer = InterleavingExplorer(lambda: counting_scenario(k))
        result = explorer.explore()
        expected = binomial(2 * (k + 1), k + 1)  # C(6, 3) == 20
        assert len(result.schedules) == expected
        assert len(set(result.schedules)) == expected  # all distinct
        assert result.consistent

    def test_exhaustive_at_depth_3(self):
        k = 3
        explorer = InterleavingExplorer(lambda: counting_scenario(k))
        result = explorer.explore()
        assert len(result.schedules) == binomial(8, 4)  # 70
        assert len(set(result.schedules)) == 70

    def test_deterministic_across_runs(self):
        explorer = InterleavingExplorer(
            lambda: recycle_vs_reader_scenario(Block)
        )
        first = explorer.explore()
        second = explorer.explore()
        assert first.schedules == second.schedules
        assert first.failures == second.failures

    def test_schedule_grants_follow_thread_order(self):
        """The first schedule is all-of-thread-0 first: lexicographic DFS."""
        explorer = InterleavingExplorer(lambda: counting_scenario(1))
        result = explorer.explore()
        first = result.schedules[0]
        assert first == (0, 0, 1, 1)

    def test_max_schedules_guard(self):
        explorer = InterleavingExplorer(
            lambda: counting_scenario(3), max_schedules=10
        )
        with pytest.raises(RuntimeError, match="max_schedules"):
            explorer.explore()

    def test_thread_exception_is_a_failure_not_a_crash(self):
        def boom():
            raise ValueError("kaput")

        scenario = Scenario(
            threads=[ThreadSpec("t", boom)],
            check=lambda results: None,
        )
        result = InterleavingExplorer(lambda: scenario_copy(scenario)).explore()
        assert len(result.failures) == len(result.schedules) == 1
        assert "kaput" in result.failures[0].error

    def test_hook_cleared_after_exploration(self):
        InterleavingExplorer(lambda: counting_scenario(1)).explore()
        assert yieldpoints._hook is None

    def test_observers_removed_after_exploration(self):
        class Recorder:
            def on_event(self, label, info):
                pass

            def finish(self):
                return None

        def factory():
            scenario = counting_scenario(1)
            scenario.observers = [Recorder()]
            return scenario

        InterleavingExplorer(factory).explore()
        assert yieldpoints._observers == ()
        assert not yieldpoints.active


class TestHookTeardown:
    """Regression: clear_hook must not strand threads parked at a yield.

    Before the teardown callback existed, tearing down the hook while a
    scenario thread was parked on its gate semaphore left that (daemon)
    thread blocked forever — leaking a thread per timed-out run.
    """

    def test_clear_hook_invokes_teardown_after_unhooking(self):
        observed = []
        yieldpoints.set_hook(
            lambda label: None,
            teardown=lambda: observed.append(yieldpoints._hook),
        )
        yieldpoints.clear_hook()
        # The teardown ran exactly once, *after* the hook was unset, so
        # threads it wakes cannot re-enter the dispatch path.
        assert observed == [None]

    def test_clear_hook_releases_a_parked_thread(self):
        parked = ThreadSpec("parked", lambda: yieldpoints.hit("park.here"))
        controller = _ThreadController(parked)
        yieldpoints.set_hook(_dispatch_hook, teardown=_abort_parked)
        try:
            controller.start()
            controller.step(timeout=5.0)  # runs up to the yield and parks
            assert not controller.finished
        finally:
            yieldpoints.clear_hook()
        controller.thread.join(timeout=5.0)
        assert not controller.thread.is_alive(), (
            "clear_hook left the scenario thread parked on its gate"
        )
        assert controller.finished
        assert isinstance(controller.error, HookTeardownError)

    def test_clear_hook_fails_fast_a_never_granted_thread(self):
        spec = ThreadSpec("waiting", lambda: "ran")
        controller = _ThreadController(spec)
        yieldpoints.set_hook(_dispatch_hook, teardown=_abort_parked)
        try:
            controller.start()
        finally:
            yieldpoints.clear_hook()
        controller.thread.join(timeout=5.0)
        assert not controller.thread.is_alive()
        assert isinstance(controller.error, HookTeardownError)
        assert controller.result is None  # fn never ran


def scenario_copy(scenario):
    # Scenarios here are stateless; reuse is safe for this test only.
    return scenario


class TestSeqlockInterleavings:
    def test_recycle_vs_reader_all_schedules_consistent(self):
        """Acceptance: ≥ 200 distinct schedules, zero inconsistent reads."""
        explorer = InterleavingExplorer(
            lambda: recycle_vs_reader_scenario(Block)
        )
        result = explorer.explore()
        assert len(result.schedules) >= 200, len(result.schedules)
        assert len(set(result.schedules)) == len(result.schedules)
        assert result.consistent, result.failures[:3]

    def test_reader_sees_old_bytes_or_fallback_never_both_worlds(self):
        """Every reader outcome is one of the two contract outcomes."""
        outcomes = set()
        base_factory = lambda: recycle_vs_reader_scenario(Block)  # noqa: E731

        def factory():
            scenario = base_factory()
            original_check = scenario.check

            def recording_check(results):
                outcomes.add(
                    results["reader"]
                    if isinstance(results["reader"], str)
                    else bytes(results["reader"])
                )
                original_check(results)

            scenario.check = recording_check
            return scenario

        InterleavingExplorer(factory).explore()
        assert outcomes == {b"AAAA", "fallback"}

    def test_known_bad_interleaving_found_and_reproduced(self):
        """The unversioned mutant is caught, and its schedule replays."""
        explorer = InterleavingExplorer(
            lambda: recycle_vs_reader_scenario(UnversionedBlock)
        )
        result = explorer.explore()
        assert not result.consistent, (
            "the seeded seqlock bug produced no inconsistent schedule; "
            "the explorer is not exercising the race"
        )
        # The torn value contains bytes from the block's second life,
        # either fully ("BBBB") or half-written ("BBAA").
        assert any("BB" in f.error for f in result.failures)

        seeded = result.failures[0]
        replayed = explorer.replay(seeded.schedule)
        assert replayed is not None, "replay did not reproduce the failure"
        assert replayed.schedule == seeded.schedule
        assert replayed.error == seeded.error
        assert replayed.trace == seeded.trace

    def test_replay_of_consistent_schedule_returns_none(self):
        explorer = InterleavingExplorer(
            lambda: recycle_vs_reader_scenario(Block)
        )
        result = explorer.explore()
        assert explorer.replay(result.schedules[0]) is None

    def test_fuzzer_finds_the_seeded_mutant(self):
        """The randomized sampler, not just DFS, catches the torn read.

        Same seed and budget as CI's seeded fuzz pass: the PCT-style
        priority sampler must land on an inconsistent interleaving of
        the unversioned mutant well within the budget, and the recorded
        schedule must replay to the identical verdict without the RNG.
        """
        fuzzer = ScheduleFuzzer(
            lambda: recycle_vs_reader_scenario(UnversionedBlock),
            seed=20250806,
        )
        result = fuzzer.run(500, stop_on_failure=True)
        assert result.failures, (
            "500 seeded randomized schedules never produced a torn read "
            "on the unversioned mutant; the fuzzer is not sampling the "
            "racy region"
        )
        recorded = result.failures[0]
        assert "BB" in recorded.error
        replayed = fuzzer.replay(recorded)
        assert replayed is not None
        assert replayed.steps == recorded.steps
        assert replayed.trace == recorded.trace
        assert replayed.error == recorded.error

    def test_fuzzer_real_block_is_clean(self):
        fuzzer = ScheduleFuzzer(
            lambda: recycle_vs_reader_scenario(Block), seed=20250806
        )
        result = fuzzer.run(200)
        assert result.consistent, result.failures[:3]
        assert result.distinct > 10

    def test_traces_cover_the_seqlock_alphabet(self):
        """The exploration actually visits the instrumented yield points."""
        explorer = InterleavingExplorer(
            lambda: recycle_vs_reader_scenario(Block)
        )
        result = explorer.explore()
        # Re-run the first schedule to get its trace via replay machinery.
        schedule, _, _, trace, _ = explorer._execute((), result.schedules[0])
        labels = {entry.split(":", 1)[1] for entry in trace}
        assert "block.recycle.odd" in labels
        assert "block.try_copy.version1" in labels
