"""loomsan: the race detector, the shadow model, and their oracles.

Three layers under test:

* the vector-clock happens-before :class:`RaceDetector` riding explorer
  and fuzzer scenarios (zero findings on the real seqlock, the seeded
  ``UnversionedBlock`` mutant flagged under both drivers);
* the :class:`ShadowLog` reference model and the differential oracles
  of :func:`verify_log` (agreement on the real implementation, loud
  divergence when either side is tampered with);
* the ``install()`` instrumentation that the whole tier-1 suite runs
  under when ``LOOMSAN=1``.
"""

import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import HistogramSpec, LoomConfig, VirtualClock
from repro.core.block import Block
from repro.core.record_log import RecordLog
from tools.loomsan import sanitizer
from tools.loomsan.sanitizer import (
    RaceDetector,
    SanitizerError,
    ShadowRecord,
    shadow_of,
    verify_log,
)
from tools.loomsan.schedule import (
    FuzzSchedule,
    InterleavingExplorer,
    ScheduleFuzzer,
)

from test_interleavings import UnversionedBlock, recycle_vs_reader_scenario

FUZZ_SEED = 20250806
FUZZ_BUDGET = 500

VALUE = struct.Struct("<d")


def value_payload(value):
    return VALUE.pack(value)


def payload_value(payload):
    return VALUE.unpack_from(payload)[0]


def detector_scenario(block_cls):
    """The seqlock scenario judged *only* by the race detector."""
    scenario = recycle_vs_reader_scenario(block_cls)
    scenario.check = lambda results: None
    scenario.observers = [RaceDetector()]
    return scenario


# ----------------------------------------------------------------------
# Race detector under the exhaustive explorer
# ----------------------------------------------------------------------
class TestRaceDetectorDFS:
    def test_real_block_has_zero_findings(self):
        result = InterleavingExplorer(lambda: detector_scenario(Block)).explore()
        assert len(result.schedules) >= 200
        assert result.consistent, result.failures[:3]

    def test_mutant_flagged_by_detector_alone(self):
        """No semantic check needed: the happens-before model convicts."""
        result = InterleavingExplorer(
            lambda: detector_scenario(UnversionedBlock)
        ).explore()
        assert not result.consistent
        assert all("race detector" in f.error for f in result.failures)
        assert "unordered write" in result.failures[0].error

    def test_detector_agrees_exactly_with_semantic_check(self):
        """The HB model flags precisely the schedules whose outcome is torn."""
        by_detector = InterleavingExplorer(
            lambda: detector_scenario(UnversionedBlock)
        ).explore()
        by_check = InterleavingExplorer(
            lambda: recycle_vs_reader_scenario(UnversionedBlock)
        ).explore()
        assert {f.schedule for f in by_detector.failures} == {
            f.schedule for f in by_check.failures
        }

    def test_detector_failure_replays(self):
        explorer = InterleavingExplorer(
            lambda: detector_scenario(UnversionedBlock)
        )
        seeded = explorer.explore().failures[0]
        replayed = explorer.replay(seeded.schedule)
        assert replayed is not None
        assert replayed.error == seeded.error
        assert replayed.trace == seeded.trace


# ----------------------------------------------------------------------
# Race detector under the randomized fuzzer
# ----------------------------------------------------------------------
class TestRaceDetectorFuzzer:
    def test_real_block_clean_over_seeded_budget(self):
        fuzzer = ScheduleFuzzer(lambda: detector_scenario(Block), seed=FUZZ_SEED)
        result = fuzzer.run(FUZZ_BUDGET)
        assert result.attempted == FUZZ_BUDGET
        assert result.consistent, result.failures[:3]
        assert result.distinct > 10  # actually sampling the space

    def test_mutant_caught_within_budget_and_replay_is_exact(self):
        fuzzer = ScheduleFuzzer(
            lambda: detector_scenario(UnversionedBlock), seed=FUZZ_SEED
        )
        result = fuzzer.run(FUZZ_BUDGET, stop_on_failure=True)
        assert result.failures, (
            f"fuzzer missed the seeded mutant in {FUZZ_BUDGET} schedules"
        )
        recorded = result.failures[0]
        # The wire format round-trips and the replay reproduces the
        # identical merged trace and verdict.
        restored = FuzzSchedule.from_json(recorded.to_json())
        assert restored == recorded
        replayed = fuzzer.replay(restored)
        assert replayed is not None
        assert replayed.steps == recorded.steps
        assert replayed.trace == recorded.trace
        assert replayed.error == recorded.error

    def test_deterministic_for_equal_seeds(self):
        make = lambda: ScheduleFuzzer(  # noqa: E731
            lambda: detector_scenario(UnversionedBlock), seed=7
        )
        first = make().run(50)
        second = make().run(50)
        assert [f.steps for f in first.failures] == [
            f.steps for f in second.failures
        ]

    def test_schedule_serialization_rejects_foreign_versions(self):
        recorded = FuzzSchedule(seed=1, steps=("a",), trace=("a:x",), error="e")
        mangled = recorded.to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError, match="format version"):
            FuzzSchedule.from_json(mangled)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_recorded_failing_schedules_replay_identically(seed):
    """Property (any seed): JSON round-trip + replay == identical trace."""
    fuzzer = ScheduleFuzzer(
        lambda: recycle_vs_reader_scenario(UnversionedBlock), seed=seed
    )
    result = fuzzer.run(200, stop_on_failure=True)
    assume(result.failures)
    recorded = result.failures[0]
    replayed = fuzzer.replay(FuzzSchedule.from_json(recorded.to_json()))
    assert replayed is not None
    assert replayed.steps == recorded.steps
    assert replayed.trace == recorded.trace
    assert replayed.error == recorded.error


# ----------------------------------------------------------------------
# Shadow model + differential oracles
# ----------------------------------------------------------------------
@pytest.fixture
def sanitized():
    """Install the LOOMSAN wrappers for this test; restore prior state."""
    was_installed = sanitizer.installed()
    sanitizer.install()
    yield
    if not was_installed:
        sanitizer.uninstall()


def small_config(**overrides):
    params = dict(
        chunk_size=512,
        record_block_size=4096,
        index_block_size=2048,
        timestamp_block_size=1024,
        timestamp_interval=8,
    )
    params.update(overrides)
    return LoomConfig(**params)


def build_log(n_records=200, clock=None):
    log = RecordLog(small_config(), clock=clock or VirtualClock())
    log.define_source(1)
    log.define_index(1, payload_value, HistogramSpec([1.0, 10.0, 100.0]))
    for i in range(n_records // 2):
        log.push(1, value_payload(float(i % 150) + 0.5))
        log.clock.advance(1000)
    log.push_many(
        1, [value_payload(float(i % 150) + 0.5) for i in range(n_records // 2)]
    )
    log.sync()
    return log


class TestShadowModel:
    def test_shadow_mirrors_every_ingest_operation(self, sanitized):
        log = build_log(100)
        shadow = shadow_of(log)
        assert shadow is not None
        assert len(shadow.records[1]) == 100
        assert [r.address for r in shadow.records[1]] == [
            r.address for r in log.iter_records_between(0, log.log.watermark)
        ]
        assert verify_log(log, shadow) == []
        log.close()
        assert shadow.closed

    def test_oracles_flag_a_missing_record(self, sanitized):
        log = build_log(60)
        shadow = shadow_of(log)
        dropped = shadow.records[1].pop()
        failures = verify_log(log, shadow)
        assert failures, f"dropping {dropped} went unnoticed"
        assert any("record_count" in f or "chain head" in f for f in failures)
        shadow.records[1].append(dropped)  # restore so close() stays clean
        log.close()

    def test_oracles_flag_tampered_payload_bytes(self, sanitized):
        log = build_log(60)
        shadow = shadow_of(log)
        victim = shadow.records[1][10]
        shadow.records[1][10] = ShadowRecord(
            timestamp=victim.timestamp,
            payload=value_payload(-1234.5),
            address=victim.address,
        )
        failures = verify_log(log, shadow)
        assert any("raw_scan" in f for f in failures)
        shadow.records[1][10] = victim
        log.close()

    def test_close_raises_on_divergence(self, sanitized):
        log = build_log(40)
        shadow = shadow_of(log)
        shadow.records[1].pop()
        with pytest.raises(SanitizerError, match="divergence"):
            log.close()

    def test_sync_runs_cheap_invariants(self, sanitized):
        log = build_log(40)
        shadow = shadow_of(log)
        shadow.records[1].pop()
        with pytest.raises(SanitizerError, match="record_count"):
            log.sync()

    def test_seek_oracle_catches_a_lying_timestamp(self, sanitized):
        log = build_log(80)
        shadow = shadow_of(log)
        # Shift every shadow timestamp by one tick: the entry the real
        # index returns no longer matches the shadow record at that
        # address, which is exactly what a mis-written RECORD entry
        # would look like.
        shadow.records[1] = [
            ShadowRecord(
                timestamp=r.timestamp + 1, payload=r.payload, address=r.address
            )
            for r in shadow.records[1]
        ]
        failures = verify_log(log, shadow)
        assert any("seek" in f or "raw_scan" in f for f in failures)

    def test_partial_coverage_index_checked_by_bounds(self, sanitized):
        log = RecordLog(small_config(), clock=VirtualClock())
        log.define_source(1)
        for i in range(50):
            log.push(1, value_payload(float(i)))
            log.clock.advance(1000)
        # Index defined mid-stream: forward-only coverage (section 5.3).
        log.define_index(1, payload_value, HistogramSpec([10.0, 100.0]))
        for i in range(50):
            log.push(1, value_payload(float(i)))
            log.clock.advance(1000)
        log.sync()
        shadow = shadow_of(log)
        index = next(iter(shadow.indexes.values()))
        assert index.birth == 50
        assert verify_log(log, shadow) == []
        log.close()

    def test_shadow_reseeds_across_reopen(self, sanitized, tmp_path):
        config = small_config(data_dir=str(tmp_path))
        clock = VirtualClock()
        log = RecordLog(config, clock=clock)
        log.define_source(1)
        for i in range(30):
            log.push(1, value_payload(float(i)))
            clock.advance(1000)
        log.close()

        reopened = RecordLog.reopen(config)
        shadow = shadow_of(reopened)
        assert shadow is not None and shadow.reseeded
        assert len(shadow.records[1]) == 30
        reopened.define_source(2)
        reopened.push(2, value_payload(7.0))
        reopened.sync()
        assert verify_log(reopened, shadow) == []
        reopened.close()

    def test_install_is_idempotent_and_uninstall_restores(self):
        was_installed = sanitizer.installed()
        sanitizer.install()
        sanitizer.install()
        assert sanitizer.installed()
        log = RecordLog(small_config(), clock=VirtualClock())
        assert shadow_of(log) is not None
        log.close()
        if not was_installed:
            sanitizer.uninstall()
            assert not sanitizer.installed()
            bare = RecordLog(small_config(), clock=VirtualClock())
            assert shadow_of(bare) is None
            bare.close()
