"""CLI entry point: ``python -m tools.loomsan <verb>`` (or ``loomsan``).

Exit status (stable, scripts may rely on it):

* ``0`` — success: no findings on the real implementation, or (with
  ``--mutant``) the seeded bug *was* flagged, or a replayed schedule
  reproduced its recorded verdict, or the shadow oracles all passed.
* ``1`` — failure: findings on the real implementation, the seeded
  mutant escaped detection, a replay diverged, or shadow divergences.
* ``2`` — usage error (unknown verb, missing file, bad flags).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Type


def _ensure_repro_importable() -> None:
    """Make ``repro`` importable when run from a source checkout."""
    try:
        import repro  # noqa: F401
    except ImportError:
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        src = os.path.join(repo_root, "src")
        if os.path.isdir(os.path.join(src, "repro")):
            sys.path.insert(0, src)


_ensure_repro_importable()

from .schedule import (  # noqa: E402
    FuzzSchedule,
    InterleavingExplorer,
    ScheduleFuzzer,
)

from repro.core.block import Block  # noqa: E402
from .scenarios import (  # noqa: E402
    UnversionedBlock,
    detector_scenario,
)

DEFAULT_SEED = 20250806
DEFAULT_BUDGET = 500


def _block_cls(mutant: bool) -> Type[Block]:
    if mutant:
        return UnversionedBlock
    return Block


def _write_failures(out_dir: str, failures: List[FuzzSchedule]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, failure in enumerate(failures):
        path = os.path.join(out_dir, f"schedule-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(failure.to_json())
            f.write("\n")
        print(f"loomsan: wrote failing schedule -> {path}")


def _verdict(found: bool, mutant: bool, what: str) -> int:
    """Map findings to exit status under normal vs self-test semantics."""
    if mutant:
        if found:
            print(f"loomsan: self-test passed — the seeded mutant was {what}")
            return 0
        print(
            f"loomsan: SELF-TEST FAILED — the seeded mutant was NOT {what}",
            file=sys.stderr,
        )
        return 1
    if found:
        print(
            f"loomsan: FINDINGS on the real implementation ({what})",
            file=sys.stderr,
        )
        return 1
    print("loomsan: clean — zero findings")
    return 0


def cmd_dfs(args: argparse.Namespace) -> int:
    block_cls = _block_cls(args.mutant)
    explorer = InterleavingExplorer(lambda: detector_scenario(block_cls))
    result = explorer.explore()
    print(
        f"loomsan dfs: {len(result.schedules)} schedules explored, "
        f"{len(result.failures)} flagged by the race detector"
    )
    for failure in result.failures[:3]:
        print(f"  schedule {failure.schedule}: {failure.error}")
    if args.out and result.failures:
        # DFS failures replay by thread name just like fuzzer schedules:
        # thread index 0/1 map to the scenario's writer/reader names.
        scenario = detector_scenario(block_cls)
        names = [spec.name for spec in scenario.threads]
        _write_failures(
            args.out,
            [
                FuzzSchedule(
                    seed=0,
                    steps=tuple(names[i] for i in failure.schedule),
                    trace=failure.trace,
                    error=failure.error,
                )
                for failure in result.failures
            ],
        )
    return _verdict(bool(result.failures), args.mutant, "flagged under DFS")


def cmd_fuzz(args: argparse.Namespace) -> int:
    block_cls = _block_cls(args.mutant)
    fuzzer = ScheduleFuzzer(
        lambda: detector_scenario(block_cls), seed=args.seed
    )
    result = fuzzer.run(args.budget, stop_on_failure=args.stop_on_failure)
    print(
        f"loomsan fuzz: seed={args.seed} budget={args.budget} "
        f"attempted={result.attempted} distinct={result.distinct} "
        f"failures={len(result.failures)}"
    )
    if args.out and result.failures:
        _write_failures(args.out, result.failures)
    return _verdict(
        bool(result.failures), args.mutant, "caught by the schedule fuzzer"
    )


def cmd_replay(args: argparse.Namespace) -> int:
    if not os.path.exists(args.schedule):
        print(f"loomsan: no such schedule file: {args.schedule}", file=sys.stderr)
        return 2
    with open(args.schedule, "r", encoding="utf-8") as f:
        recorded = FuzzSchedule.from_json(f.read())
    block_cls = _block_cls(args.mutant)
    fuzzer = ScheduleFuzzer(lambda: detector_scenario(block_cls))
    replayed = fuzzer.replay(recorded)
    if replayed is None:
        print(
            "loomsan replay: schedule ran clean — the recorded failure "
            "did NOT reproduce",
            file=sys.stderr,
        )
        return 1
    exact = (
        replayed.steps == recorded.steps
        and replayed.trace == recorded.trace
        and replayed.error == recorded.error
    )
    print(
        f"loomsan replay: failure reproduced "
        f"({'identical trace and verdict' if exact else 'DIVERGENT trace/verdict'})"
    )
    if not exact:
        print(f"  recorded: {recorded.error}", file=sys.stderr)
        print(f"  replayed: {replayed.error}", file=sys.stderr)
    return 0 if exact else 1


def cmd_shadow(args: argparse.Namespace) -> int:
    import struct

    from repro.core import HistogramSpec, LoomConfig, VirtualClock
    from repro.core.record_log import RecordLog
    from .sanitizer import install, shadow_of, uninstall, verify_log

    value = struct.Struct("<d")
    install()
    try:
        log = RecordLog(
            LoomConfig(
                chunk_size=512,
                record_block_size=4096,
                index_block_size=2048,
                timestamp_block_size=1024,
                timestamp_interval=8,
            ),
            clock=VirtualClock(),
        )
        log.define_source(1)
        log.define_index(
            1, lambda p: value.unpack_from(p)[0], HistogramSpec([1.0, 10.0, 100.0])
        )
        for i in range(args.records):
            log.push(1, value.pack(float(i % 150) + 0.5))
            log.clock.advance(1000)
        log.sync()
        shadow = shadow_of(log)
        assert shadow is not None
        failures = verify_log(log, shadow)
        log.close()
    finally:
        uninstall()
    print(
        f"loomsan shadow: {args.records} records, "
        f"{len(failures)} divergence(s)"
    )
    for failure in failures[:5]:
        print(f"  {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="loomsan",
        description=(
            "Loom sanitizer driver: race-detect, schedule-fuzz, replay, "
            "and shadow-verify the seqlock core."
        ),
    )
    sub = parser.add_subparsers(dest="verb")

    dfs = sub.add_parser(
        "dfs", help="exhaustive DFS exploration with the race detector"
    )
    dfs.add_argument(
        "--mutant",
        action="store_true",
        help="self-test against the seeded UnversionedBlock bug",
    )
    dfs.add_argument(
        "--out", help="directory to write failing schedules as JSON"
    )
    dfs.set_defaults(fn=cmd_dfs)

    fuzz = sub.add_parser(
        "fuzz", help="PCT-style randomized schedule fuzzing"
    )
    fuzz.add_argument("--mutant", action="store_true", help="self-test mode")
    fuzz.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="master RNG seed"
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="number of randomized schedules to run",
    )
    fuzz.add_argument(
        "--stop-on-failure",
        action="store_true",
        help="stop at the first failing schedule",
    )
    fuzz.add_argument(
        "--out", help="directory to write failing schedules as JSON"
    )
    fuzz.set_defaults(fn=cmd_fuzz)

    replay = sub.add_parser(
        "replay", help="re-run one recorded failing schedule exactly"
    )
    replay.add_argument("schedule", help="path to a FuzzSchedule JSON file")
    replay.add_argument(
        "--mutant",
        action="store_true",
        help="replay against the seeded mutant (required for schedules "
        "recorded from it)",
    )
    replay.set_defaults(fn=cmd_replay)

    shadow = sub.add_parser(
        "shadow", help="full differential-oracle pass over a real RecordLog"
    )
    shadow.add_argument(
        "--records", type=int, default=500, help="records to ingest"
    )
    shadow.set_defaults(fn=cmd_shadow)

    args = parser.parse_args(argv)
    if not getattr(args, "verb", None):
        parser.print_help(sys.stderr)
        return 2
    result: int = args.fn(args)
    return result


if __name__ == "__main__":
    sys.exit(main())
